"""The discrete Fourier transform and FFT-based convolution.

`dft_many` is numpy.fft's complex forward transform along the last axis,
in complex128. It serves the short patch spectra that feed the tokenizer.

`fft_convolve_arrays` is *causal linear* convolution of two equal-length
real sequences, truncated back to the input length, i.e.
y[t] = sum_{s<=t} u[s] * k[t-s]. It runs numpy.fft's real transforms on
C-ordered float64 copies of both inputs: numpy keeps float32 transforms in
single precision, whose rounding would leak into outputs that causality
fixes, and transforms strided rows (SGConv's transposed input, its
adjoint's reversed gradient) more slowly, to the same values. An operand
may be the `Spectrum` an earlier call returned, so a call runs one real
transform per array operand and one inverse.

Convention: X[k] = sum_n x[n] * exp(-2j*pi*k*n/N), with no scaling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Spectrum",
    "dft_many",
    "fft_convolve_arrays",
    "next_pow2",
]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n must be positive)."""
    if n < 1:
        raise ValueError(f"next_pow2 needs a positive length, got {n}")
    return 1 << (n - 1).bit_length()


def dft_many(x: np.ndarray) -> np.ndarray:
    """Forward transform along the last axis of a real/complex array, as
    complex128. Any positive length; an empty last axis raises ValueError."""
    return np.fft.fft(np.asarray(x).astype(np.complex128, copy=False), axis=-1)


class Spectrum(NamedTuple):
    """A real sequence as `fft_convolve_arrays` transforms it: the rfft of
    its float64 copy zero-padded to `next_pow2(2 * n - 1)`, with the
    sequence's length `n` and its dtype."""

    data: np.ndarray
    n: int
    dtype: np.dtype


def _operand(x) -> tuple[Spectrum | np.ndarray, int]:
    """A convolution operand and its sequence length."""
    if isinstance(x, Spectrum):
        return x, x.n
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError(f"fft_convolve_arrays convolves real sequences, got dtype {x.dtype}")
    return x, x.shape[-1]


def fft_convolve_arrays(u, k, *, spectra: bool = False):
    """Causal linear convolution along the last axis via spectral product.

    `u` and `k` are real arrays sharing their last-axis length N, or the
    `Spectrum`s earlier calls returned for such arrays; leading axes
    broadcast. Arrays are zero-padded to the next power of two >= 2N-1 and
    transformed, so the circular product realizes linear convolution; the
    result is truncated back to N, in the numpy promotion of the inputs'
    dtypes. `spectra=True` returns `(out, spectrum_of_u, spectrum_of_k)`.
    Complex arrays raise TypeError.
    """
    (u, n), (k, nk) = _operand(u), _operand(k)
    if n == 0:
        raise ValueError("cannot convolve empty sequences")
    if nk != n:
        raise ValueError(
            f"sequence lengths differ: {n} vs {nk}; "
            "pad or truncate the kernel to the signal length first"
        )
    m = next_pow2(2 * n - 1)
    su, sk = (
        x if isinstance(x, Spectrum) else Spectrum(np.fft.rfft(x.astype(np.float64, order="C"), m), n, x.dtype)
        for x in (u, k)
    )
    out = np.fft.irfft(su.data * sk.data, m)[..., :n].astype(np.result_type(su.dtype, sk.dtype))
    return (out, su, sk) if spectra else out
