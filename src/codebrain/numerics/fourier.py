"""The discrete Fourier transform and FFT-based convolution.

`dft_many` is numpy.fft's complex forward transform along the last axis,
in complex128. It serves the short patch spectra that feed the tokenizer.

`fft_convolve_arrays` is *causal linear* convolution of two equal-length
real sequences, truncated back to the input length, i.e.
y[t] = sum_{s<=t} u[s] * k[t-s]. It runs numpy.fft's real transforms on
float64 copies of both inputs: numpy keeps float32 transforms in single
precision, whose rounding would leak into outputs that causality fixes.

Convention: X[k] = sum_n x[n] * exp(-2j*pi*k*n/N), with no scaling.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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


def fft_convolve_arrays(u: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Causal linear convolution along the last axis via spectral product.

    `u` and `k` must be real and share their last-axis length N; leading
    axes broadcast. Both are zero-padded to the next power of two >= 2N-1
    so the circular product realizes linear convolution, then the result is
    truncated back to N. Output dtype follows numpy promotion of the inputs.
    """
    u = np.asarray(u)
    k = np.asarray(k)
    n = u.shape[-1]
    if n == 0:
        raise ValueError("cannot convolve empty sequences")
    if k.shape[-1] != n:
        raise ValueError(
            f"sequence lengths differ: {n} vs {k.shape[-1]}; "
            "pad or truncate the kernel to the signal length first"
        )
    out_dtype = np.result_type(u.dtype, k.dtype)
    m = next_pow2(2 * n - 1)
    prod = np.fft.rfft(u.astype(np.float64), m) * np.fft.rfft(k.astype(np.float64), m)
    return np.fft.irfft(prod, m)[..., :n].astype(out_dtype)
