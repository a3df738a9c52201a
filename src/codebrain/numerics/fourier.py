"""The exact discrete Fourier transform and FFT-based convolution.

`dft_many` is the exact forward transform of any length: one product with
a cached transform matrix, accumulated in complex128. It serves the short
patch spectra, whose phases feed the tokenizer: numpy.fft rounds
differently and turns the Nyquist-bin phase of a real patch from -pi + eps
into +pi, which changes the tokens.

`fft_convolve_arrays` is *causal linear* convolution of two equal-length
real sequences, truncated back to the input length, i.e.
y[t] = sum_{s<=t} u[s] * k[t-s]. It runs numpy.fft's real transforms on
float64 copies of both inputs: numpy keeps float32 transforms in single
precision, whose rounding would leak into outputs that causality fixes.

Convention: X[k] = sum_n x[n] * exp(-2j*pi*k*n/N), with no scaling.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=32)
def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def dft_many(x: np.ndarray) -> np.ndarray:
    """Forward transform along the last axis of a real/complex array.

    Returns complex128. Any positive length; the cost is O(N^2) per row.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0:
        raise ValueError("cannot transform an empty signal")
    return x.astype(np.complex128, copy=False) @ _dft_matrix(n).T


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
