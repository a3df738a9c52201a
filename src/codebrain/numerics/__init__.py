"""Core numerics: autodiff tensors, Fourier transforms, composite functions."""

from .fourier import (
    dft_many,
    fft_convolve_arrays,
    next_pow2,
)
from .functional import (
    dropout,
    finite_diff_check,
)
from .tensor import (
    MissingGradientError,
    Tensor,
    attention,
    backward,
    concat,
    conv1d,
    cross_entropy,
    fft_convolve,
    layer_norm,
    linear,
    no_grad,
    pad_axis,
    repeat_last,
    rms_norm,
    softmax,
    stack,
    take_rows,
    window_attention,
)

__all__ = [
    "MissingGradientError",
    "Tensor",
    "attention",
    "backward",
    "concat",
    "conv1d",
    "cross_entropy",
    "dft_many",
    "dropout",
    "fft_convolve",
    "fft_convolve_arrays",
    "finite_diff_check",
    "layer_norm",
    "linear",
    "next_pow2",
    "no_grad",
    "pad_axis",
    "repeat_last",
    "rms_norm",
    "softmax",
    "stack",
    "take_rows",
    "window_attention",
]
