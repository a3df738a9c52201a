"""Transform correctness against direct-summation and direct-convolution oracles."""

import numpy as np
import pytest

from codebrain.numerics import dft_many, fft_convolve_arrays, next_pow2


def dft_direct(x):
    """Oracle: direct O(N^2) summation of the transform definition."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * np.arange(n) / n))
    return out


def convolve_direct(u, k):
    """Oracle: direct causal convolution, y[t] = sum_{s<=t} u[s] k[t-s]."""
    n = len(u)
    y = np.zeros(n, dtype=np.float64)
    for t in range(n):
        for s in range(t + 1):
            y[t] += u[s] * k[t - s]
    return y


class TestDft:
    def test_constant_signal_concentrates_at_bin_zero(self):
        spec = dft_many(np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(spec.real, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(spec.imag, np.zeros(4), atol=1e-12)

    def test_alternating_two_cycle_signal(self):
        spec = dft_many(np.array([1.0, 0.0, -1.0, 0.0]))
        np.testing.assert_allclose(spec.real, [0.0, 2.0, 0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(spec.imag, np.zeros(4), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16, 200, 256, 257])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        got = dft_many(x)
        want = dft_direct(x)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 200, 256, 1000])
    def test_round_trip_within_1e6(self, n):
        # numpy's inverse FFT is an independent oracle for the forward transform
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=n).astype(np.float32)
        back = np.fft.ifft(dft_many(x))
        np.testing.assert_allclose(back.real, x, atol=1e-6 * max(1.0, np.abs(x).max()))
        np.testing.assert_allclose(back.imag, 0.0, atol=1e-6 * max(1.0, np.abs(x).max()))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for n in (8, 13, 64):
            x, y = rng.normal(size=(2, n))
            a, b = 2.5, -1.25
            lhs = dft_many(a * x + b * y)
            rhs = a * dft_many(x) + b * dft_many(y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * n)

    def test_parseval_energy_identity(self):
        rng = np.random.default_rng(11)
        for n in (16, 100, 512):
            x = rng.normal(size=n)
            spec = dft_many(x)
            time_energy = np.sum(x * x)
            freq_energy = np.sum(np.abs(spec) ** 2) / n
            assert abs(time_energy - freq_energy) <= 1e-10 * time_energy

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(13)
        for n in (8, 9, 200):
            spec = dft_many(rng.normal(size=n))
            mirrored = np.conj(spec[(-np.arange(n)) % n])
            np.testing.assert_allclose(spec, mirrored, atol=1e-9 * np.abs(spec).max())

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            dft_many(np.array([]))

    def test_batched_transform_matches_per_row(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 5, 32))
        batched = dft_many(x)
        for i in range(3):
            for j in range(5):
                np.testing.assert_allclose(
                    batched[i, j], dft_direct(x[i, j]), atol=1e-8 * 32
                )


class TestFftConvolve:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(19)
        u = rng.normal(size=64)
        k = np.zeros(64)
        k[0] = 1.0
        np.testing.assert_allclose(fft_convolve_arrays(u, k), u, atol=1e-9)

    def test_small_hand_example(self):
        u = np.array([1.0, 1.0, 1.0, 1.0])
        k = np.array([1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            fft_convolve_arrays(u, k), [1.0, 2.0, 2.0, 2.0], atol=1e-9
        )

    @pytest.mark.parametrize("n", [2, 3, 16, 100, 256, 1000])
    def test_matches_direct_convolution(self, n):
        rng = np.random.default_rng(1000 + n)
        u = rng.normal(size=n)
        k = rng.normal(size=n)
        got = fft_convolve_arrays(u, k)
        want = convolve_direct(u, k)
        np.testing.assert_allclose(got, want, atol=1e-5 * max(1.0, np.abs(want).max()))

    def test_float32_inputs_convolve_in_float64(self):
        # numpy keeps float32 transforms in single precision; the convolution
        # must not, so float32 inputs give the float64 result rounded once
        rng = np.random.default_rng(29)
        u = rng.normal(size=(4, 256)).astype(np.float32)
        k = rng.normal(size=256).astype(np.float32)
        got = fft_convolve_arrays(u, k)
        want = fft_convolve_arrays(u.astype(np.float64), k.astype(np.float64))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want.astype(np.float32))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fft_convolve_arrays(np.ones(4), np.ones(5))

    def test_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(23)
        u = rng.normal(size=(3, 32))
        k = rng.normal(size=32)
        got = fft_convolve_arrays(u, k)
        for i in range(3):
            np.testing.assert_allclose(got[i], convolve_direct(u[i], k), atol=1e-8)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(4096) == 4096
    assert next_pow2(4097) == 8192
    with pytest.raises(ValueError):
        next_pow2(0)


class TestFftConvolveOperands:
    @pytest.mark.parametrize("which", [0, 1], ids=["u", "k"])
    def test_complex_operand_rejected(self, which):
        # the real transforms would drop the imaginary part with only a warning
        ops = [np.ones(8), np.ones(8)]
        ops[which] = ops[which] + 1j
        with pytest.raises(TypeError, match="complex128"):
            fft_convolve_arrays(*ops)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spectra_stand_in_for_their_arrays(self, dtype):
        rng = np.random.default_rng(31)
        u = rng.normal(size=(3, 4, 100)).astype(dtype)
        k = rng.normal(size=(4, 100)).astype(dtype)
        want = fft_convolve_arrays(u, k)
        out, su, sk = fft_convolve_arrays(u, k, spectra=True)
        np.testing.assert_array_equal(out, want)
        assert (su.n, su.dtype, sk.n, sk.dtype) == (100, dtype, 100, dtype)
        np.testing.assert_array_equal(su.data, np.fft.rfft(u.astype(np.float64), 256))
        for ops in ((su, k), (u, sk), (su, sk)):
            got = fft_convolve_arrays(*ops)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_views_bit_equal_to_transforming_them_as_laid_out(self, dtype):
        # SGConv's transposed input and its adjoint's reversed gradient are
        # copied to C order first; the values are those of the views' own
        # layout, transformed row by row
        rng = np.random.default_rng(37)
        u = rng.normal(size=(2, 300, 5)).astype(dtype).transpose(0, 2, 1)[..., ::-1]
        k = rng.normal(size=(300, 5)).astype(dtype).T
        spectra = [np.fft.rfft(x.astype(np.float64), 1024) for x in (u, k)]
        want = np.fft.irfft(spectra[0] * spectra[1], 1024)[..., :300].astype(dtype)
        np.testing.assert_array_equal(fft_convolve_arrays(u, k), want)

    def test_spectrum_length_mismatch_rejected(self):
        _, su, _ = fft_convolve_arrays(np.ones(4), np.ones(4), spectra=True)
        with pytest.raises(ValueError, match="4 vs 5"):
            fft_convolve_arrays(su, np.ones(5))
