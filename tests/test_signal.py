"""Record I/O, preprocessing, patching, spectral features, synthetic corpus."""

import numpy as np
import pytest

from codebrain.numerics import fourier
from codebrain.signal import (
    AmplitudeRejectionError,
    Band,
    ClassSpec,
    EegRecord,
    GeneratorSpec,
    RecordFormatError,
    freq_features,
    load_record,
    patch,
    preprocess,
    save_record,
    split_stratified,
    synth_generate,
)
from codebrain.signal import _phase


def make_record(c=2, rate=4, seconds=2, label=None, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=scale, size=(c, rate * seconds)).astype(np.float32)
    return EegRecord(
        channels=tuple(f"ch{i:02d}" for i in range(c)),
        sample_rate=rate,
        samples=x,
        label=label,
    )


class TestRecordType:
    def test_partial_second_rejected(self):
        with pytest.raises(ValueError):
            EegRecord(("a",), 10, np.zeros((1, 15), np.float32))

    def test_channel_name_count_must_match(self):
        with pytest.raises(ValueError):
            EegRecord(("a", "b"), 10, np.zeros((1, 10), np.float32))

    def test_non_finite_rejected(self):
        x = np.zeros((1, 10), np.float32)
        x[0, 3] = np.nan
        with pytest.raises(ValueError):
            EegRecord(("a",), 10, x)

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError, match="with a channel"):
            EegRecord((), 10, np.zeros((0, 10), np.float32))


class TestFileRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rec = make_record(c=3, rate=8, seconds=3, label=2, seed=1)
        p = tmp_path / "rec.eeg"
        save_record(rec, p)
        back = load_record(p)
        assert back.channels == rec.channels
        assert back.sample_rate == rec.sample_rate
        assert back.label == 2
        assert back.samples.tobytes() == rec.samples.tobytes()

    def test_none_label_round_trips(self, tmp_path):
        rec = make_record(label=None)
        p = tmp_path / "rec.eeg"
        save_record(rec, p)
        assert load_record(p).label is None

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "rec.eeg"
        save_record(make_record(), p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"NOPE"
        p.write_bytes(bytes(blob))
        with pytest.raises(RecordFormatError):
            load_record(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "rec.eeg"
        save_record(make_record(), p)
        blob = bytearray(p.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(RecordFormatError):
            load_record(p)

    def test_zero_channel_file_rejected(self, tmp_path):
        # a header that declares no channels, and no payload or sidecar
        p = tmp_path / "rec.eeg"
        save_record(make_record(c=1), p)
        blob = bytearray(p.read_bytes()[:24])
        blob[6:8] = (0).to_bytes(2, "little")
        p.write_bytes(bytes(blob))
        (tmp_path / "rec.eeg.json").unlink()
        with pytest.raises(ValueError, match="with a channel"):
            load_record(p)

    def test_truncated_payload_is_io_error(self, tmp_path):
        p = tmp_path / "rec.eeg"
        save_record(make_record(), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(OSError):
            load_record(p)

    @pytest.mark.parametrize(
        "text",
        ["{}", '{"channels": 5}', "[]", '{"channels": ["a"]}', '{"channels": ["a", 2]}', '{"channels": '],
        ids=["empty", "not_a_list", "not_an_object", "too_few", "not_strings", "unparsable"],
    )
    def test_malformed_sidecar_rejected(self, tmp_path, text):
        p = tmp_path / "rec.eeg"
        save_record(make_record(c=2), p)
        (tmp_path / "rec.eeg.json").write_text(text)
        with pytest.raises(RecordFormatError, match="rec.eeg.json"):
            load_record(p)

    def test_missing_sidecar_gets_default_names(self, tmp_path):
        p = tmp_path / "rec.eeg"
        save_record(make_record(c=2), p)
        (tmp_path / "rec.eeg.json").unlink()
        back = load_record(p)
        assert back.channels == ("ch00", "ch01")


class TestPreprocess:
    def test_scales_by_one_hundred(self):
        rec = make_record(scale=10.0, seed=2)
        out = preprocess(rec)
        np.testing.assert_allclose(out.samples, rec.samples / 100.0, rtol=1e-6)
        assert np.abs(out.samples).max() <= 1.0

    def test_all_zero_record_passes_and_stays_zero(self):
        rec = EegRecord(("a",), 4, np.zeros((1, 8), np.float32))
        assert np.all(preprocess(rec).samples == 0.0)

    def test_boundary_value_is_kept(self):
        x = np.zeros((1, 8), np.float32)
        x[0, 0] = 100.0
        out = preprocess(EegRecord(("a",), 4, x))
        assert out.samples[0, 0] == pytest.approx(1.0)

    def test_rejection_reports_channel_and_time(self):
        x = np.zeros((2, 8), np.float32)
        x[1, 6] = -130.0
        with pytest.raises(AmplitudeRejectionError) as e:
            preprocess(EegRecord(("a", "b"), 4, x))
        assert e.value.channel == "b"
        assert e.value.sample == 6
        assert e.value.seconds == pytest.approx(1.5)


class TestPatch:
    def test_19_channel_30_second_record_yields_570_patches(self):
        rec = EegRecord(
            tuple(f"c{i}" for i in range(19)), 200, np.zeros((19, 6000), np.float32)
        )
        grid = patch(rec, 1.0)
        assert grid.patches.shape == (19, 30, 200)
        assert grid.patches.shape[0] * grid.patches.shape[1] == 570

    def test_single_patch_record(self):
        rec = make_record(c=1, rate=4, seconds=1)
        grid = patch(rec, 1.0)
        assert grid.patches.shape == (1, 1, 4)

    def test_six_channel_30_second_record_yields_180_patches(self):
        rec = EegRecord(
            tuple(f"c{i}" for i in range(6)), 200, np.zeros((6, 6000), np.float32)
        )
        assert patch(rec, 1.0).patches.shape[:2] == (6, 30)

    def test_non_dividing_window_rejected(self):
        rec = make_record(c=1, rate=4, seconds=3)  # 12 samples
        with pytest.raises(ValueError):
            patch(rec, 2.5)  # 10-sample windows


def _polar_features(x):
    """Raw two-sided amplitude and phase spectra, as `freq_features` forms
    them before z-scoring."""
    spec = fourier.dft_many(x)
    return np.abs(spec), _phase(spec)


class TestFreqFeatures:
    # the oracles check the raw spectra, before z-scoring
    def test_known_two_cycle_signal(self):
        # x[n] = [0,1,0,-1] is sin at bin 1: amplitude 2, phase -pi/2
        amp, ph = _polar_features(np.array([0.0, 1.0, 0.0, -1.0]))
        np.testing.assert_allclose(amp, [0.0, 2.0, 0.0, 2.0], atol=1e-12)
        assert ph[1] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_constant_patch_amplitude_all_at_bin_zero(self):
        amp, _ = _polar_features(np.full(200, 3.0))
        assert amp[0] == pytest.approx(600.0, rel=1e-12)
        np.testing.assert_allclose(amp[1:], np.zeros(199), atol=1e-9)

    def test_amplitude_nonnegative_before_normalization(self):
        rng = np.random.default_rng(4)
        amp, _ = _polar_features(rng.normal(size=64))
        assert (amp >= 0).all()

    def test_phase_in_half_open_interval(self):
        rng = np.random.default_rng(5)
        _, ph = _polar_features(rng.normal(size=128))
        assert (ph > -np.pi).all() and (ph <= np.pi).all()

    def test_zscore_moments(self):
        rng = np.random.default_rng(6)
        amp, phase = freq_features(rng.normal(size=200))
        for z in (amp, phase):
            assert z.dtype == np.float32
            assert abs(z.mean()) < 1e-5
            assert abs(z.std() - 1.0) < 1e-3

    def test_circular_time_reversal_negates_phase(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=64)
        rev = np.roll(x[::-1], 1)  # y[n] = x[(-n) mod N]
        (ax, px), (ar, pr) = _polar_features(x), _polar_features(rev)
        np.testing.assert_allclose(ar, ax, atol=1e-5 * ax.max())
        # compare as complex phases to absorb the 2*pi wrap at the boundary
        np.testing.assert_allclose(np.exp(1j * pr), np.exp(-1j * px), atol=1e-4)

    def test_plain_flip_preserves_amplitude(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=100)
        (ax, _), (ar, _) = _polar_features(x), _polar_features(x[::-1])
        np.testing.assert_allclose(ar, ax, atol=1e-5 * ax.max())

    def test_grid_features_match_per_patch(self):
        rec = make_record(c=2, rate=8, seconds=3, seed=9)
        grid = patch(rec, 1.0)
        amp, phase = freq_features(grid.patches)
        assert amp.shape == phase.shape == grid.patches.shape
        single_amp, single_phase = freq_features(grid.patches[1, 2])
        np.testing.assert_allclose(amp[1, 2], single_amp, atol=1e-6)
        np.testing.assert_allclose(phase[1, 2], single_phase, atol=1e-6)


DESK_CLASSES = (
    ClassSpec("slow", (Band(1.0, 4.0, 40.0),)),
    ClassSpec("alpha", (Band(8.0, 12.0, 40.0),)),
    ClassSpec("beta", (Band(18.0, 30.0, 40.0),)),
)


class TestSynthGenerate:
    def test_deterministic_per_seed(self):
        spec = GeneratorSpec(classes=DESK_CLASSES, channels=2, duration=2.0, records_per_class=3)
        a = synth_generate(spec, seed=7)
        b = synth_generate(spec, seed=7)
        assert len(a) == 9
        for ra, rb in zip(a, b):
            assert ra.samples.tobytes() == rb.samples.tobytes()

    def test_different_seed_differs(self):
        spec = GeneratorSpec(classes=DESK_CLASSES, channels=1, duration=1.0, records_per_class=1)
        a = synth_generate(spec, seed=7)[0]
        b = synth_generate(spec, seed=8)[0]
        assert not np.array_equal(a.samples, b.samples)

    def test_all_records_pass_preprocess(self):
        spec = GeneratorSpec(classes=DESK_CLASSES, channels=2, duration=2.0, records_per_class=5)
        for rec in synth_generate(spec, seed=11):
            preprocess(rec)  # must not raise

    def test_labels_follow_class_order(self):
        spec = GeneratorSpec(classes=DESK_CLASSES, channels=1, duration=1.0, records_per_class=2)
        labels = [r.label for r in synth_generate(spec, seed=1)]
        assert labels == [0, 0, 1, 1, 2, 2]

    def test_slow_class_energy_concentrates_below_5hz(self):
        spec = GeneratorSpec(
            classes=DESK_CLASSES, channels=2, sample_rate=200, duration=4.0,
            noise_sigma=4.0, records_per_class=3,
        )
        recs = [r for r in synth_generate(spec, seed=13) if r.label == 0]
        for rec in recs:
            spectrum = np.abs(np.fft.rfft(rec.samples, axis=-1)) ** 2
            freqs = np.fft.rfftfreq(rec.n_samples, d=1.0 / rec.sample_rate)
            frac = spectrum[:, freqs < 5.0].sum() / spectrum.sum()
            assert frac >= 0.70

    def test_zero_noise_single_tone_has_one_dominant_bin(self):
        spec = GeneratorSpec(
            classes=(
                ClassSpec("ten", (Band(10.0, 10.0, 50.0),)),
                ClassSpec("twenty", (Band(20.0, 20.0, 50.0),)),
            ),
            channels=1, sample_rate=200, duration=2.0, noise_sigma=0.0,
            records_per_class=1,
        )
        rec = synth_generate(spec, seed=17)[0]
        grid = patch(rec, 1.0)
        for n in range(grid.patches.shape[1]):
            amp = np.abs(np.fft.rfft(grid.patches[0, n]))
            assert np.argmax(amp) == 10
            others = np.delete(amp, 10)
            assert amp[10] > 10.0 * others.max()

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            GeneratorSpec(
                classes=(
                    ClassSpec("a", (Band(1.0, 4.0, 40.0),)),
                    ClassSpec("hot", (Band(90.0, 120.0, 40.0),)),
                ),
                sample_rate=200,
            )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(classes=(ClassSpec("only", (Band(1, 4, 40),)),))

    def test_amplitude_headroom_enforced(self):
        with pytest.raises(ValueError, match="limit"):
            GeneratorSpec(
                classes=(
                    ClassSpec("a", (Band(1, 4, 90.0),)),
                    ClassSpec("b", (Band(8, 12, 90.0),)),
                ),
                noise_sigma=4.0,
            )

    def test_classes_are_spectrally_separable(self):
        """A trivial band-energy argmax classifier reaches >= 95% accuracy."""
        spec = GeneratorSpec(
            classes=DESK_CLASSES, channels=2, sample_rate=200, duration=2.0,
            noise_sigma=4.0, records_per_class=20,
        )
        recs = synth_generate(spec, seed=19)
        bands = [(1.0, 4.0), (8.0, 12.0), (18.0, 30.0)]
        hits = 0
        for rec in recs:
            spectrum = np.abs(np.fft.rfft(rec.samples, axis=-1)) ** 2
            freqs = np.fft.rfftfreq(rec.n_samples, d=1.0 / rec.sample_rate)
            energy = [
                spectrum[:, (freqs >= lo) & (freqs <= hi)].sum() for lo, hi in bands
            ]
            hits += int(np.argmax(energy) == rec.label)
        assert hits / len(recs) >= 0.95


class TestSplit:
    def test_splits_are_disjoint_and_cover(self):
        labels = np.repeat([0, 1, 2], 20)
        tr, va, te = split_stratified(labels, (0.7, 0.15, 0.15), seed=3)
        all_idx = np.concatenate([tr, va, te])
        assert len(np.unique(all_idx)) == 60
        assert len(all_idx) == 60

    def test_every_split_sees_every_class(self):
        labels = np.repeat([0, 1, 2], 20)
        for part in split_stratified(labels, (0.6, 0.2, 0.2), seed=4):
            assert set(labels[part]) == {0, 1, 2}

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            split_stratified([0, 1], (0.5, 0.2, 0.2), seed=0)
        # sums to 1, but a negative share would empty the later splits
        with pytest.raises(ValueError, match="non-negative"):
            split_stratified(np.repeat([0, 1], 10), (1.2, -0.2, 0.0), seed=0)
