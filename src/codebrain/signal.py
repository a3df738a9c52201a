"""EEG records: container types, binary file I/O, preprocessing, patching,
per-patch spectral features, and a band-mixture synthetic generator.

Units convention: records come off disk (and out of the generator) in raw
microvolts; `preprocess` rejects anything whose magnitude exceeds 100 uV and
divides the survivors by 100, so downstream code always sees values in
[-1, 1]. Patching slices each channel into whole non-overlapping windows and
refuses lengths that do not divide evenly rather than silently truncating.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import fourier

__all__ = [
    "AmplitudeRejectionError",
    "Band",
    "ClassSpec",
    "EegRecord",
    "GeneratorSpec",
    "PatchGrid",
    "RecordFormatError",
    "freq_features",
    "load_record",
    "patch",
    "preprocess",
    "save_record",
    "split_stratified",
    "synth_generate",
]

AMPLITUDE_LIMIT_UV = 100.0
_MAGIC = b"EEGR"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIQi")  # magic, version, channels, rate, samples, label


class RecordFormatError(ValueError):
    """A record file failed magic/version/shape validation."""


class AmplitudeRejectionError(ValueError):
    """A record exceeded the raw amplitude limit during preprocessing."""

    def __init__(self, channel: str, channel_index: int, sample: int, seconds: float, value: float):
        self.channel = channel
        self.channel_index = channel_index
        self.sample = sample
        self.seconds = seconds
        self.value = value
        super().__init__(
            f"|{value:.2f}| uV exceeds the {AMPLITUDE_LIMIT_UV:.0f} uV limit "
            f"on channel {channel!r} (index {channel_index}) at sample {sample} "
            f"({seconds:.3f} s)"
        )


@dataclass
class EegRecord:
    """A multichannel recording: (channels, samples) float32 plus metadata.

    `label` is an integer class id or None. A record has at least one
    channel, and its sample count is a whole number of seconds at
    `sample_rate`.
    """

    channels: tuple[str, ...]
    sample_rate: int
    samples: np.ndarray
    label: int | None = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 2 or self.samples.shape[0] == 0:
            raise ValueError(f"samples must be (channels, samples) with a channel, got {self.samples.shape}")
        if len(self.channels) != self.samples.shape[0]:
            raise ValueError(
                f"{len(self.channels)} channel names for {self.samples.shape[0]} rows"
            )
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.shape[1] == 0 or self.samples.shape[1] % self.sample_rate:
            raise ValueError(
                f"{self.samples.shape[1]} samples is not a whole number of seconds "
                f"at {self.sample_rate} Hz"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain non-finite values")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def default_channel_names(n: int) -> tuple[str, ...]:
    return tuple(f"ch{i:02d}" for i in range(n))


def save_record(record: EegRecord, path: str | Path) -> None:
    """Write the little-endian binary layout plus a JSON channel-name sidecar."""
    path = Path(path)
    label = -1 if record.label is None else int(record.label)
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        record.n_channels,
        record.sample_rate,
        record.n_samples,
        label,
    )
    payload = np.ascontiguousarray(record.samples, dtype="<f4").tobytes()
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(header + payload)
    tmp.replace(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps({"channels": list(record.channels)}, indent=0) + "\n")


def load_record(path: str | Path) -> EegRecord:
    """Read a record written by `save_record`; channel names come from the
    sidecar when present, otherwise default names are assigned. A sidecar
    that is not an object whose `channels` lists one name per channel
    raises RecordFormatError."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise OSError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n_ch, rate, n_samp, label = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise RecordFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise RecordFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + n_ch * n_samp * 4
    if len(raw) != expected:
        raise OSError(f"{path}: expected {expected} bytes, found {len(raw)}")
    samples = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n_ch, n_samp)
    sidecar = path.with_suffix(path.suffix + ".json")
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise RecordFormatError(f"{sidecar}: not JSON: {exc}") from None
        names = meta.get("channels") if isinstance(meta, dict) else None
        if not (isinstance(names, list) and len(names) == n_ch and all(isinstance(n, str) for n in names)):
            raise RecordFormatError(f"{sidecar}: channels must be a list of {n_ch} names")
        names = tuple(names)
    else:
        names = default_channel_names(n_ch)
    return EegRecord(
        channels=names,
        sample_rate=int(rate),
        samples=samples.astype(np.float32),
        label=None if label < 0 else int(label),
    )


def preprocess(record: EegRecord) -> EegRecord:
    """Reject out-of-range raw amplitudes, then scale microvolts to [-1, 1]."""
    over = np.abs(record.samples) > AMPLITUDE_LIMIT_UV
    if over.any():
        c, s = np.argwhere(over)[0]
        raise AmplitudeRejectionError(
            channel=record.channels[c],
            channel_index=int(c),
            sample=int(s),
            seconds=float(s) / record.sample_rate,
            value=float(record.samples[c, s]),
        )
    return EegRecord(
        channels=record.channels,
        sample_rate=record.sample_rate,
        samples=record.samples / np.float32(AMPLITUDE_LIMIT_UV),
        label=record.label,
    )


@dataclass
class PatchGrid:
    """Non-overlapping windows of a record, (channels, windows, window_len),
    and its label."""

    patches: np.ndarray
    label: int | None = None

    def __post_init__(self) -> None:
        if self.patches.ndim != 3:
            raise ValueError(f"patches must be (C, N, T), got {self.patches.shape}")


def patch(record: EegRecord, patch_seconds: float = 1.0) -> PatchGrid:
    """Slice every channel into whole `patch_seconds` windows."""
    t = int(round(record.sample_rate * patch_seconds))
    if t <= 0:
        raise ValueError("patch length must be positive")
    if record.n_samples % t:
        raise ValueError(
            f"{record.n_samples} samples do not divide into whole {t}-sample windows"
        )
    n = record.n_samples // t
    return PatchGrid(patches=record.samples.reshape(record.n_channels, n, t), label=record.label)


def _phase(spec: np.ndarray) -> np.ndarray:
    """The phase of a spectrum, in (-pi, pi]."""
    ph = np.arctan2(spec.imag, spec.real)
    # fold the closed end of the interval: exactly -pi becomes +pi
    return np.where(ph <= -np.pi, ph + 2.0 * np.pi, ph)


def _zscore(v: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """`(v - v.mean(-1)) / (v.std(-1) + eps)` as float32, from one mean and
    one centred array: the sums and divisions those methods run."""
    n = np.intp(v.shape[-1])
    mean = np.add.reduce(v, axis=-1, keepdims=True)
    mean /= n
    c = v - mean
    var = np.add.reduce(c * c, axis=-1, keepdims=True)
    var /= n
    z = c / (np.sqrt(var) + eps)
    return z.astype(np.float32)


def _zscored_amplitude(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-sided amplitude spectrum of `x` along its last axis, z-scored
    over its bins, float32, and the complex spectrum it was taken from.
    `freq_features` and `tokenizer.tokenize` share it."""
    spec = fourier.dft_many(x)
    return _zscore(np.abs(spec)), spec


def freq_features(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(amplitude, phase) spectra of one patch (1-D) or a batch (..., T) of
    patches, each z-scored over its bins, float32, the shape of `x`."""
    amp, spec = _zscored_amplitude(x)
    return amp, _zscore(_phase(spec))


# ---- synthetic generator ---------------------------------------------------


@dataclass(frozen=True)
class Band:
    """One oscillatory component: frequency band edges (Hz) and amplitude (uV)."""

    low: float
    high: float
    amplitude: float


@dataclass(frozen=True)
class ClassSpec:
    name: str
    bands: tuple[Band, ...]


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a labeled synthetic corpus: per-class band mixtures + noise.

    Construction raises ValueError unless the corpus has two or more named
    classes, whole seconds and positive counts, every band lies within
    [0, Nyquist] with a positive amplitude, and each class's amplitudes plus
    6 sigma of noise stay under the preprocess amplitude limit, so that
    preprocess never rejects a generated record.
    """

    classes: tuple[ClassSpec, ...]
    channels: int = 4
    sample_rate: int = 200
    duration: float = 8.0
    noise_sigma: float = 4.0
    records_per_class: int = 100

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ValueError("generator needs at least 2 classes")
        if self.channels < 1:
            raise ValueError("generator needs at least 1 channel")
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {self.sample_rate}")
        if not 0 < self.duration < np.inf or round(self.sample_rate * self.duration) % self.sample_rate:
            raise ValueError(f"duration must be a positive whole number of seconds, got {self.duration}")
        if self.records_per_class < 1:
            raise ValueError("records_per_class must be positive")
        if not self.noise_sigma >= 0:  # NaN too
            raise ValueError("noise_sigma must be non-negative")
        nyquist = self.sample_rate / 2.0
        for cs in self.classes:
            if not cs.name:
                raise ValueError("every class needs a name")
            if not cs.bands:
                raise ValueError(f"class {cs.name!r} has no bands")
            total = 0.0
            for b in cs.bands:
                if not 0.0 <= b.low <= b.high:
                    raise ValueError(f"class {cs.name!r}: bad band edges {b.low}-{b.high}")
                if b.high > nyquist:
                    raise ValueError(
                        f"class {cs.name!r}: band edge {b.high} Hz exceeds the "
                        f"Nyquist frequency {nyquist} Hz"
                    )
                if not b.amplitude > 0:  # NaN too
                    raise ValueError(f"class {cs.name!r}: amplitude must be positive")
                total += b.amplitude
            # keep ~6 sigma of noise headroom so preprocess never rejects a record
            if total + 6.0 * self.noise_sigma > AMPLITUDE_LIMIT_UV:
                raise ValueError(
                    f"class {cs.name!r}: band amplitudes plus noise headroom "
                    f"({total} + 6*{self.noise_sigma}) exceed the "
                    f"{AMPLITUDE_LIMIT_UV:.0f} uV amplitude limit"
                )


def synth_generate(spec: GeneratorSpec, seed: int) -> list[EegRecord]:
    """Deterministically synthesize `records_per_class` records per class.

    Each channel of each record receives, per band, one sinusoid at a
    uniformly drawn in-band frequency with a uniform random phase, plus white
    Gaussian noise. Identical (spec, seed) pairs give bit-identical output.
    """
    s = int(round(spec.sample_rate * spec.duration))
    t = np.arange(s) / spec.sample_rate
    names = default_channel_names(spec.channels)
    records = []
    for ci, cs in enumerate(spec.classes):
        for r in range(spec.records_per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ci, r]))
            x = np.zeros((spec.channels, s), dtype=np.float64)
            for ch in range(spec.channels):
                for b in cs.bands:
                    f = rng.uniform(b.low, b.high)
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    x[ch] += b.amplitude * np.sin(2.0 * np.pi * f * t + phase)
            if spec.noise_sigma > 0:
                x += spec.noise_sigma * rng.standard_normal(x.shape)
            # headroom validation makes clipping astronomically unlikely;
            # clip anyway so the output always passes preprocess
            np.clip(x, -99.9, 99.9, out=x)
            records.append(
                EegRecord(
                    channels=names,
                    sample_rate=spec.sample_rate,
                    samples=x.astype(np.float32),
                    label=ci,
                )
            )
    return records


def split_stratified(
    labels, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint train/val/test index sets, shuffled per class so every split
    sees every label."""
    labels = np.asarray(labels)
    if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-6:
        raise ValueError(f"split fractions must be non-negative and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n = len(idx)
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        train.extend(idx[:n_train])
        val.extend(idx[n_train : n_train + n_val])
        test.extend(idx[n_train + n_val :])
    return (
        np.sort(np.array(train, dtype=np.intp)),
        np.sort(np.array(val, dtype=np.intp)),
        np.sort(np.array(test, dtype=np.intp)),
    )
