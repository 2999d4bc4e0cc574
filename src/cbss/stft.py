"""Short-time Fourier analysis and weighted overlap-add synthesis.

The analysis/synthesis pair is built for perfect reconstruction: the
squared analysis window must satisfy constant-overlap-add at the configured
hop, and the signal is zero-padded by one frame minus one hop at both ends
so every original sample sees the full window overlap.  The synthesis
window is the analysis window divided by that constant overlap-add gain, so
overlap-added frames need no normalization afterwards.  Only the
non-negative-frequency half of each frame spectrum is stored; the missing
bins are implied by conjugate symmetry.

`analyze` and `synthesize` work on whole signals as validated bins x
frames `Spectrogram`s.  Their plain frames x bins kernels also take a block
of consecutive frames: `frame_spectra` reads only the samples a range of
frames covers, and `overlap_add` adds a block's frames into a caller's
buffer, from which `strip_padding` cuts the waveform once all are in.
Both write their frame-sized intermediates into arrays the caller passes,
if any, so a loop over blocks need not allocate them block after block.

`next_fast_len` picks the zero-padded FFT length at which the room
simulator and the metrics convolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signals import Waveform

COLA_TOL = 1e-10
# Longest frame a StftConfig may ask for; its checks alone take ~56 bytes a sample.
MAX_FRAME_LENGTH = 2**16

_WINDOW_NAMES = ("sqrt_hann", "hann", "rect")


def _window(name: str, frame_length: int) -> np.ndarray:
    n = np.arange(frame_length)
    if name == "sqrt_hann":
        return np.sin(np.pi * n / frame_length)
    if name == "hann":
        return np.sin(np.pi * n / frame_length) ** 2
    if name == "rect":
        return np.ones(frame_length)
    raise ValueError(f"unknown window {name!r}; choose from {_WINDOW_NAMES}")


@dataclass(frozen=True)
class StftConfig:
    """Frame length (a power of two up to MAX_FRAME_LENGTH), overlap fraction, window id."""

    frame_length: int = 2048
    overlap_fraction: float = 0.75
    window: str = "sqrt_hann"
    hop: int = field(init=False)
    cola_gain: float = field(init=False)

    def __post_init__(self) -> None:
        k = self.frame_length
        if not 0 < k <= MAX_FRAME_LENGTH or (k & (k - 1)) != 0:
            raise ValueError(f"frame_length {k} is not a power of two up to {MAX_FRAME_LENGTH}")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1)")
        hop_exact = k * (1.0 - self.overlap_fraction)
        hop = int(round(hop_exact))
        if hop < 1 or abs(hop_exact - hop) > 1e-9:
            raise ValueError("overlap_fraction must give an integer hop size")
        object.__setattr__(self, "hop", hop)
        object.__setattr__(self, "cola_gain", self._check_cola())

    def _check_cola(self) -> float:
        """Overlap-add gain of the squared analysis window; reject it unless flat."""
        product = self.analysis_window() ** 2
        k, hop = self.frame_length, self.hop
        total = 4 * k
        profile = np.zeros(total)
        for start in range(0, total - k + 1, hop):
            profile[start : start + k] += product
        interior = profile[k : 2 * k]
        mean = float(np.mean(interior))
        if mean <= 0 or np.max(np.abs(interior - mean)) > COLA_TOL * mean:
            raise ValueError(
                f"window {self.window!r} at hop {hop} violates the "
                "constant-overlap-add condition"
            )
        return mean

    @property
    def n_bins(self) -> int:
        return self.frame_length // 2 + 1

    def analysis_window(self) -> np.ndarray:
        return _window(self.window, self.frame_length)

    def synthesis_window(self) -> np.ndarray:
        """The analysis window scaled so overlap-added frames sum to the signal."""
        return self.analysis_window() / self.cola_gain


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Half-spectrum STFT values: complex (n_bins, n_frames).

    `original_length` records the analyzed signal's sample count so
    synthesis can strip the padding again.
    """

    values: np.ndarray
    config: StftConfig
    sample_rate: int
    original_length: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.complex128)
        if values.ndim != 2:
            raise ValueError("spectrogram values must be 2-D (bins x frames)")
        if values.shape[0] != self.config.n_bins:
            raise ValueError(
                f"expected {self.config.n_bins} frequency bins, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrogram values must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.original_length < 0:
            raise ValueError("original_length must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Spectrogram":
        """Same geometry and provenance, different bin values."""
        return Spectrogram(values, self.config, self.sample_rate, self.original_length)


def frame_count(n_samples: int, config: StftConfig) -> int:
    """Frames in the STFT of an `n_samples` signal (at least one frame long)."""
    k, hop = config.frame_length, config.hop
    if n_samples < k:
        raise ValueError(f"signal of {n_samples} samples is shorter than one frame ({k})")
    pad = k - hop
    return int(np.ceil((pad + n_samples + pad - k) / hop)) + 1


def padded_length(n_frames: int, config: StftConfig) -> int:
    """Samples spanned by `n_frames` frames: the overlap-add buffer length."""
    return (n_frames - 1) * config.hop + config.frame_length


def frame_blocks(n_frames: int, frames_per_block: int) -> list[range]:
    """Consecutive ranges of at most `frames_per_block` frames covering [0, n_frames)."""
    if frames_per_block < 1:
        raise ValueError("frames_per_block must be at least 1")
    starts = range(0, n_frames, frames_per_block)
    return [range(a, min(a + frames_per_block, n_frames)) for a in starts]


def frame_spectra(
    samples: np.ndarray,
    config: StftConfig,
    frames: range,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Half spectra of the frames in `frames` of a signal, (len(frames), n_bins).

    Frame m covers samples [m*hop, m*hop + K) of the padded signal, where
    K - hop zeros are prepended and at least as many appended.  Only the
    samples the requested frames cover are read; the padding is never
    built for the whole signal.  The spectra go into `out` and the
    windowed frames into `work`, (len(frames), K) floats, when given, and
    into new arrays otherwise; the values are the same either way.
    """
    n = len(samples)
    n_frames = frame_count(n, config)
    if not 0 <= frames.start < frames.stop <= n_frames or frames.step != 1:
        raise ValueError(f"frames must be a non-empty unit-step range of the {n_frames} frames")
    k, hop = config.frame_length, config.hop

    # Sample j of buf is sample offset + j of the signal, zero outside it.
    offset = frames.start * hop - (k - hop)
    buf = np.zeros(padded_length(len(frames), config))
    lo, hi = max(offset, 0), min(offset + len(buf), n)
    buf[lo - offset : hi - offset] = samples[lo:hi]

    frame_view = np.lib.stride_tricks.sliding_window_view(buf, k)[::hop]
    windowed = np.multiply(frame_view, config.analysis_window(), out=work)
    return np.fft.rfft(windowed, axis=1, out=out)


def analyze(signal: Waveform, config: StftConfig) -> Spectrogram:
    """Transform a whole waveform into its half-spectrum STFT."""
    frames = range(frame_count(len(signal), config))
    values = frame_spectra(signal.samples, config, frames).T
    return Spectrogram(values, config, signal.sample_rate, len(signal))


def overlap_add(
    spectra: np.ndarray,
    first: int,
    config: StftConfig,
    out: np.ndarray,
    work: np.ndarray | None = None,
) -> None:
    """Add the windowed inverse transforms of frames first, first + 1, ... into `out`.

    `spectra` holds one half spectrum per row.  `out` is an overlap-add
    buffer in padded-signal coordinates, at least `padded_length` of the
    last frame long; frames are added in order.  The inverse transforms go
    into `work`, (len(spectra), K) floats, when given, and into a new array
    otherwise.
    """
    k, hop = config.frame_length, config.hop
    frames = np.fft.irfft(spectra, n=k, axis=1, out=work)
    frames *= config.synthesis_window()
    for m, frame in enumerate(frames, start=first):
        out[m * hop : m * hop + k] += frame


def strip_padding(
    buffer: np.ndarray, config: StftConfig, original_length: int, sample_rate: int
) -> Waveform:
    """Cut the original signal out of a full overlap-add buffer, as a copy.

    The buffer must hold every frame of an `original_length` signal,
    overlap-added with the synthesis window; no further scaling is needed.
    """
    length = padded_length(frame_count(original_length, config), config)
    if len(buffer) != length:
        raise ValueError(f"the overlap-add buffer must be {length} samples long")
    pad = config.frame_length - config.hop
    return Waveform(buffer[pad : pad + original_length], sample_rate)


def synthesize(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add resynthesis of every frame, truncated to the original length."""
    n_frames = frame_count(spec.original_length, spec.config)
    if spec.n_frames != n_frames:
        raise ValueError(f"synthesis needs all {n_frames} frames; got {spec.n_frames}")
    acc = np.zeros(padded_length(n_frames, spec.config))
    overlap_add(spec.values.T, 0, spec.config, acc)
    return strip_padding(acc, spec.config, spec.original_length, spec.sample_rate)


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) >= n, a fast real FFT length.

    It is SciPy's `next_fast_len(n, real=True)`, so convolutions padded to
    it keep the bits of SciPy's `fftconvolve`.
    """
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5  # 3^b 5^c
        while odd < best:
            # The smallest odd * 2^a that reaches n.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best
