"""Image-method room impulse responses for a 2x2 source/microphone layout.

Reverberation time is specified as RT60 and converted to one uniform wall
absorption coefficient via Sabine's formula; every image source then
contributes an attenuated, delayed tap.  All four source/mic pairs of a
bank share one image lattice and its per-octant reflection counts, and each
pair culls the images too far away to land inside the RIR before weighting
any of them.  Convolution runs on `scipy.fft` at the length and in the
order of operations of SciPy's `fftconvolve`, so the images keep its bits
while the package's import stays light.  The simulator exists to produce
controlled convolutive mixtures plus their per-source ground-truth images,
not to be a general acoustics package.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .signals import MultichannelRecording, Waveform

SABINE_COEFF = 0.161
# Longest RIR a RoomSpec may ask for: the default length grows with RT60.
MAX_RIR_SECONDS = 20


@dataclass(frozen=True)
class RoomSpec:
    """Box room geometry, 2 sources, 2 mics, and a target RT60.

    `max_rir_length` of None derives a length covering the direct path
    plus 1.5x the nominal decay; neither may exceed MAX_RIR_SECONDS.
    """

    dimensions: tuple[float, float, float]
    source_positions: tuple[tuple[float, float, float], tuple[float, float, float]]
    mic_positions: tuple[tuple[float, float, float], tuple[float, float, float]]
    rt60_ms: float
    sample_rate: int
    speed_of_sound: float = 343.0
    max_rir_length: int | None = None

    def __post_init__(self) -> None:
        dims = tuple(float(d) for d in self.dimensions)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError("room dimensions must be three positive lengths")
        for label, positions in (("source", self.source_positions), ("mic", self.mic_positions)):
            if len(positions) != 2:
                raise ValueError(f"exactly two {label} positions are required")
            for p in positions:
                if len(p) != 3 or any(not 0 < c < d for c, d in zip(p, dims)):
                    raise ValueError(f"{label} position {p} is not strictly inside the room")
        if not (np.isfinite(self.rt60_ms) and self.rt60_ms >= 0):
            raise ValueError("rt60_ms must be finite and non-negative")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.speed_of_sound <= 0:
            raise ValueError("speed_of_sound must be positive")
        if self.max_rir_length is not None and self.max_rir_length < 1:
            raise ValueError("max_rir_length must be positive when given")
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(
            self, "source_positions", tuple(tuple(float(c) for c in p) for p in self.source_positions)
        )
        object.__setattr__(
            self, "mic_positions", tuple(tuple(float(c) for c in p) for p in self.mic_positions)
        )
        cap = MAX_RIR_SECONDS * self.sample_rate
        if self.rir_length > cap:
            raise ValueError(
                f"rt60 {self.rt60_ms:g} ms needs a {self.rir_length}-sample RIR, over the "
                f"{MAX_RIR_SECONDS} s cap of {cap} samples at {self.sample_rate} Hz"
            )

    @property
    def rir_length(self) -> int:
        if self.max_rir_length is not None:
            return int(self.max_rir_length)
        diagonal = float(np.linalg.norm(self.dimensions))
        direct = int(np.ceil(self.sample_rate * diagonal / self.speed_of_sound)) + 1
        tail = int(np.ceil(self.sample_rate * 1.5 * self.rt60_ms / 1000.0))
        return max(256, direct + tail)


def rt60_to_absorption(dimensions: tuple[float, float, float], rt60_ms: float) -> float:
    """Uniform Sabine absorption for a box room: alpha = 0.161 V / (T A).

    rt60_ms = 0 means anechoic (alpha = 1).  A requested RT60 short enough
    to demand alpha > 1 is physically impossible for this geometry; the
    coefficient caps at 1 with a warning, which likewise means anechoic.
    """
    lx, ly, lz = dimensions
    if any(d <= 0 for d in (lx, ly, lz)):
        raise ValueError("room dimensions must be positive")
    if rt60_ms < 0:
        raise ValueError("rt60_ms must be non-negative")
    if rt60_ms == 0:
        return 1.0
    volume = lx * ly * lz
    area = 2.0 * (lx * ly + lx * lz + ly * lz)
    alpha = SABINE_COEFF * volume / ((rt60_ms / 1000.0) * area)
    if alpha > 1.0:
        warnings.warn(
            f"rt60 {rt60_ms} ms needs absorption {alpha:.3f} > 1 in this room; "
            "treating the room as anechoic",
            stacklevel=2,
        )
        alpha = 1.0
    return float(alpha)


def _image_responses(room: RoomSpec, pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    """Image-method RIRs for each (source, mic) pair, all on one image lattice.

    Every image at distance d with r wall reflections adds
    (1 - alpha)^(r/2) / (4 pi d) at tap round(d * fs / c).  Images farther
    than (L + 1) c / fs can only land past the last of L taps, so they are
    culled on d^2; the exact `taps < L` test decides the rest.  Taps are
    added in flattened octant order, so the sums keep their bits whatever
    the cull keeps.  An anechoic room (alpha = 1) needs no case of its own:
    0^0 = 1 keeps the direct image and every reflected image adds zero.
    """
    dims = np.asarray(room.dimensions, dtype=np.float64)
    fs = room.sample_rate
    c = room.speed_of_sound
    length = room.rir_length
    sources = np.asarray(room.source_positions, dtype=np.float64)
    mics = np.asarray(room.mic_positions, dtype=np.float64)
    points = [(sources[src], mics[mic]) for src, mic in pairs]
    if any(float(np.linalg.norm(src - mic)) == 0.0 for src, mic in points):
        raise ValueError("source and microphone positions coincide")

    alpha = rt60_to_absorption(room.dimensions, room.rt60_ms)
    beta = float(np.sqrt(1.0 - alpha))
    responses = [np.zeros(length) for _ in pairs]

    max_distance = (length - 1) * c / fs
    limits = [int(np.ceil(max_distance / (2.0 * d))) + 1 for d in dims]
    grids = np.meshgrid(
        *[np.arange(-lim, lim + 1) for lim in limits], indexing="ij", sparse=True
    )
    cull = ((length + 1) * c / fs) ** 2
    # beta ** r for every reflection count the lattice holds, |g - q| + |g| <= 2 lim + 1.
    attenuation = beta ** np.arange(sum(2 * lim + 1 for lim in limits) + 1)

    for q in itertools.product((0, 1), repeat=3):
        reflections = sum(np.abs(g - q_axis) + np.abs(g) for g, q_axis in zip(grids, q))
        for h, (src, mic) in zip(responses, points):
            image = [
                (1 - 2 * q[axis]) * src[axis] + 2.0 * grids[axis] * dims[axis]
                for axis in range(3)
            ]
            squared = (
                (image[0] - mic[0]) ** 2 + (image[1] - mic[1]) ** 2 + (image[2] - mic[2]) ** 2
            )
            near = squared <= cull
            dist = np.sqrt(squared[near])
            amplitude = attenuation[reflections[near]] / (4.0 * np.pi * dist)
            taps = np.round(dist * fs / c).astype(np.int64)
            keep = taps < length
            np.add.at(h, taps[keep], amplitude[keep])

    return responses


def generate_rir(room: RoomSpec, source_index: int, mic_index: int) -> Waveform:
    """Image-method RIR from one source to one mic (see `_image_responses`)."""
    (h,) = _image_responses(room, [(source_index, mic_index)])
    return Waveform(h, room.sample_rate)


@dataclass(frozen=True, eq=False)
class ImpulseResponseBank:
    """RIRs indexed [mic][source], all sharing one length and rate."""

    responses: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]]

    def __post_init__(self) -> None:
        flat = [rir for row in self.responses for rir in row]
        if len(flat) != 4:
            raise ValueError("bank must hold a 2x2 grid of responses")
        rate = flat[0].sample_rate
        length = len(flat[0])
        if any(r.sample_rate != rate or len(r) != length for r in flat):
            raise ValueError("all responses must share one rate and length")

    @classmethod
    def from_room(cls, room: RoomSpec) -> "ImpulseResponseBank":
        h = _image_responses(room, [(src, mic) for mic in (0, 1) for src in (0, 1)])
        rirs = [Waveform(x, room.sample_rate) for x in h]
        return cls(((rirs[0], rirs[1]), (rirs[2], rirs[3])))

    @property
    def sample_rate(self) -> int:
        return self.responses[0][0].sample_rate

    @property
    def rir_length(self) -> int:
        return len(self.responses[0][0])


def _padded_sources(sources: tuple[Waveform, Waveform], rate: int) -> list[np.ndarray]:
    if any(s.sample_rate != rate for s in sources):
        raise ValueError("sources and impulse responses must share one sample rate")
    n = max(len(s) for s in sources)
    if n == 0:
        raise ValueError("sources must contain samples")
    return [np.pad(s.samples, (0, n - len(s))) for s in sources]


def source_images(
    sources: tuple[Waveform, Waveform], bank: ImpulseResponseBank
) -> tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]]:
    """Per-source contribution h[mic][src] * s[src] at each mic, full length."""
    rate = bank.sample_rate
    padded = _padded_sources(sources, rate)
    full = len(padded[0]) + bank.rir_length - 1
    nfft = next_fast_len(full, real=True)
    spectra = [rfft(s, nfft) for s in padded]

    def image(mic: int, src: int) -> Waveform:
        # Bound to a name: `spectra[src] * rfft(...)` would let numpy reuse the
        # temporary in place, a different loop that moves the last bit.
        response = rfft(bank.responses[mic][src].samples, nfft)
        return Waveform(irfft(spectra[src] * response, nfft)[:full], rate)

    return tuple(tuple(image(mic, src) for src in (0, 1)) for mic in (0, 1))


def mix_images(
    images: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]]
) -> MultichannelRecording:
    """Two-channel mixture from per-mic source images: channel m sums images[m]."""
    return MultichannelRecording(
        tuple(Waveform(a.samples + b.samples, a.sample_rate) for a, b in images)
    )


def convolve_mix(
    sources: tuple[Waveform, Waveform], bank: ImpulseResponseBank
) -> MultichannelRecording:
    """Two-channel convolutive mixture: each channel sums its source images.

    The shorter source is zero-padded; outputs have length
    max(source length) + RIR length - 1.
    """
    return mix_images(source_images(sources, bank))
