"""Image-method room impulse responses for a 2x2 source/microphone layout.

Reverberation time is specified as RT60 and converted to one uniform wall
absorption coefficient via Sabine's formula; every image source then
contributes an attenuated, delayed tap.  The simulator exists to produce
controlled convolutive mixtures plus their per-source ground-truth images,
not to be a general acoustics package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .signals import MultichannelRecording, Waveform

SABINE_COEFF = 0.161


@dataclass(frozen=True)
class RoomSpec:
    """Box room geometry, 2 sources, 2 mics, and a target RT60.

    `max_rir_length` of None derives a length covering the direct path
    plus 1.5x the nominal decay.
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
        if self.rt60_ms < 0:
            raise ValueError("rt60_ms must be non-negative")
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


def generate_rir(room: RoomSpec, source_index: int, mic_index: int) -> Waveform:
    """Image-method RIR from one source to one mic.

    Every image at distance d with r wall reflections adds
    (1 - alpha)^(r/2) / (4 pi d) at tap round(d * fs / c).  Images landing
    beyond the configured length are dropped.
    """
    src = np.asarray(room.source_positions[source_index], dtype=np.float64)
    mic = np.asarray(room.mic_positions[mic_index], dtype=np.float64)
    dims = np.asarray(room.dimensions, dtype=np.float64)
    fs = room.sample_rate
    c = room.speed_of_sound

    direct = float(np.linalg.norm(src - mic))
    if direct == 0.0:
        raise ValueError("source and microphone positions coincide")

    alpha = rt60_to_absorption(room.dimensions, room.rt60_ms)
    beta = float(np.sqrt(1.0 - alpha))
    length = room.rir_length
    h = np.zeros(length)

    if beta == 0.0:
        # Anechoic: only the direct path survives.
        tap = int(np.round(direct * fs / c))
        if tap < length:
            h[tap] = 1.0 / (4.0 * np.pi * direct)
        return Waveform(h, fs)

    max_distance = (length - 1) * c / fs
    limits = [int(np.ceil(max_distance / (2.0 * d))) + 1 for d in dims]
    grids = np.meshgrid(
        *[np.arange(-lim, lim + 1) for lim in limits], indexing="ij", sparse=True
    )

    for qx in (0, 1):
        for qy in (0, 1):
            for qz in (0, 1):
                q = (qx, qy, qz)
                image = [
                    (1 - 2 * q[axis]) * src[axis] + 2.0 * grids[axis] * dims[axis]
                    for axis in range(3)
                ]
                dist = np.sqrt(
                    (image[0] - mic[0]) ** 2
                    + (image[1] - mic[1]) ** 2
                    + (image[2] - mic[2]) ** 2
                )
                reflections = (
                    np.abs(grids[0] - q[0])
                    + np.abs(grids[0])
                    + np.abs(grids[1] - q[1])
                    + np.abs(grids[1])
                    + np.abs(grids[2] - q[2])
                    + np.abs(grids[2])
                )
                amplitude = beta ** reflections / (4.0 * np.pi * dist)
                taps = np.round(dist * fs / c).astype(np.int64)
                keep = taps < length
                np.add.at(h, taps[keep], amplitude[keep])

    return Waveform(h, fs)


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
        return cls(
            tuple(
                tuple(generate_rir(room, src, mic) for src in (0, 1))
                for mic in (0, 1)
            )
        )

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
    return tuple(
        tuple(
            Waveform(fftconvolve(padded[src], bank.responses[mic][src].samples), rate)
            for src in (0, 1)
        )
        for mic in (0, 1)
    )


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
