"""Binary time-frequency masks estimated from a pair of separated spectrograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram


@dataclass(frozen=True)
class MaskThreshold:
    """Dominance ratio tau: unit (k, m) goes to output i iff |S_i| > tau |S_j|."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True, eq=False)
class SpectralMask:
    """Per-unit gains, float (n_bins, n_frames); kind 'binary' or 'smoothed'."""

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("mask values must be 2-D (bins x frames)")
        if not np.all(np.isfinite(values)):
            raise ValueError("mask values must be finite")
        if self.kind == "binary":
            if not np.all((values == 0.0) | (values == 1.0)):
                raise ValueError("binary mask values must be exactly 0 or 1")
        elif self.kind == "smoothed":
            if np.any(values <= 0.0) or np.any(values > 1.0):
                raise ValueError("smoothed mask values must lie in (0, 1]")
        else:
            raise ValueError(f"unknown mask kind {self.kind!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def estimate_binary_masks(
    s1: Spectrogram,
    s2: Spectrogram,
    threshold: MaskThreshold = MaskThreshold(),
) -> tuple[SpectralMask, SpectralMask]:
    """Assign each unit to the strictly dominant output.

    Strict inequalities mean a tie (including both magnitudes zero)
    activates neither mask.  For tau >= 1 the two masks can never both be
    active on one unit.
    """
    if s1.values.shape != s2.values.shape:
        raise ValueError("spectrograms must have equal shape")
    a1, a2 = np.abs(s1.values), np.abs(s2.values)
    m1, m2 = dominance_mask(a1, a2, threshold.value), dominance_mask(a2, a1, threshold.value)
    return SpectralMask(m1, "binary"), SpectralMask(m2, "binary")


def dominance_mask(a: np.ndarray, other: np.ndarray, tau: float) -> np.ndarray:
    """0/1 mask of the units where a > tau * other: one output's binary mask."""
    return (a > tau * other).astype(np.float64)


def apply_mask(mask: SpectralMask, spec: Spectrogram) -> Spectrogram:
    """Elementwise product; geometry and provenance carry over."""
    if mask.values.shape != spec.values.shape:
        raise ValueError("mask and spectrogram shapes differ")
    return spec.with_values(mask.values * spec.values)


class IsolatedUnitCount:
    """Active and isolated units of a mask fed in blocks of consecutive frames.

    A unit is active when its value exceeds 0.5, and isolated when it is
    active with no active 4-neighbor.  A frame is counted once the next
    frame has arrived, so the two latest frames carry over from one block
    to the next; `fraction` counts the last frame against silence.
    """

    def __init__(self) -> None:
        self.active = 0
        self.isolated = 0
        # The last frame seen, not yet counted, after the frame before it;
        # before any block, a silent frame ahead of frame 0 alone.
        self._edge: np.ndarray | None = None

    def add(self, mask: np.ndarray) -> None:
        """Count every frame of this frames x bins block but its last, which waits."""
        block = mask > 0.5
        if self._edge is None:
            self._edge = np.zeros((1, block.shape[1]), dtype=bool)
        elif self._edge.shape[1] != block.shape[1]:
            raise ValueError("mask blocks must share one bin count")
        self._count(np.concatenate([self._edge, block]))

    def fraction(self) -> float:
        """Isolated share of the active units; 0.0 for an empty mask."""
        if self._edge is not None:
            self._count(np.pad(self._edge, ((0, 1), (0, 0))))
            self._edge = None
        return self.isolated / self.active if self.active else 0.0

    def _count(self, frames: np.ndarray) -> None:
        """Count frames 1..-2 of `frames`, whose neighbors are all present."""
        middle = frames[1:-1]
        isolated = middle & ~frames[:-2] & ~frames[2:]
        isolated[:, 1:] &= ~middle[:, :-1]
        isolated[:, :-1] &= ~middle[:, 1:]
        self.active += int(np.count_nonzero(middle))
        self.isolated += int(np.count_nonzero(isolated))
        self._edge = frames[-2:]


def isolated_unit_fraction(mask: SpectralMask) -> float:
    """Fraction of active units with no active 4-neighbor.

    Values are binarized at 0.5 first so the measure applies to smoothed
    masks too.  Isolated units are the visual signature of musical noise;
    smoothing should push this number down.  Returns 0.0 for an empty mask.
    The whole-mask case of `IsolatedUnitCount`.
    """
    count = IsolatedUnitCount()
    count.add(mask.values.T)
    return count.fraction()
