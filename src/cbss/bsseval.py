"""Projection-based separation metrics for two-source estimates.

An estimate is split into target, interference, and artifact components by
least-squares projection onto the spans of delayed references (a bank of L
allowed deformation taps per reference).  SIR is the energy ratio between
the first two components in dB; SDR and SAR fall out of the same split.

The dB convention throughout is 10*log10 of an energy ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import LinAlgError, cho_factor, cho_solve, toeplitz

from .signals import Waveform

SIR_CAP_DB = 100.0
ENERGY_RATIO_FLOOR = 1e-12
DIAGONAL_LOADING = 1e-9
# Default L: deformation taps allowed per reference.
FILTER_TAPS = 512


@dataclass(frozen=True, eq=False)
class Decomposition:
    """estimate = target + interference + artifact, all on a padded domain."""

    target: Waveform
    interference: Waveform
    artifact: Waveform
    filter_taps: int
    regularized: bool = False

    def __post_init__(self) -> None:
        if not len(self.target) == len(self.interference) == len(self.artifact):
            raise ValueError("decomposition components must share one length")
        if self.filter_taps < 1:
            raise ValueError("filter_taps must be positive")


@dataclass(frozen=True)
class SegmentAnnotation:
    """Two disjoint [start, end) sample intervals, one per speaker."""

    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self) -> None:
        for start, end in (self.first, self.second):
            if start < 0 or end <= start:
                raise ValueError("segments must satisfy 0 <= start < end")
        a, b = sorted((self.first, self.second))
        if a[1] > b[0]:
            raise ValueError("segments must not overlap")
        object.__setattr__(self, "first", (int(self.first[0]), int(self.first[1])))
        object.__setattr__(self, "second", (int(self.second[0]), int(self.second[1])))


def _factor(gram: np.ndarray) -> tuple[tuple[np.ndarray, bool], bool]:
    """Cholesky factor of a Gram matrix, diagonally loaded if it is not positive definite."""
    try:
        return cho_factor(gram), False
    except LinAlgError:
        n = gram.shape[0]
        loading = DIAGONAL_LOADING * max(1.0, float(np.trace(gram)) / n)
        return cho_factor(gram + loading * np.eye(n)), True


class ReferenceProjector:
    """Projections onto the delayed copies of one reference pair, factored once.

    The 2L x 2L Gram of the L delayed copies of both references depends on
    the references alone, so it is built and Cholesky-factored here, with
    the references' spectra, and every `decompose` call needs one FFT of
    the estimate, triangular solves and a few FFT products.  The joint
    projection does not depend on which reference is the target, so
    `decompose_all` computes it once for both targets; the
    target-only Gram of reference 0 is the leading block of the joint one,
    so its factor is the leading block of the joint factor, and reference
    1's block is factored on its own.  A Gram that is not positive definite
    (degenerate references) is diagonally loaded, and every decomposition
    from it is flagged `regularized`.
    """

    def __init__(
        self, references: tuple[Waveform, Waveform], filter_taps: int = FILTER_TAPS
    ) -> None:
        ref_a, ref_b = references
        n = len(ref_a)
        if len(ref_b) != n:
            raise ValueError("references must share one length")
        if ref_a.sample_rate != ref_b.sample_rate:
            raise ValueError("references must share one sample rate")
        taps = int(filter_taps)
        if not 1 <= taps <= n:
            raise ValueError("filter_taps must lie in [1, signal length]")
        self.length = n
        self.sample_rate = ref_a.sample_rate
        self.filter_taps = taps
        # Correlations up to lag L - 1 and convolutions with L taps, both
        # without wrap-around, fit in n + L - 1 points.
        self._nfft = next_fast_len(n + taps - 1, real=True)
        self._spectra = rfft(np.stack([ref_a.samples, ref_b.samples]), self._nfft)

        # Block (a, b) of the Gram: <delay_i ref_a, delay_j ref_b> = c_ab[j - i],
        # with c_ab[t] = sum_m ref_a[m + t] ref_b[m] (negative t wraps around).
        a, b = self._spectra
        corr = irfft(np.stack([a * a.conj(), b * b.conj(), a * b.conj()]), self._nfft)
        lags = np.arange(taps)
        gram_aa = toeplitz(corr[0, :taps])
        gram_bb = toeplitz(corr[1, :taps])
        gram_ab = toeplitz(corr[2, -lags], corr[2, :taps])
        joint, reg_joint = _factor(np.block([[gram_aa, gram_ab], [gram_ab.T, gram_bb]]))
        factor_b, reg_b = _factor(gram_bb)
        self._joint_factor = joint
        self._target_factors = ((joint[0][:taps, :taps], joint[1]), factor_b)
        self._regularized = (reg_joint, reg_joint or reg_b)

    def decompose(self, estimate: Waveform, target: int) -> Decomposition:
        """Split an estimate with references[target] as the target, the other as interferer.

        The target component is the projection onto the target's L delayed
        copies alone; interference is what the joint two-reference
        projection adds on top; the artifact is the remainder.  Components
        live on a zero-extended domain of length N + L - 1.
        """
        if target not in (0, 1):
            raise ValueError(f"target must be 0 or 1, got {target!r}")
        target = int(target)
        (decomposition,) = self._decompose(estimate, slice(target, target + 1))
        return decomposition

    def decompose_all(self, estimate: Waveform) -> tuple[Decomposition, Decomposition]:
        """`decompose(estimate, t)` for t = 0 and 1, indexed by target.

        The joint projection and the artifact do not depend on the target,
        so they are computed once and shared by both decompositions.
        """
        return self._decompose(estimate, slice(0, 2))

    def _decompose(self, estimate: Waveform, targets: slice) -> tuple[Decomposition, ...]:
        """Decompositions for the targets `targets` selects from (0, 1), in order."""
        if len(estimate) != self.length:
            raise ValueError("estimate and references must share one length")
        if estimate.sample_rate != self.sample_rate:
            raise ValueError("estimate and references must share one sample rate")
        taps = self.filter_taps
        est = estimate.samples

        # rhs[r, i] = <estimate, delay_i ref_r> = sum_m est[m + i] ref_r[m]
        rhs = irfft(rfft(est, self._nfft) * self._spectra.conj(), self._nfft)[:, :taps]
        coef_joint = cho_solve(self._joint_factor, rhs.ravel()).reshape(2, taps)
        indices = range(2)[targets]
        coef_targets = [cho_solve(self._target_factors[t], rhs[t]) for t in indices]

        coef_spectra = rfft(np.vstack([coef_joint, *coef_targets]), self._nfft)
        padded = self.length + taps - 1
        joint = irfft((coef_spectra[:2] * self._spectra).sum(axis=0), self._nfft)[:padded]
        # A slice keeps the spectra a view; numpy's product with a realigned
        # copy can round differently in the last bit.
        target_parts = irfft(coef_spectra[2:] * self._spectra[targets], self._nfft)[:, :padded]
        rate = self.sample_rate
        artifact = Waveform(np.pad(est, (0, taps - 1)) - joint, rate)
        return tuple(
            Decomposition(
                target=Waveform(part, rate),
                interference=Waveform(joint - part, rate),
                artifact=artifact,
                filter_taps=taps,
                regularized=self._regularized[t],
            )
            for t, part in zip(indices, target_parts)
        )


def project_decompose(
    estimate: Waveform,
    references: tuple[Waveform, Waveform],
    filter_taps: int = FILTER_TAPS,
) -> Decomposition:
    """Least-squares split of an estimate against (target, interferer) references.

    references[0] is the target.  One-off form of
    `ReferenceProjector(references, filter_taps).decompose(estimate, 0)`;
    build the projector directly to score several estimates against one
    reference pair.
    """
    return ReferenceProjector(references, filter_taps).decompose(estimate, 0)


def _ratio_db(numerator: float, denominator: float) -> float:
    if numerator <= 0.0:
        return -SIR_CAP_DB
    if denominator < ENERGY_RATIO_FLOOR * numerator:
        return SIR_CAP_DB
    return min(SIR_CAP_DB, max(-SIR_CAP_DB, 10.0 * np.log10(numerator / denominator)))


def sir_db(decomposition: Decomposition) -> float:
    """Signal-to-interference ratio in dB, capped at +/-100."""
    target = float(np.sum(decomposition.target.samples**2))
    interference = float(np.sum(decomposition.interference.samples**2))
    return _ratio_db(target, interference)


def sdr_db(decomposition: Decomposition) -> float:
    """Signal-to-distortion ratio: target vs interference + artifact."""
    target = float(np.sum(decomposition.target.samples**2))
    error = decomposition.interference.samples + decomposition.artifact.samples
    return _ratio_db(target, float(np.sum(error**2)))


def sar_db(decomposition: Decomposition) -> float:
    """Signal-to-artifact ratio: projected part vs the projection residual."""
    kept = decomposition.target.samples + decomposition.interference.samples
    artifact = float(np.sum(decomposition.artifact.samples**2))
    return _ratio_db(float(np.sum(kept**2)), artifact)


def segment_sir(
    outputs: tuple[Waveform, Waveform], segments: SegmentAnnotation
) -> tuple[float, float]:
    """Reference-free SIR from single-speaker segments.

    Output 1 should carry speaker 1, so its mean power over the first
    segment is signal and over the second segment is leakage; output 2
    mirrors that.  Ratios are capped at +/-100 dB.
    """
    w1, w2 = outputs
    if len(w1) != len(w2):
        raise ValueError("outputs must share one length")
    for start, end in (segments.first, segments.second):
        if end > len(w1):
            raise ValueError("segment extends past the signal end")

    def mean_power(w: Waveform, bounds: tuple[int, int]) -> float:
        start, end = bounds
        return float(np.mean(w.samples[start:end] ** 2))

    sir1 = _ratio_db(mean_power(w1, segments.first), mean_power(w1, segments.second))
    sir2 = _ratio_db(mean_power(w2, segments.second), mean_power(w2, segments.first))
    return sir1, sir2
