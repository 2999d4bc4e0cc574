"""Cepstral-domain temporal smoothing of spectral masks.

Binary masks win on interference suppression but leave randomly isolated
units that resynthesize as musical noise.  Smoothing the mask over time
fixes that, but doing it directly per frequency bin also blurs exactly the
structure worth keeping: the spectral envelope and the pitch harmonics.
Working in the cepstrum separates those concerns by quefrency:

  * low quefrencies [0, l_env] carry the envelope,
  * one bin l_pitch (found from the separated signal itself) carries the
    harmonic comb,
  * everything else is presumed mask noise.

Each region gets its own first-order recursive smoothing factor, usually
none for the envelope, mild for the pitch bin, and strong elsewhere.

`smooth_frames` smooths a plain frames x bins mask, all frames of a signal
or one block of them, and returns the last smoothed cepstrum for the next
block's recursion to continue from; `smooth_mask` is its whole-mask form
on a validated `SpectralMask` and `Spectrogram`.

A floored log half-spectrum (bins 0..K/2) stands for an even length-K
spectrum, so its real cepstrum is even too and quefrencies 0..K/2 hold all
of it.  Between those halves the length-K DFT is a type-I DCT (scaled by
1/K going to the cepstrum), the real part of the `rfft` of the even
extension x[0..K/2], x[K/2-1..1].  One DCT each gives the cepstra of the
mask and of the separated magnitudes, one `argmax` picks every frame's
pitch quefrency, the recursion across frames is the only loop, and one DCT
takes the smoothed cepstra back to a log mask, which is exponentiated and
clamped to [floor, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masking import SpectralMask
from .stft import Spectrogram


@dataclass(frozen=True)
class SmoothingParams:
    """Per-quefrency smoothing factors and band edges for one DFT length."""

    dft_length: int = 2048
    beta_env: float = 0.0
    beta_pitch: float = 0.4
    beta_peak: float = 0.9
    l_env: int = 8
    l_low: int = 16
    l_high: int = 120
    mask_floor: float = 1e-3

    def __post_init__(self) -> None:
        k = self.dft_length
        if k <= 0 or k % 2 != 0:
            raise ValueError("dft_length must be a positive even number")
        for name in ("beta_env", "beta_pitch", "beta_peak"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.mask_floor < 1.0:
            raise ValueError("mask_floor must lie in (0, 1)")
        if not 0 < self.l_env < self.l_low < self.l_high < k // 2:
            raise ValueError(
                "quefrency bands must satisfy 0 < l_env < l_low < l_high < K/2"
            )

    @classmethod
    def from_pitch_range_hz(
        cls, f_min: float, f_max: float, sample_rate: int, **kwargs
    ) -> "SmoothingParams":
        """Convert a pitch frequency range into quefrency search bounds."""
        if not 0 < f_min < f_max:
            raise ValueError("need 0 < f_min < f_max")
        l_low = int(round(sample_rate / f_max))
        l_high = int(round(sample_rate / f_min))
        return cls(l_low=l_low, l_high=l_high, **kwargs)


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized type-I DCT on the last axis, bit-equal to SciPy's `dct(type=1)`."""
    # Copied out of the complex spectrum so that, as with SciPy's output, the
    # frame recursion and the in-place `exp` run on contiguous rows.
    return np.fft.rfft(np.concatenate((x, x[..., -2:0:-1]), axis=-1)).real.copy()


def _cepstra(half: np.ndarray, floor: float) -> np.ndarray:
    """Real cepstra (quefrencies 0..K/2) of floored half-spectra on the last axis."""
    cep = _dct1(np.log(np.maximum(half, floor)))
    cep /= 2 * (half.shape[-1] - 1)
    return cep


def magnitude_cepstrum(magnitudes: np.ndarray, floor: float) -> np.ndarray:
    """Real cepstrum (quefrencies 0..K/2) of non-negative magnitudes at bins 0..K/2."""
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    if magnitudes.ndim != 1 or magnitudes.shape[0] < 2:
        raise ValueError("magnitudes must be 1-D with at least two bins")
    if np.any(magnitudes < 0.0):
        raise ValueError("magnitudes must be non-negative")
    return _cepstra(magnitudes, floor)


def estimate_pitch_quefrency(
    cepstrum: np.ndarray, l_low: int, l_high: int
) -> int | np.ndarray:
    """Arg-max over [l_low, l_high] of cepstra (quefrencies 0..K/2) on the last axis.

    Ties pick the smallest l.  A single cepstrum gives one index, a stack
    of them one index per cepstrum.
    """
    if not 0 <= l_low <= l_high < np.shape(cepstrum)[-1] - 1:
        raise ValueError("need 0 <= l_low <= l_high < K/2")
    return l_low + np.argmax(cepstrum[..., l_low : l_high + 1], axis=-1)


def smooth_frames(
    mask: np.ndarray,
    magnitudes: np.ndarray,
    params: SmoothingParams,
    previous: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Smooth a frames x bins mask across frames in the cepstral domain.

    The pitch quefrency is re-estimated every frame from `magnitudes`, the
    separated signal the mask belongs to, so the pitch-adaptive band tracks
    that speaker.  The first frame continues the recursion from the
    `previous` smoothed cepstrum, or without one passes through (floored and
    clamped) unchanged.  The last frame's smoothed cepstrum is returned with
    the mask, so feeding a mask block by block gives the whole-mask result.
    """
    floor = params.mask_floor
    n_frames = mask.shape[0]
    # Frames on the first axis, quefrencies 0..K/2 on the second.
    l_pitch = estimate_pitch_quefrency(_cepstra(magnitudes, floor), params.l_low, params.l_high)
    cep = _cepstra(mask, floor)
    betas = np.full(cep.shape, params.beta_peak)
    betas[np.arange(n_frames), l_pitch] = params.beta_pitch
    betas[:, : params.l_env + 1] = params.beta_env

    for m in range(n_frames):
        if previous is not None:
            cep[m] = betas[m] * previous + (1.0 - betas[m]) * cep[m]
        previous = cep[m]

    mask_values = _dct1(cep)
    np.exp(mask_values, out=mask_values)
    return np.clip(mask_values, floor, 1.0, out=mask_values), previous


def smooth_mask(
    mask: SpectralMask, separated: Spectrogram, params: SmoothingParams
) -> SpectralMask:
    """Smooth a whole mask with `smooth_frames`, its pitch tracked on `separated`."""
    if mask.values.shape != separated.values.shape:
        raise ValueError("mask and spectrogram shapes differ")
    if separated.config.frame_length != params.dft_length:
        raise ValueError("params.dft_length must match the spectrogram frame length")
    smoothed, _ = smooth_frames(mask.values.T, np.abs(separated.values.T), params)
    return SpectralMask(smoothed.T, "smoothed")
