"""Flat key-value configuration shared by every CLI subcommand.

Config files are plain text: one `key = value` per line, `#` comments,
blank lines ignored.  Unknown keys and duplicates are rejected so a typo
cannot silently fall back to a default; a removed key names its replacement.
The smoothing bands are three times in ms, rounded to quefrency bins at each
run's rate.  Loading checks what holds at every rate and length: the smoothing
factors, floor, 0 < envelope_ms < pitch_period_min_ms < pitch_period_max_ms
and decomp_filter_taps >= 1 (`evaluate` and `sweep` check that it fits what they score);
`separate` checks the bins at the file's rate, `sweep` at `synth_sample_rate`.
The STFT, solver, masking, smoothing and speed-of-sound defaults are the
field defaults of the parameter classes those settings build; the
evaluation filter taps default to `bsseval.FILTER_TAPS`.

Config text and the dict given to `PipelineConfig` share one coercion rule,
`_coerce`: a value takes the type of its key's default.  Integer keys take
Python or numpy integers and integer strings (not 1024.0), float keys finite
real numbers and numeric strings, `window` strings; bools are rejected.
Each rejection is a `ConfigError` naming the key; readers never cast.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

from .bsseval import FILTER_TAPS
from .cepsmooth import SmoothingParams
from .jointdiag import SolverParams
from .masking import MaskThreshold
from .roomsim import RoomSpec
from .stft import StftConfig


class ConfigError(ValueError):
    """Malformed config text, unknown key, or invalid value."""


def _field_defaults(cls) -> dict[str, object]:
    """Constructor defaults of a parameter dataclass, by field name."""
    return {f.name: f.default for f in fields(cls) if f.init}


# Config key -> StftConfig field; the solver and smoothing factor keys are
# their field names.  Smoothing takes its dft_length from the STFT key.
_STFT_FIELDS = {"dft_length": "frame_length", "overlap_factor": "overlap_fraction", "window": "window"}
_SOLVER_DEFAULTS = _field_defaults(SolverParams)
# Band time key in ms -> SmoothingParams bin; the default times are its bins at 10 kHz.
_BAND_KEYS = {"envelope_ms": "l_env", "pitch_period_min_ms": "l_low", "pitch_period_max_ms": "l_high"}
_SMOOTHING_DEFAULTS = _field_defaults(SmoothingParams)
_SMOOTHING_FACTORS = ("beta_env", "beta_pitch", "beta_peak", "mask_floor")
# Removed key -> what replaces it, for the unknown-key message.
_RENAMED = {
    **{name: f"{key} = 1000 * {name} / rate" for key, name in _BAND_KEYS.items()},
    "pitch_min_hz": "pitch_period_max_ms = 1000 / pitch_min_hz",
    "pitch_max_hz": "pitch_period_min_ms = 1000 / pitch_max_hz",
    "max_rir_ms": "rt60_ms, which with the room sets the RIR length",
}

# The settings a separation reads; the rest configure simulation and scoring.
_SEPARATION_DEFAULTS: dict[str, object] = {
    **{key: _field_defaults(StftConfig)[name] for key, name in _STFT_FIELDS.items()},
    **_SOLVER_DEFAULTS,
    "mask_threshold": _field_defaults(MaskThreshold)["value"],
    **{name: _SMOOTHING_DEFAULTS[name] for name in _SMOOTHING_FACTORS},
    **{key: _SMOOTHING_DEFAULTS[name] / 10.0 for key, name in _BAND_KEYS.items()},
}
SEPARATION_KEYS = tuple(_SEPARATION_DEFAULTS)

DEFAULTS: dict[str, object] = {
    **_SEPARATION_DEFAULTS,
    # Room geometry and placement
    "room_height": 3.4,
    "room_width": 3.8,
    "room_depth": 5.2,
    "mic_spacing": 0.2,
    "source_distance": 1.0,
    "source_angle_deg": 45.0,
    "speed_of_sound": _field_defaults(RoomSpec)["speed_of_sound"],
    "rt60_ms": 200.0,
    # Evaluation
    "decomp_filter_taps": FILTER_TAPS,
    # Synthetic sources
    "synth_duration_s": 5.0,
    "synth_sample_rate": 10000,
    "synth_mod_rate_1": 0.8,
    "synth_mod_rate_2": 1.7,
    # Reproducibility
    "seed": 0,
}


def _coerce(key: str, value: object) -> object:
    """`value` as the type of `key`'s default, by the rule in the module docstring."""
    if key not in DEFAULTS:
        renamed = f"; use {_RENAMED[key]}" if key in _RENAMED else ""
        raise ConfigError(f"unknown key {key!r}{renamed}")
    kind = type(DEFAULTS[key])
    try:
        if isinstance(value, bool) or (kind is str and not isinstance(value, str)):
            raise TypeError
        if kind is int and not isinstance(value, str):
            value = operator.index(value)
        if kind is float and not math.isfinite(float(value)):
            raise ValueError
        if key == "seed" and int(value) < 0:  # numpy's generators take no negative seed
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def parse_config_text(text: str) -> dict[str, object]:
    """Parse flat key-value text into a fully populated settings dict."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _coerce(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    merged = dict(DEFAULTS)
    merged.update(values)
    return merged


@dataclass(frozen=True)
class PipelineConfig:
    """Typed view over one settings dict; sub-configs validate eagerly."""

    settings: dict[str, object]
    stft: StftConfig = field(init=False)
    solver: SolverParams = field(init=False)
    mask_threshold: MaskThreshold = field(init=False)

    def __post_init__(self) -> None:
        settings = dict(DEFAULTS)
        settings.update((key, _coerce(key, value)) for key, value in self.settings.items())
        object.__setattr__(self, "settings", settings)
        try:
            stft = StftConfig(**{name: settings[key] for key, name in _STFT_FIELDS.items()})
        except ValueError as exc:  # name the config keys, not StftConfig's fields
            named = ", ".join(f"{key} = {settings[key]!r}" for key in _STFT_FIELDS)
            raise ConfigError(f"{named}: {exc}") from exc
        try:  # name the config key, not MaskThreshold's field
            threshold = MaskThreshold(settings["mask_threshold"])
        except ValueError as exc:
            raise ConfigError(f"mask_threshold = {settings['mask_threshold']!r}: {exc}") from exc
        try:
            solver = SolverParams(**{name: settings[name] for name in _SOLVER_DEFAULTS})
            if settings["filter_support"] >= settings["dft_length"]:
                raise ValueError("filter_support must be smaller than dft_length")
            taps = settings["decomp_filter_taps"]
            if taps < 1:
                raise ValueError(f"decomp_filter_taps = {taps} must be at least 1")
            # The factors and floor at SmoothingParams' own K and bins; the bins at each run's rate.
            SmoothingParams(**{name: settings[name] for name in _SMOOTHING_FACTORS})
            envelope, period_min, period_max = (settings[key] for key in _BAND_KEYS)
            if not 0 < envelope < period_min < period_max:
                raise ValueError("need 0 < envelope_ms < pitch_period_min_ms < pitch_period_max_ms")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "stft", stft)
        object.__setattr__(self, "solver", solver)
        object.__setattr__(self, "mask_threshold", threshold)

    def with_settings(self, **settings: object) -> "PipelineConfig":
        """This config with `settings` replaced, each checked as in a config file."""
        return PipelineConfig({**self.settings, **settings})

    @property
    def seed(self) -> int:
        return self.settings["seed"]

    @property
    def rt60_ms(self) -> float:
        return self.settings["rt60_ms"]

    @property
    def decomp_filter_taps(self) -> int:
        return self.settings["decomp_filter_taps"]

    def smoothing_params(self, sample_rate: int) -> SmoothingParams:
        """Smoothing at `sample_rate`, each band time rounded to bins there; bands that do
        not fit raise a `ConfigError` naming the rate, each bin with its key, and K/2."""
        s = self.settings
        # A product past the largest float stays inf, which no band admits.
        bins = {name: sample_rate * s[key] / 1000 for key, name in _BAND_KEYS.items()}
        bins = {name: q if math.isinf(q) else round(q) for name, q in bins.items()}
        try:
            factors = {name: s[name] for name in _SMOOTHING_FACTORS}
            return SmoothingParams(dft_length=s["dft_length"], **factors, **bins)
        except ValueError as exc:  # the load checked K and the factors: only the bands fail here
            named = ", ".join(f"{n} = {bins[n]} (from {k} {s[k]:g})" for k, n in _BAND_KEYS.items())
            raise ConfigError(
                f"smoothing bands at {sample_rate} Hz do not fit: {named}; they must satisfy "
                f"0 < l_env < l_low < l_high < K/2 = {s['dft_length'] // 2} (from dft_length)"
            ) from exc

    def room_spec(self, sample_rate: int, rt60_ms: float | None = None) -> RoomSpec:
        """Build the simulation geometry: mics at room center, sources at +/-angle."""
        s = self.settings
        dims = (s["room_height"], s["room_width"], s["room_depth"])
        center = tuple(d / 2.0 for d in dims)
        half_spacing = s["mic_spacing"] / 2.0
        mic1 = (center[0], center[1] - half_spacing, center[2])
        mic2 = (center[0], center[1] + half_spacing, center[2])
        angle = math.radians(s["source_angle_deg"])
        dist = s["source_distance"]
        src1 = (center[0], center[1] + dist * math.sin(angle), center[2] + dist * math.cos(angle))
        src2 = (center[0], center[1] - dist * math.sin(angle), center[2] + dist * math.cos(angle))
        return RoomSpec(
            dimensions=dims,
            source_positions=(src1, src2),
            mic_positions=(mic1, mic2),
            rt60_ms=self.rt60_ms if rt60_ms is None else float(rt60_ms),
            sample_rate=sample_rate,
            speed_of_sound=s["speed_of_sound"],
        )

    def flat(self, keys: tuple[str, ...] | None = None) -> dict[str, object]:
        """The resolved settings, or those of `keys`, for echoing into reports."""
        return {key: self.settings[key] for key in (self.settings if keys is None else keys)}


def default_config() -> PipelineConfig:
    return PipelineConfig({})


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return PipelineConfig(parse_config_text(text))
