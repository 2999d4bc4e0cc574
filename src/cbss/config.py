"""Flat key-value configuration shared by every CLI subcommand.

Config files are plain text: one `key = value` per line, `#` comments,
blank lines ignored.  Unknown keys and duplicates are rejected so a typo
cannot silently fall back to a default.  `pitch_min_hz`/`pitch_max_hz` of
0 mean "use the literal quefrency bins l_low/l_high"; positive values
override those bins per sample rate at run time.  The STFT, solver,
masking, smoothing and speed-of-sound defaults are the field defaults of
the parameter classes those settings build; the evaluation filter taps
default to `bsseval.FILTER_TAPS`.
"""

from __future__ import annotations

import math
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


# Config key -> StftConfig field; the solver and smoothing keys are their
# field names.  Smoothing takes its dft_length from the STFT key.
_STFT_FIELDS = {"dft_length": "frame_length", "overlap_factor": "overlap_fraction", "window": "window"}
_SOLVER_DEFAULTS = _field_defaults(SolverParams)
_SMOOTHING_DEFAULTS = _field_defaults(SmoothingParams)

DEFAULTS: dict[str, object] = {
    **{key: _field_defaults(StftConfig)[name] for key, name in _STFT_FIELDS.items()},
    **_SOLVER_DEFAULTS,
    "mask_threshold": _field_defaults(MaskThreshold)["value"],
    **{key: value for key, value in _SMOOTHING_DEFAULTS.items() if key != "dft_length"},
    # Pitch search range in Hz; 0 keeps l_low/l_high
    "pitch_min_hz": 0.0,
    "pitch_max_hz": 0.0,
    # Room geometry and placement
    "room_height": 3.4,
    "room_width": 3.8,
    "room_depth": 5.2,
    "mic_spacing": 0.2,
    "source_distance": 1.0,
    "source_angle_deg": 45.0,
    "speed_of_sound": _field_defaults(RoomSpec)["speed_of_sound"],
    "max_rir_ms": 0.0,
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


def _coerce(key: str, raw: str) -> object:
    default = DEFAULTS[key]
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


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
        raw = raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
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
        for key, value in self.settings.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown key {key!r}")
            settings[key] = value
        object.__setattr__(self, "settings", settings)
        try:
            stft = StftConfig(**{name: settings[key] for key, name in _STFT_FIELDS.items()})
            solver = SolverParams(**{name: settings[name] for name in _SOLVER_DEFAULTS})
            threshold = MaskThreshold(settings["mask_threshold"])
            if settings["filter_support"] >= settings["dft_length"]:
                raise ValueError("filter_support must be smaller than dft_length")
            self.smoothing_params(settings["synth_sample_rate"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "stft", stft)
        object.__setattr__(self, "solver", solver)
        object.__setattr__(self, "mask_threshold", threshold)

    @property
    def seed(self) -> int:
        return int(self.settings["seed"])

    @property
    def rt60_ms(self) -> float:
        return float(self.settings["rt60_ms"])

    @property
    def decomp_filter_taps(self) -> int:
        return int(self.settings["decomp_filter_taps"])

    def smoothing_params(self, sample_rate: int) -> SmoothingParams:
        """Resolve smoothing knobs; a positive Hz pitch range overrides bins."""
        s = self.settings
        kwargs = {name: type(default)(s[name]) for name, default in _SMOOTHING_DEFAULTS.items()}
        f_min, f_max = float(s["pitch_min_hz"]), float(s["pitch_max_hz"])
        if f_min > 0 or f_max > 0:
            del kwargs["l_low"], kwargs["l_high"]
            try:
                return SmoothingParams.from_pitch_range_hz(f_min, f_max, sample_rate, **kwargs)
            except ValueError as exc:
                raise ConfigError(f"pitch_min_hz/pitch_max_hz: {exc}") from exc
        return SmoothingParams(**kwargs)

    def room_spec(self, sample_rate: int, rt60_ms: float | None = None) -> RoomSpec:
        """Build the simulation geometry: mics at room center, sources at +/-angle."""
        s = self.settings
        dims = (float(s["room_height"]), float(s["room_width"]), float(s["room_depth"]))
        center = tuple(d / 2.0 for d in dims)
        half_spacing = float(s["mic_spacing"]) / 2.0
        mic1 = (center[0], center[1] - half_spacing, center[2])
        mic2 = (center[0], center[1] + half_spacing, center[2])
        angle = math.radians(float(s["source_angle_deg"]))
        dist = float(s["source_distance"])
        src1 = (center[0], center[1] + dist * math.sin(angle), center[2] + dist * math.cos(angle))
        src2 = (center[0], center[1] - dist * math.sin(angle), center[2] + dist * math.cos(angle))
        max_rir_ms = float(s["max_rir_ms"])
        max_rir = int(round(max_rir_ms * sample_rate / 1000.0)) if max_rir_ms > 0 else None
        return RoomSpec(
            dimensions=dims,
            source_positions=(src1, src2),
            mic_positions=(mic1, mic2),
            rt60_ms=self.rt60_ms if rt60_ms is None else float(rt60_ms),
            sample_rate=sample_rate,
            speed_of_sound=float(s["speed_of_sound"]),
            max_rir_length=max_rir,
        )

    def flat(self) -> dict[str, object]:
        """The resolved settings, for echoing into reports."""
        return dict(self.settings)


def default_config() -> PipelineConfig:
    return PipelineConfig({})


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return PipelineConfig(parse_config_text(text))
