import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbss.cepsmooth import SmoothingParams
from cbss.config import (
    DEFAULTS,
    ConfigError,
    PipelineConfig,
    default_config,
    load_config,
    parse_config_text,
)
from cbss.jointdiag import SolverParams
from cbss.masking import MaskThreshold
from cbss.stft import StftConfig


def test_defaults_mirror_reference_setup():
    cfg = default_config()
    s = cfg.settings
    assert s["dft_length"] == 2048
    assert s["overlap_factor"] == 0.75
    assert s["filter_support"] == 512
    assert s["block_count"] == 8
    assert s["mask_threshold"] == 1.0
    assert s["beta_env"] == 0.0
    assert s["beta_pitch"] == 0.4
    assert s["beta_peak"] == 0.9
    assert s["l_env"] == 8
    assert s["l_low"] == 16
    assert s["l_high"] == 120
    assert (s["room_height"], s["room_width"], s["room_depth"]) == (3.4, 3.8, 5.2)


def test_derived_defaults_equal_dataclass_defaults():
    def defaults(cls):
        return {f.name: f.default for f in fields(cls) if f.init}

    stft = defaults(StftConfig)
    expected = {
        "dft_length": stft["frame_length"],
        "overlap_factor": stft["overlap_fraction"],
        "window": stft["window"],
        "mask_threshold": defaults(MaskThreshold)["value"],
        **defaults(SolverParams),
        **defaults(SmoothingParams),
    }
    assert len(expected) == 15
    for key, value in expected.items():
        assert DEFAULTS[key] == value, key
        assert type(DEFAULTS[key]) is type(value), key


def test_parse_config_text_happy_path():
    text = """
    # comment line
    dft_length = 1024
    overlap_factor = 0.5

    beta_peak = 0.8
    """
    settings = parse_config_text(text)
    assert settings["dft_length"] == 1024
    assert settings["overlap_factor"] == 0.5
    assert settings["beta_peak"] == 0.8
    # untouched keys fall back to defaults
    assert settings["block_count"] == DEFAULTS["block_count"]


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key = 3")
    with pytest.raises(ConfigError):
        parse_config_text("dft_length = 1024\ndft_length = 512")
    with pytest.raises(ConfigError):
        parse_config_text("dft_length")
    with pytest.raises(ConfigError):
        parse_config_text("dft_length = not_a_number")
    with pytest.raises(ConfigError, match="unknown key 'step_size'"):
        parse_config_text("step_size = 0.5")


def test_pipeline_config_validates_combinations():
    PipelineConfig({"dft_length": 1024, "filter_support": 256})
    with pytest.raises(ConfigError):
        PipelineConfig({"dft_length": 256, "filter_support": 512})
    with pytest.raises(ConfigError):
        PipelineConfig({"overlap_factor": 0.9})  # fractional hop
    with pytest.raises(ConfigError):
        PipelineConfig({"beta_peak": 2.0})
    with pytest.raises(ConfigError):
        PipelineConfig({"pitch_min_hz": 500.0, "pitch_max_hz": 50.0})
    with pytest.raises(ConfigError):
        PipelineConfig({"pitch_max_hz": 500.0})  # f_min left at 0
    # Bins 9 <= round(rate / 500) and round(rate / 5) <= 1023 fit from 4251 to 5117 Hz: no load error
    with pytest.raises(ConfigError, match="10000 Hz"):
        PipelineConfig({"pitch_min_hz": 5.0, "pitch_max_hz": 500.0}).smoothing_params(10000)
    with pytest.raises(ConfigError, match="pitch_min_hz"):
        PipelineConfig({"pitch_min_hz": 1e-310, "pitch_max_hz": 500.0})  # l_high overflows
    with pytest.raises(ConfigError):
        PipelineConfig({"nonsense": 1})


def test_smoothing_params_pitch_range_override():
    cfg = PipelineConfig({"pitch_min_hz": 50.0, "pitch_max_hz": 500.0})
    p = cfg.smoothing_params(16000)
    assert p.l_low == 32
    assert p.l_high == 320

    literal = default_config().smoothing_params(16000)
    assert literal.l_low == 16
    assert literal.l_high == 120


def test_room_spec_geometry_from_settings():
    cfg = default_config()
    room = cfg.room_spec(10000, 200.0)
    assert room.dimensions == (3.4, 3.8, 5.2)
    assert room.rt60_ms == 200.0
    assert room.sample_rate == 10000
    m1, m2 = room.mic_positions
    spacing = sum((a - b) ** 2 for a, b in zip(m1, m2)) ** 0.5
    assert spacing == pytest.approx(cfg.settings["mic_spacing"])
    for p in room.source_positions:
        assert all(0 < c < d for c, d in zip(p, room.dimensions))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dft_length = 512\nfilter_support = 128\nseed = 9\n")
    cfg = load_config(path)
    assert cfg.settings["dft_length"] == 512
    assert cfg.seed == 9
    assert cfg.stft.frame_length == 512


def test_flat_returns_plain_settings():
    cfg = PipelineConfig({"seed": 5})
    flat = cfg.flat()
    assert flat["seed"] == 5
    assert set(flat) == set(DEFAULTS)


def test_dict_values_are_coerced_like_config_text():
    assert PipelineConfig({"block_count": "8"}).solver.block_count == 8
    assert type(PipelineConfig({"seed": np.int64(3)}).seed) is int
    assert PipelineConfig({"rt60_ms": 150}).rt60_ms == 150.0
    rejected = [
        {"max_iters": 10.7},
        {"seed": 2.5},
        {"rt60_ms": "abc"},
        {"mask_threshold": True},
        {"dft_length": 1024.0},
        {"window": 1},
        {"rt60_ms": 10**400},
        {"tolerance": math.nan},
        {"synth_duration_s": np.float64(np.nan)},
        {"speed_of_sound": math.inf},
        {"room_height": "-inf"},
        {"mask_threshold": "nan"},
        {"seed": -1},
        {"seed": np.int64(-3)},
        {"seed": "-3"},
    ]
    for bad in rejected:
        (key,) = bad
        with pytest.raises(ConfigError, match=f"'{key}'"):
            PipelineConfig(bad)
    with pytest.raises(ConfigError, match="line 2: bad value for 'seed'"):
        parse_config_text("dft_length = 512\nseed = 1.5")
    for line in ("tolerance = nan", "synth_duration_s = inf", "rt60_ms = -Infinity", "seed = -3"):
        with pytest.raises(ConfigError, match=f"line 1: bad value for '{line.split()[0]}'"):
            parse_config_text(line)


def test_dft_length_is_bounded_before_any_window_is_built():
    PipelineConfig({"dft_length": 2**16, "filter_support": 512})
    tracemalloc.start()
    try:
        for values in ({"dft_length": 2**30}, parse_config_text("dft_length = 1073741824")):
            with pytest.raises(ConfigError, match="dft_length = 1073741824.*up to 65536"):
                PipelineConfig(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"rejecting it allocated {peak} bytes"
    with pytest.raises(ValueError, match="131072 is not a power of two up to 65536"):
        StftConfig(2**17)


# Integers stay within 2**20, which spans every valid dft_length (up to
# 2**16) and powers of two past the bound.
_INTS = st.integers(-(2**20), 2**20)
_VALUES = st.one_of(
    _INTS,
    _INTS.map(float),
    st.floats(),
    _INTS.map(str),
    st.floats().map(str),
    st.text(alphabet="abcdehinprstx_.-+0123456789", max_size=10),
    st.booleans(),
    st.none(),
    _INTS.map(np.int64),
    st.floats().map(np.float64),
)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(DEFAULTS)), value=_VALUES)
def test_dict_and_text_share_one_coercion_property(key, value):
    outcomes = []
    for make in (lambda: {key: value}, lambda: parse_config_text(f"{key} = {value}")):
        try:
            outcomes.append(PipelineConfig(make()).settings[key])
        except ConfigError:
            outcomes.append(ConfigError)
    from_dict, from_text = outcomes
    if ConfigError in (from_dict, from_text):
        assert from_dict is from_text is ConfigError
        return
    assert type(from_dict) is type(from_text) is type(DEFAULTS[key])
    if not (isinstance(from_dict, float) and math.isnan(from_dict)):
        assert from_dict == from_text


def _load_error(settings: dict) -> str | None:
    try:
        PipelineConfig(settings)
    except ConfigError as exc:
        return str(exc)
    return None


# Pitch ranges from well inside to far outside any band, tiny minima whose
# quotients overflow at high rates, and zeros that keep the literal bins.
_HZ = st.one_of(
    st.just(0.0),
    st.floats(1.0, 8000.0),
    st.floats(1e-306, 1e-300),
    st.floats(5e-324, 1e-307),
)


@settings(max_examples=300, deadline=None)
@given(
    f_min=_HZ,
    f_max=_HZ,
    dft_exponent=st.integers(5, 13),
    synth_rates=st.lists(st.integers(1, 96000), min_size=2, max_size=2),
    rate=st.integers(8000, 48000),
)
def test_smoothing_bands_are_checked_at_the_rate_of_the_run_property(
    f_min, f_max, dft_exponent, synth_rates, rate
):
    k = 2**dft_exponent
    settings = {"pitch_min_hz": f_min, "pitch_max_hz": f_max, "dft_length": k,
                "filter_support": k // 4}
    outcomes = {_load_error({**settings, "synth_sample_rate": r}) for r in synth_rates}
    assert len(outcomes) == 1, f"loading depends on synth_sample_rate: {outcomes}"
    if outcomes != {None}:
        return
    config = PipelineConfig({**settings, "synth_sample_rate": synth_rates[0]})
    try:
        params = config.smoothing_params(rate)
    except ConfigError as exc:
        assert f"{rate} Hz" in str(exc)
        return
    assert 0 < params.l_env < params.l_low < params.l_high < k // 2
    if f_min > 0:
        assert (params.l_low, params.l_high) == (round(rate / f_max), round(rate / f_min))
