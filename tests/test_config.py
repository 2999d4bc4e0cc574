import math
import re
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
    assert s["envelope_ms"] == 0.8
    assert s["pitch_period_min_ms"] == 1.6
    assert s["pitch_period_max_ms"] == 12.0
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
    bands = {"l_env": "envelope_ms", "l_low": "pitch_period_min_ms", "l_high": "pitch_period_max_ms"}
    assert len(expected) == 15
    for key, value in expected.items():
        if key in bands:  # a band's default time is its default bin at 10 kHz
            assert round(10000 * DEFAULTS[bands[key]] / 1000) == value, key
            continue
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
    order = "need 0 < envelope_ms < pitch_period_min_ms < pitch_period_max_ms"
    for bands in ((-0.8, 1.6, 12.0), (0.0, 1.6, 12.0), (0.8, 0.8, 12.0), (0.8, 12.0, 1.6),
                  (2.0, 1.6, 12.0), (-12.0, -1.6, -0.8)):
        settings = dict(zip(("envelope_ms", "pitch_period_min_ms", "pitch_period_max_ms"), bands))
        with pytest.raises(ConfigError, match=order):
            PipelineConfig(settings)
    # 100 ms is 1000 bins at 10 kHz, under K/2 = 1024, and 4800 at 48 kHz: no load error
    with pytest.raises(ConfigError, match="at 48000 Hz.*l_high = 4800 .from pitch_period_max_ms 100"):
        PipelineConfig({"pitch_period_max_ms": 100.0}).smoothing_params(48000)
    for threshold in (0, -1.5):
        with pytest.raises(ConfigError, match=f"mask_threshold = {float(threshold)}: .*positive"):
            PipelineConfig({"mask_threshold": threshold})
    # Evaluation filter taps below 1 fit no signal; the upper bound is the references' length.
    PipelineConfig({"decomp_filter_taps": 1})
    for taps in (0, -5):
        with pytest.raises(ConfigError, match=f"decomp_filter_taps = {taps} must be at least 1"):
            PipelineConfig({"decomp_filter_taps": taps})
    with pytest.raises(ConfigError):
        PipelineConfig({"nonsense": 1})


@pytest.mark.parametrize(
    ("key", "replacement"),
    [
        ("l_env", "envelope_ms = 1000 * l_env / rate"),
        ("l_low", "pitch_period_min_ms = 1000 * l_low / rate"),
        ("l_high", "pitch_period_max_ms = 1000 * l_high / rate"),
        ("pitch_min_hz", "pitch_period_max_ms = 1000 / pitch_min_hz"),
        ("pitch_max_hz", "pitch_period_min_ms = 1000 / pitch_max_hz"),
    ],
)
def test_each_removed_band_key_names_its_replacement(key, replacement):
    message = f"unknown key '{key}'; use {replacement}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        PipelineConfig({key: 8})
    with pytest.raises(ConfigError, match=re.escape(f"line 2: {message}")):
        parse_config_text(f"seed = 1\n{key} = 8\n")


def test_removed_max_rir_ms_names_rt60_ms():
    message = "unknown key 'max_rir_ms'; use rt60_ms, which with the room sets the RIR length"
    with pytest.raises(ConfigError, match=re.escape(f"line 1: {message}")):
        parse_config_text("max_rir_ms = 50\n")


def test_smoothing_params_resolve_the_band_times_at_each_rate():
    bins = {rate: default_config().smoothing_params(rate) for rate in (8000, 10000, 48000)}
    assert {rate: (p.l_env, p.l_low, p.l_high) for rate, p in bins.items()} == {
        8000: (6, 13, 96),
        10000: (8, 16, 120),
        48000: (38, 77, 576),
    }
    assert bins[10000] == SmoothingParams()
    # 12 ms is 1152 bins at 96 kHz, past K/2 = 1024
    with pytest.raises(ConfigError, match="at 96000 Hz .*l_high = 1152 .*K/2 = 1024"):
        default_config().smoothing_params(96000)
    # the old pitch_min_hz = 50 and pitch_max_hz = 500, migrated
    wide = PipelineConfig({"pitch_period_min_ms": 1000 / 500, "pitch_period_max_ms": 1000 / 50})
    assert (wide.smoothing_params(16000).l_low, wide.smoothing_params(16000).l_high) == (32, 320)


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


# Ordered band times from well inside to outside any band; in half of the
# draws one of them becomes any time that size, a tiny one that rounds to
# bin 0, a huge one whose product with the rate overflows, or a negative one.
@st.composite
def _band_times(draw):
    times = sorted(draw(st.lists(st.floats(0.1, 15.0), min_size=3, max_size=3, unique=True)))
    if draw(st.booleans()):
        times[draw(st.integers(0, 2))] = draw(st.one_of(
            st.floats(0.1, 15.0), st.floats(1e-300, 1e-3), st.floats(1e300, 1e308),
            st.floats(-50.0, 0.0),
        ))
    return times


@settings(max_examples=300, deadline=None)
@given(
    times=_band_times(),
    dft_exponent=st.integers(9, 13),
    synth_rates=st.lists(st.integers(1, 96000), min_size=2, max_size=2),
    rate=st.integers(8000, 48000),
)
def test_smoothing_bands_are_checked_at_the_rate_of_the_run_property(
    times, dft_exponent, synth_rates, rate
):
    k = 2**dft_exponent
    settings = {"envelope_ms": times[0], "pitch_period_min_ms": times[1],
                "pitch_period_max_ms": times[2], "dft_length": k, "filter_support": k // 4}
    outcomes = {_load_error({**settings, "synth_sample_rate": r}) for r in synth_rates}
    assert len(outcomes) == 1, f"loading depends on synth_sample_rate: {outcomes}"
    if outcomes != {None}:
        assert not 0 < times[0] < times[1] < times[2]
        return
    config = PipelineConfig({**settings, "synth_sample_rate": synth_rates[0]})
    try:
        params = config.smoothing_params(rate)
    except ConfigError as exc:
        assert f"{rate} Hz" in str(exc)
        return
    assert 0 < params.l_env < params.l_low < params.l_high < k // 2
    assert [params.l_env, params.l_low, params.l_high] == [round(rate * t / 1000) for t in times]
