from dataclasses import fields

import pytest

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
    assert len(expected) == 16
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
    with pytest.raises(ConfigError):
        PipelineConfig({"pitch_min_hz": 5.0, "pitch_max_hz": 500.0})  # l_high >= K/2
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
