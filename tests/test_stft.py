import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbss.signals import Waveform
from cbss.stft import (
    Spectrogram,
    StftConfig,
    analyze,
    frame_blocks,
    frame_count,
    frame_spectra,
    next_fast_len,
    overlap_add,
    padded_length,
    strip_padding,
    synthesize,
)


def _random_wave(rng, n=10000, rate=10000):
    return Waveform(rng.standard_normal(n), rate)


def test_config_validates_frame_length_and_overlap():
    with pytest.raises(ValueError):
        StftConfig(300, 0.5)
    with pytest.raises(ValueError):
        StftConfig(256, 1.0)
    with pytest.raises(ValueError):
        StftConfig(256, -0.1)
    # 0.3 overlap on 256 samples gives a fractional hop
    with pytest.raises(ValueError):
        StftConfig(256, 0.3)


def test_config_rejects_non_cola_window_pair():
    # plain Hann squared against itself does not overlap-add flat at 50%
    with pytest.raises(ValueError):
        StftConfig(256, 0.5, window="hann")


def test_config_hop_and_bins():
    cfg = StftConfig(1024, 0.75)
    assert cfg.hop == 256
    assert cfg.n_bins == 513


def test_round_trip_across_configs():
    rng = np.random.default_rng(0)
    for k in (256, 1024, 2048):
        for overlap in (0.5, 0.75):
            cfg = StftConfig(k, overlap)
            x = _random_wave(rng)
            y = synthesize(analyze(x, cfg))
            err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
            assert err <= 1e-6, f"K={k} overlap={overlap}: {err}"


def test_round_trip_preserves_length_and_rate():
    cfg = StftConfig(256, 0.75)
    x = Waveform(np.random.default_rng(1).standard_normal(5000), 16000)
    y = synthesize(analyze(x, cfg))
    assert len(y) == len(x)
    assert y.sample_rate == 16000


def test_zero_spectrogram_gives_zero_signal():
    cfg = StftConfig(256, 0.5)
    x = _random_wave(np.random.default_rng(2), n=2000)
    spec = analyze(x, cfg)
    silent = spec.with_values(np.zeros_like(spec.values))
    y = synthesize(silent)
    assert np.all(y.samples == 0.0)
    assert len(y) == len(x)


def test_linearity_of_round_trip():
    cfg = StftConfig(512, 0.75)
    x = _random_wave(np.random.default_rng(3), n=4000)
    spec = analyze(x, cfg)
    y = synthesize(spec.with_values(0.5 * spec.values))
    err = np.linalg.norm(y.samples - 0.5 * x.samples) / np.linalg.norm(x.samples)
    assert err <= 1e-6


def test_synthesize_rejects_spectrogram_missing_frames():
    # Without every frame the tail (or head) would lack window overlap.
    cfg = StftConfig(256, 0.75)
    x = _random_wave(np.random.default_rng(6), n=4000)
    spec = analyze(x, cfg)
    truncated = Spectrogram(spec.values[:, :-3], cfg, x.sample_rate, len(x))
    headless = Spectrogram(spec.values[:, 3:], cfg, x.sample_rate, len(x))
    for partial in (truncated, headless):
        with pytest.raises(ValueError, match="needs all"):
            synthesize(partial)
    short = np.zeros(padded_length(spec.n_frames - 3, cfg))
    with pytest.raises(ValueError, match="samples long"):
        strip_padding([short], cfg, len(x), x.sample_rate)


def test_analyze_rejects_short_signal():
    cfg = StftConfig(1024, 0.5)
    with pytest.raises(ValueError):
        analyze(Waveform(np.zeros(1000), 8000), cfg)


def test_frame_energy_matches_spectrum_energy():
    # Parseval per frame: windowed-frame energy equals spectral energy / K.
    rng = np.random.default_rng(4)
    cfg = StftConfig(256, 0.5)
    k, hop = cfg.frame_length, cfg.hop
    x = _random_wave(rng, n=3000)
    spec = analyze(x, cfg)

    pad = k - hop
    total = (spec.n_frames - 1) * hop + k
    buf = np.zeros(total)
    buf[pad : pad + len(x)] = x.samples
    window = cfg.analysis_window()

    for m in (0, spec.n_frames // 2, spec.n_frames - 1):
        frame = buf[m * hop : m * hop + k] * window
        time_energy = np.sum(frame**2)
        col = spec.values[:, m]
        spec_energy = (
            np.abs(col[0]) ** 2
            + np.abs(col[-1]) ** 2
            + 2.0 * np.sum(np.abs(col[1:-1]) ** 2)
        ) / k
        assert time_energy == pytest.approx(spec_energy, rel=1e-9)


def test_spectrogram_validates_geometry():
    cfg = StftConfig(256, 0.5)
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((10, 5), dtype=complex), cfg, 8000, 1000)
    with pytest.raises(ValueError):
        Spectrogram(np.full((129, 5), np.nan, dtype=complex), cfg, 8000, 1000)
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((129, 5), dtype=complex), cfg, 0, 1000)


def test_spectrogram_values_read_only():
    cfg = StftConfig(256, 0.5)
    spec = Spectrogram(np.zeros((129, 4), dtype=complex), cfg, 8000, 900)
    with pytest.raises(ValueError):
        spec.values[0, 0] = 1.0


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_analysis_and_overlap_add_reconstruct_perfectly(data):
    k = data.draw(st.sampled_from([16, 32, 64, 128, 256]), label="frame_length")
    overlap = data.draw(st.sampled_from([0.0, 0.5, 0.75, 0.875]), label="overlap")
    window = data.draw(st.sampled_from(["sqrt_hann", "hann", "rect"]), label="window")
    try:
        cfg = StftConfig(k, overlap, window)
    except ValueError:
        assume(False)  # not constant-overlap-add at this hop
    n = data.draw(st.integers(k, 12 * k), label="n_samples")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    x = Waveform(np.random.default_rng(seed).standard_normal(n), 8000)
    n_frames = frame_count(n, cfg)
    block = data.draw(st.integers(2, n_frames + 2), label="frames_per_block")
    assume(n_frames % block != 0)

    buf = np.zeros(padded_length(n_frames, cfg))
    for frames in frame_blocks(n_frames, block):
        overlap_add(frame_spectra(x.samples, cfg, frames), frames.start, cfg, buf)
    (y,) = strip_padding([buf], cfg, n, x.sample_rate)
    assert len(y) == n
    assert np.max(np.abs(y.samples - x.samples)) <= 1e-12 * np.max(np.abs(x.samples))


def test_block_analysis_equals_columns_of_whole_analysis():
    cfg = StftConfig(64, 0.75)
    x = _random_wave(np.random.default_rng(5), n=1000)
    whole = analyze(x, cfg)
    for frames in frame_blocks(whole.n_frames, 6):
        block = frame_spectra(x.samples, cfg, frames)
        assert np.array_equal(block, whole.values[:, frames.start : frames.stop].T)
    with pytest.raises(ValueError):
        frame_spectra(x.samples, cfg, range(whole.n_frames - 1, whole.n_frames + 1))
    with pytest.raises(ValueError):
        frame_spectra(x.samples, cfg, range(3, 3))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    from cbss.config import PipelineConfig

    # The 60 s room simulation convolves at n + L - 1.
    room = PipelineConfig({"synth_duration_s": 60.0}).room_spec(10000, 200.0)
    sixty_seconds = 60 * 10000 + room.rir_length - 1
    for n in [*range(1, 10001), 600511, 300511, 100511, sixty_seconds]:
        assert next_fast_len(n) == scipy_next_fast_len(n, real=True), n
