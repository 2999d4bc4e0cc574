"""The block-by-block separation against the whole-array flow it replaced."""

import tracemalloc

import numpy as np
import pytest

from cbss import pipeline
from cbss.config import PipelineConfig
from cbss.pipeline import separate_recording, simulate_scene
from cbss.stft import frame_count
from oracles import separate_recording_batch

# 1 s sources at 8 kHz, 256-sample frames at hop 64: the simulated mixture
# has 159 frames, and the four covariance blocks start at frames 0, 40, 80
# and 120.
SMALL = {
    "dft_length": 256,
    "overlap_factor": 0.75,
    "filter_support": 64,
    "block_count": 4,
    "max_iters": 40,
    "l_low": 8,
    "l_env": 4,
    "l_high": 100,
    "room_height": 3.0,
    "room_width": 3.0,
    "room_depth": 3.0,
    "synth_duration_s": 1.0,
    "synth_sample_rate": 8000,
}


@pytest.fixture(scope="module")
def small_scene():
    config = PipelineConfig({**SMALL, "seed": 3})
    scene = simulate_scene(config, rt60_ms=150.0)
    return config, scene.mixture, separate_recording_batch(scene.mixture, config)


def _assert_matches_batch(result, batch) -> None:
    state, ref = result.solver_state, batch.solver_state
    assert (state.iterations, state.termination) == (ref.iterations, ref.termination)
    np.testing.assert_allclose(state.cost_trace, ref.cost_trace, rtol=1e-12, atol=0)
    for got, want in zip(result.stage1 + result.final, batch.stage1 + batch.final):
        assert len(got) == len(want)
        assert np.max(np.abs(got.samples - want)) <= 1e-12 * np.max(np.abs(want))
    assert result.isolated_fraction_binary == batch.isolated_fraction_binary
    assert result.isolated_fraction_smoothed == batch.isolated_fraction_smoothed


@pytest.mark.parametrize(
    "frames_per_block",
    [
        lambda n: n + 9,  # the whole input is one block shorter than the block size
        lambda n: n,  # one block exactly
        lambda n: 7,  # blocks straddle every covariance-block edge
        lambda n: 40,  # blocks line up with the covariance blocks
        lambda n: 50,  # a short last block
        lambda n: 1,  # one frame per block
    ],
    ids=["below", "equal", "7", "40", "50", "1"],
)
def test_block_pipeline_matches_whole_array_flow(small_scene, monkeypatch, frames_per_block):
    config, mixture, batch = small_scene
    n_frames = frame_count(mixture.n_samples, config.stft)
    assert n_frames == 159
    monkeypatch.setattr(pipeline, "FRAMES_PER_BLOCK", frames_per_block(n_frames))
    _assert_matches_batch(separate_recording(mixture, config), batch)


def _traced_peak(duration_s: float) -> tuple[int, int]:
    config = PipelineConfig({"synth_duration_s": duration_s, "seed": 1, "max_iters": 5})
    mixture = simulate_scene(config, rt60_ms=200.0).mixture
    tracemalloc.start()
    try:
        separate_recording(mixture, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, mixture.n_samples


def test_separation_memory_grows_only_with_the_waveforms():
    # The waveforms in and out cost 8 bytes per sample each, plus the
    # overlap-add buffers; whole-input spectrograms and masks cost hundreds.
    short_peak, short_n = _traced_peak(10.0)
    long_peak, long_n = _traced_peak(30.0)
    per_sample = (long_peak - short_peak) / (long_n - short_n)
    assert per_sample <= 120, f"traced peak grows {per_sample:.0f} bytes per input sample"
