"""The block-by-block separation against the whole-array flow it replaced."""

import contextlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cbss import pipeline
from cbss.config import PipelineConfig
from cbss.pipeline import separate_recording, simulate_scene
from cbss.signals import MultichannelRecording, Waveform, gen_am_source
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
    "envelope_ms": 0.5,  # 4, 8 and 100 bins at 8 kHz
    "pitch_period_min_ms": 1.0,
    "pitch_period_max_ms": 12.5,
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


def _traced(fn, *args, **kwargs):
    """fn's result and the traced peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _traced_peak(duration_s: float) -> tuple[int, int]:
    config = PipelineConfig({"synth_duration_s": duration_s, "seed": 1, "max_iters": 5})
    mixture = simulate_scene(config, rt60_ms=200.0).mixture
    _, peak = _traced(separate_recording, mixture, config)
    return peak, mixture.n_samples


def test_separation_memory_grows_only_with_the_waveforms():
    # The waveforms in and out cost 8 bytes per sample each, plus the
    # overlap-add buffers; whole-input spectrograms and masks cost hundreds.
    short_peak, short_n = _traced_peak(10.0)
    long_peak, long_n = _traced_peak(30.0)
    per_sample = (long_peak - short_peak) / (long_n - short_n)
    assert per_sample <= 120, f"traced peak grows {per_sample:.0f} bytes per input sample"


def test_sweep_row_separation_peaks_at_its_block_scratch():
    # A 10 s row of the benchmark's sweep at 200 ms, whose outputs take
    # 3.05 MiB.  It peaks at 14.8-18.1 MiB (the higher figure on a first
    # call, which also builds the smoothing bases); both halves' scratch and
    # the block temporaries of masking and smoothing at 128-frame blocks
    # took it to 25.4-29.5 MiB.
    settings = {"dft_length": 2048, "overlap_factor": 0.75, "filter_support": 512,
                "block_count": 8, "max_iters": 200, "room_height": 3.0, "room_width": 3.0,
                "room_depth": 3.0, "synth_duration_s": 10.0, "synth_sample_rate": 10000,
                "seed": 1}
    config = PipelineConfig(settings)
    mixture = simulate_scene(config, rt60_ms=200.0).mixture
    _, peak = _traced(separate_recording, mixture, config)
    assert peak <= 20 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@contextlib.contextmanager
def _inline_halves():
    """Both halves of every step on the calling thread, half 0 first."""

    def both(step, *args):
        step(0, *args)
        step(1, *args)

    yield both


@pytest.mark.parametrize(
    ("settings", "n_frames", "frames_per_block"),
    [
        ({"seed": 1}, 107, 128),  # the default 5 s scene, in one block
        ({"seed": 2, "synth_duration_s": 7.5}, 156, 128),  # a 28-frame last block
        ({**SMALL, "seed": 3}, 168, 168),  # exactly one block
    ],
    ids=["default-scene", "short-last-block", "one-block"],
)
def test_two_threads_keep_the_bits_of_one(monkeypatch, settings, n_frames, frames_per_block):
    config = PipelineConfig(settings)
    mixture = simulate_scene(config).mixture
    assert frame_count(mixture.n_samples, config.stft) == n_frames
    monkeypatch.setattr(pipeline, "FRAMES_PER_BLOCK", frames_per_block)
    # A short switch interval interleaves the two threads' Python code finely.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = separate_recording(mixture, config)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(pipeline, "_two_halves", _inline_halves)
    inline = separate_recording(mixture, config)
    for got, want in zip(threaded.stage1 + threaded.final, inline.stage1 + inline.final):
        assert np.array_equal(got.samples, want.samples)
    assert threaded.isolated_fraction_binary == inline.isolated_fraction_binary
    assert threaded.isolated_fraction_smoothed == inline.isolated_fraction_smoothed
    assert vars(threaded.solver_state) == vars(inline.solver_state)


@pytest.mark.parametrize("failing_output", [1, 0], ids=["helper-half", "caller-half"])
def test_a_failure_in_either_half_is_raised_and_leaves_no_thread(
    small_scene, monkeypatch, failing_output
):
    config, mixture, _ = small_scene
    smooth_frames = pipeline.smooth_frames

    def failing(mask, magnitudes, params, previous):
        # Output 1 is smoothed on the helper thread, output 0 on the caller's.
        output = int(threading.current_thread() is not threading.main_thread())
        if output == failing_output:
            raise RuntimeError(f"smoothing failed for output {output}")
        return smooth_frames(mask, magnitudes, params, previous)

    monkeypatch.setattr(pipeline, "smooth_frames", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"for output {failing_output}"):
        separate_recording(mixture, config)
    assert threading.active_count() == before


def test_simulate_scene_records_the_config_seed_for_given_sources():
    config = PipelineConfig({"seed": 7})
    sources = tuple(gen_am_source(seed, 0.5, 10000, 1.0) for seed in (1, 2))
    assert simulate_scene(config, sources=sources).seed == 7


def test_simulate_scene_holds_one_source_spectrum_at_a_time():
    config = PipelineConfig({"synth_duration_s": 30.0, "seed": 1})
    scene, peak = _traced(simulate_scene, config, rt60_ms=200.0)
    waves = [*scene.sources, *(w for row in scene.images for w in row), *scene.mixture.channels]
    outputs = sum(w.samples.nbytes for w in waves)
    # The sources, images and mixture, plus one source spectrum, one response
    # transform and one inverse transform in flight: 1.19 x the outputs.  Both
    # spectra and padded source copies alive at once took 1.57 x.
    assert peak <= 1.25 * outputs, f"traced peak {peak / outputs:.2f} x the outputs"


def test_separation_frees_its_scratch_before_cutting_the_outputs():
    # The benchmark's separate_long settings on its 60 s, 10 kHz scene.
    settings = {"dft_length": 2048, "overlap_factor": 0.75, "filter_support": 512,
                "block_count": 8, "max_iters": 200, "tolerance": 0.0}
    config = PipelineConfig(settings)
    scene_config = PipelineConfig({"synth_duration_s": 60.0, "seed": 1})
    mixture = simulate_scene(scene_config, rt60_ms=200.0).mixture
    # Fill the smoothing's cached bases and the thread pool's imports first.
    short = tuple(Waveform(c.samples[:20000], c.sample_rate) for c in mixture.channels)
    separate_recording(MultichannelRecording(short), config)
    _, peak = _traced(separate_recording, mixture, config)
    # Four overlap-add buffers and both halves' block scratch peak in the loop
    # at 30.6 MiB.  Cutting the outputs while the scratch and all four buffers
    # were alive took 44.9 MiB (52.0 MiB at 128-frame blocks).
    assert peak < 36 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
