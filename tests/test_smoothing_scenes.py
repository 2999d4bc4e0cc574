"""Cepstral smoothing on blocks of separated room scenes.

The default 5 s scene, the 60 s scene at the long-separation settings and
the sweep settings' scene at 100, 200 and 400 ms are separated once, and
the binary masks and magnitudes of every FRAMES_PER_BLOCK-frame block (64)
are kept.  Tail frames of these scenes hold one or two bins above the mask
floor, whose cepstral peaks tie to round-off.  Voiced scenes, harmonic
sources in the sweep room, check that the pitch band earns its place.
"""

import numpy as np
import pytest

from cbss.cepsmooth import (
    SmoothingParams,
    _dct1,
    _first_near_max,
    _pitch_quefrencies,
    smooth_frames,
)
from cbss.config import PipelineConfig
from cbss.jointdiag import CovarianceSums, solve_unmixing, unmix_output
from cbss.masking import dominance_mask
from cbss.pipeline import FRAMES_PER_BLOCK, score_separation, separate_recording, simulate_scene
from cbss.stft import frame_blocks, frame_count, frame_spectra

from oracles import gen_voiced_source, smooth_frames_dct

SOLVER = {"dft_length": 2048, "overlap_factor": 0.75, "filter_support": 512, "block_count": 8,
          "max_iters": 200}
SWEEP = {**SOLVER, "room_height": 3.0, "room_width": 3.0, "room_depth": 3.0,
         "synth_duration_s": 10.0, "synth_sample_rate": 10000, "seed": 1}
SCENES = {
    "default": (PipelineConfig({}), PipelineConfig({}), None),
    "long_60s": (PipelineConfig({"synth_duration_s": 60.0, "seed": 1}),
                 PipelineConfig({**SOLVER, "tolerance": 0.0}), 200.0),
    **{f"sweep_{rt}": (PipelineConfig(SWEEP), PipelineConfig(SWEEP), float(rt))
       for rt in (100, 200, 400)},
}


def _separated_blocks(name):
    """(params, [(mask, magnitudes) per output and block, in frame order per output])."""
    scene_config, config, rt60 = SCENES[name]
    recording = simulate_scene(scene_config, rt60_ms=rt60).mixture
    stft = config.stft
    n_frames = frame_count(recording.n_samples, stft)
    blocks = frame_blocks(n_frames, FRAMES_PER_BLOCK)

    def spectra(frames):
        return [frame_spectra(ch.samples, stft, frames) for ch in recording.channels]

    sums = CovarianceSums(stft.n_bins, n_frames, config.solver.block_count)
    for frames in blocks:
        sums.add(*spectra(frames), frames.start)
    system, _ = solve_unmixing(sums.covariance_set(), config.solver)
    outputs = ([], [])
    for frames in blocks:
        x = spectra(frames)
        magnitudes = [np.abs(unmix_output(system, i, x[i], x[1 - i])) for i in (0, 1)]
        for i in (0, 1):
            mask = dominance_mask(magnitudes[i], magnitudes[1 - i], config.mask_threshold.value)
            outputs[i].append((mask, magnitudes[i]))
    return config.smoothing_params(recording.sample_rate), outputs


@pytest.fixture(scope="module", params=list(SCENES))
def scene(request):
    return _separated_blocks(request.param)


def _smooth_all(blocks, params, smoother):
    previous, out = None, []
    for mask, magnitudes in blocks:
        smoothed, previous = smoother(mask, magnitudes, params, previous)
        out.append(smoothed)
    return np.concatenate(out)


def _dct_picks(magnitudes, params):
    log_magnitudes = np.log(np.maximum(magnitudes, params.mask_floor))
    cepstra = _dct1(log_magnitudes) / params.dft_length
    log_peak = np.max(np.abs(log_magnitudes), axis=1)
    return params.l_low + _first_near_max(cepstra[:, params.l_low : params.l_high + 1], log_peak)


def test_banded_smoothing_matches_whole_dct_reference(scene):
    params, outputs = scene
    for blocks in outputs:
        got = _smooth_all(blocks, params, smooth_frames)
        want = _smooth_all(blocks, params, smooth_frames_dct)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_round_off_in_the_magnitudes_moves_no_pitch_pick(scene):
    params, outputs = scene
    rng = np.random.default_rng(20261019)
    for blocks in outputs:
        smoothed = _smooth_all(blocks, params, smooth_frames)
        for _ in range(2):
            perturbed = []
            for mask, magnitudes in blocks:
                scaled = magnitudes * (1.0 + rng.uniform(-1e-13, 1e-13, magnitudes.shape))
                picks = _pitch_quefrencies(magnitudes, params)
                assert np.array_equal(_pitch_quefrencies(scaled, params), picks)
                # The whole-DCT cepstra pick the same quefrencies.
                assert np.array_equal(_dct_picks(scaled, params), picks)
                perturbed.append((mask, scaled))
            moved = _smooth_all(perturbed, params, smooth_frames)
            assert np.max(np.abs(moved - smoothed)) <= 1e-10


@pytest.mark.parametrize(
    "params",
    [SmoothingParams(), SmoothingParams(l_low=96, l_high=600),
     SmoothingParams(l_env=38, l_low=77, l_high=576)],
    ids=["default", "48k_wide_band", "48k_default"],
)
def test_all_floor_frames_pick_l_low(params):
    magnitudes = np.zeros((3, params.dft_length // 2 + 1))
    magnitudes[1] = 0.5 * params.mask_floor
    assert _pitch_quefrencies(magnitudes, params).tolist() == [params.l_low] * 3
    assert _dct_picks(magnitudes, params).tolist() == [params.l_low] * 3


# 3 s voiced scenes, the sweep room at 10 kHz: removing the pitch band
# (beta_pitch = beta_peak) cost 2.0-2.6 dB of final average SIR at these
# four points, and 1.6-4.1 dB on seeds 1-5 at 200 and 400 ms.  The final
# output beat stage 1 by 3.9-8.6 dB.
@pytest.mark.parametrize("rt60", [200.0, 400.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_the_pitch_band_gains_on_voiced_scenes(seed, rt60):
    sources = (gen_voiced_source(seed, 3.0, 10000, (100, 160), 0.8),
               gen_voiced_source(seed + 1, 3.0, 10000, (170, 260), 1.7))
    config = PipelineConfig({**SWEEP, "seed": seed, "rt60_ms": rt60})
    scene = simulate_scene(config, sources=sources)
    no_pitch = config.with_settings(beta_pitch=config.settings["beta_peak"])
    final = []
    for run in (config, no_pitch):
        result = separate_recording(scene.mixture, run)
        _, stage1, evaluation = score_separation(result, scene, config.decomp_filter_taps)
        final.append(evaluation.average_sir)
    assert final[0] >= final[1] + 1.0
    assert final[0] >= stage1.average_sir + 1.0
