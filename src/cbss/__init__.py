"""Two-microphone convolutive blind speech separation.

Pipeline: STFT -> per-bin joint diagonalization of block covariances ->
binary time-frequency masks -> cepstral-domain mask smoothing -> overlap-add
resynthesis.  Ships with an image-method room simulator and
projection-based SIR evaluation.
"""

from .bsseval import (
    Decomposition,
    SegmentAnnotation,
    project_decompose,
    sar_db,
    sdr_db,
    segment_sir,
    sir_db,
)
from .cepsmooth import (
    SmoothingParams,
    estimate_pitch_quefrency,
    magnitude_cepstrum,
    smooth_mask,
)
from .config import ConfigError, PipelineConfig, default_config, load_config
from .jointdiag import (
    CovarianceSet,
    SolverParams,
    SolverState,
    UnmixingSystem,
    apply_unmixing,
    constrain_filter_support,
    cost,
    cost_gradient,
    diag_target,
    estimate_block_covariances,
    solve_unmixing,
)
from .masking import (
    MaskThreshold,
    SpectralMask,
    apply_mask,
    estimate_binary_masks,
    isolated_unit_fraction,
)
from .pipeline import (
    PairEvaluation,
    SeparationResult,
    SimulatedScene,
    evaluate_outputs,
    separate_recording,
    simulate_scene,
)
from .roomsim import (
    ImpulseResponseBank,
    RoomSpec,
    convolve_mix,
    generate_rir,
    rt60_to_absorption,
    source_images,
)
from .signals import (
    EmptyWavError,
    MultichannelRecording,
    UnsupportedWavError,
    Waveform,
    WavError,
    gen_am_source,
    read_wav,
    write_wav,
)
from .stft import Spectrogram, StftConfig, analyze, synthesize

__version__ = "0.1.0"
