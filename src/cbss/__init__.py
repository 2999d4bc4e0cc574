"""Two-microphone convolutive blind speech separation.

Pipeline: STFT -> per-bin joint diagonalization of block covariances ->
binary time-frequency masks -> cepstral-domain mask smoothing -> overlap-add
resynthesis.  Ships with an image-method room simulator and
projection-based SIR evaluation.

Each public name is imported from the module that defines it, for example
``from cbss.pipeline import separate_recording``; importing the package
alone loads none of its modules.
"""

__version__ = "0.1.0"
