"""Time-domain audio containers, WAV file I/O, and a synthetic test source.

WAV support is deliberately narrow, and needs only the standard library's
`struct`: little-endian RIFF WAVE files holding 16-bit PCM or IEEE float32
samples, one or two channels.  The reader takes the first `fmt ` and
`data` chunks, also in the extensible form, and skips every other chunk
(`LIST`, `fact`, ...) with the pad byte of an odd-sized one.  A `data`
chunk shorter than its header says raises `UnsupportedWavError`: the file
was cut off.  The writer lays out its header as SciPy's `wavfile.write`
does (a `fact` chunk after an 18-byte `fmt ` chunk for float32, a 16-byte
`fmt ` chunk for PCM), so its files keep the same bytes.  Everything is
normalized to float64 in [-1, 1] on read so the rest of the toolkit never
sees integer codes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

PCM16_SCALE = 32768.0

_RIFF_HEADER = struct.Struct("<4sI4s")
_CHUNK_HEADER = struct.Struct("<4sI")
# Format tag, channels, sample rate, bytes per second, block align, bits per sample.
_FMT = struct.Struct("<HHIIHH")
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# Bytes 4-15 of an extensible subformat GUID whose first 4 bytes are a format tag.
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_TYPES = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4")}


class WavError(ValueError):
    """Base class for WAV file problems."""


class UnsupportedWavError(WavError):
    """File is not a readable PCM16/float32 RIFF WAVE with 1-2 channels."""


class EmptyWavError(WavError):
    """File decodes to zero audio samples."""


@dataclass(frozen=True, eq=False)
class Waveform:
    """A finite single-channel signal with its sample rate in Hz.

    Samples are stored as a read-only float64 array; construction rejects
    NaN/Inf values and non-positive rates.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("waveform samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite")
        rate = int(self.sample_rate)
        if rate <= 0:
            raise ValueError("sample_rate must be positive")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self) / self.sample_rate


@dataclass(frozen=True, eq=False)
class MultichannelRecording:
    """One or more equally long channels sharing a sample rate."""

    channels: tuple[Waveform, ...]

    def __post_init__(self) -> None:
        channels = tuple(self.channels)
        if len(channels) < 1:
            raise ValueError("recording needs at least one channel")
        rate = channels[0].sample_rate
        length = len(channels[0])
        for ch in channels[1:]:
            if ch.sample_rate != rate:
                raise ValueError("all channels must share one sample rate")
            if len(ch) != length:
                raise ValueError("all channels must have equal length")
        object.__setattr__(self, "channels", channels)

    @property
    def sample_rate(self) -> int:
        return self.channels[0].sample_rate

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    def to_array(self) -> np.ndarray:
        """Stack channels into a (n_channels, n_samples) float64 array."""
        return np.stack([ch.samples for ch in self.channels])


def _corrupt(path, reason: str) -> UnsupportedWavError:
    return UnsupportedWavError(f"unsupported or corrupt WAV file: {path}: {reason}")


def _seek_data(f, path) -> tuple[bytes, int]:
    """Move `f` to the first sample; return the `fmt ` chunk and the data size in bytes."""
    head = f.read(_RIFF_HEADER.size)
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise _corrupt(path, "not a RIFF WAVE file")
    fmt = None
    while True:
        head = f.read(_CHUNK_HEADER.size)
        if len(head) < _CHUNK_HEADER.size:
            raise _corrupt(path, "no data chunk")
        chunk_id, size = _CHUNK_HEADER.unpack(head)
        if chunk_id == b"data":
            break
        skip = size + size % 2  # an odd-sized chunk is followed by a pad byte
        if chunk_id == b"fmt " and fmt is None:
            fmt = f.read(size)
            skip -= len(fmt)
        f.seek(skip, 1)
    if fmt is None or len(fmt) < _FMT.size:
        raise _corrupt(path, "no complete fmt chunk before the data chunk")
    return fmt, size


def read_wav(path) -> MultichannelRecording:
    """Read a 1- or 2-channel PCM16/float32 WAV file.

    PCM16 samples are scaled by 1/32768 (a single fixed scale, so
    inter-channel level ratios survive).  Float32 samples pass through
    unchanged.

    Raises FileNotFoundError for a missing file, UnsupportedWavError for
    malformed or truncated files, encodings outside the supported pair or
    NaN or infinite float samples (naming the first), and EmptyWavError for
    files with no audio frames.
    """
    with open(path, "rb") as f:
        fmt, size = _seek_data(f, path)
        tag, n_channels, rate, _, block_align, bits = _FMT.unpack_from(fmt)
        if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _SUBFORMAT_TAIL:
            (tag,) = struct.unpack_from("<I", fmt, 24)
        if n_channels < 1 or block_align < 1:
            raise _corrupt(path, f"{n_channels} channels in blocks of {block_align} bytes")
        n_frames = size // block_align
        if n_frames == 0:
            raise EmptyWavError(f"WAV file holds no samples: {path}")
        sample_type = _SAMPLE_TYPES.get((tag, bits))
        if sample_type is None:
            kind = {_PCM: f"int{bits}", _IEEE_FLOAT: f"float{bits}"}.get(tag, f"format {tag:#06x}")
            raise UnsupportedWavError(
                f"unsupported sample encoding {kind} in {path}; "
                "only 16-bit PCM and IEEE float32 are readable"
            )
        if n_channels > 2:
            raise UnsupportedWavError(
                f"{path} has {n_channels} channels; only mono and stereo are supported"
            )
        if block_align != n_channels * sample_type.itemsize:
            raise _corrupt(path, f"blocks of {block_align} bytes for {n_channels} channels")
        present = os.fstat(f.fileno()).st_size - f.tell()
        if present < n_frames * block_align:
            raise _corrupt(
                path, f"data chunk truncated: {present} of {n_frames * block_align} bytes present"
            )
        data = np.fromfile(f, dtype=sample_type, count=n_frames * n_channels)

    data = data.reshape(n_frames, n_channels)
    finite = np.isfinite(data)
    if not finite.all():
        sample, channel = np.unravel_index(np.argmin(finite), finite.shape)
        value = data[sample, channel]
        raise _corrupt(path, f"sample {sample} of channel {channel + 1} is {value}, not finite")
    scaled = data / PCM16_SCALE if tag == _PCM else data.astype(np.float64)
    channels = tuple(Waveform(scaled[:, c], rate) for c in range(n_channels))
    return MultichannelRecording(channels)


def write_wav(recording: MultichannelRecording, path, encoding: str = "float32") -> None:
    """Write a recording as float32 (default) or 16-bit PCM.

    PCM output clips samples to [-1, 1] first, then quantizes with scale
    32768 so a round trip stays within one LSB.
    """
    data = recording.to_array().T  # frames x channels
    # C order interleaves the channels, as the data chunk stores them.
    if encoding == "float32":
        tag, out = _IEEE_FLOAT, data.astype("<f4", order="C")
    elif encoding == "pcm16":
        clipped = np.clip(data, -1.0, 1.0)
        codes = np.round(clipped * PCM16_SCALE)
        tag, out = _PCM, np.clip(codes, -32768, 32767).astype("<i2", order="C")
    else:
        raise ValueError(f"unknown encoding {encoding!r}; use 'float32' or 'pcm16'")
    n_frames, n_channels = out.shape
    block_align = n_channels * out.dtype.itemsize
    rate = recording.sample_rate
    fmt = _FMT.pack(tag, n_channels, rate, rate * block_align, block_align, 8 * out.dtype.itemsize)
    fact = b""
    if tag != _PCM:
        # A non-PCM fmt chunk ends in a zero extension size and is followed
        # by a fact chunk holding the frame count.
        fmt += b"\x00\x00"
        fact = _CHUNK_HEADER.pack(b"fact", 4) + struct.pack("<I", n_frames)
    header = _CHUNK_HEADER.pack(b"fmt ", len(fmt)) + fmt + fact
    header += _CHUNK_HEADER.pack(b"data", out.nbytes)
    with open(path, "wb") as f:
        f.write(_RIFF_HEADER.pack(b"RIFF", 4 + len(header) + out.nbytes, b"WAVE"))
        f.write(header)
        out.tofile(f)


def gen_am_source(
    seed: int,
    duration_s: float,
    sample_rate: int,
    mod_rate: float,
) -> Waveform:
    """Generate a deterministic non-stationary test source.

    White Gaussian noise is amplitude-modulated by a raised sinusoid at
    `mod_rate` Hz with a seed-derived phase, then peak-normalized to 0.9.
    The envelope stays strictly positive, so short-time power swings by
    tens of dB over a modulation period, which is what the separation
    stage's non-stationarity assumption feeds on.
    """
    if not 0.5 <= mod_rate <= 16.0:
        raise ValueError("mod_rate must lie in [0.5, 16] Hz")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError(f"duration_s = {duration_s:g} rounds to {n} samples at {sample_rate} Hz")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / sample_rate
    # Envelope in [0.05, 1.0]: never fully gates the noise off.
    envelope = 0.05 + 0.475 * (1.0 + np.sin(2.0 * np.pi * mod_rate * t + phase))
    x = noise * envelope
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.9 * x / peak
    return Waveform(x, sample_rate)
