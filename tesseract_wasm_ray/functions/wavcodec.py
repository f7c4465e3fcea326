"""From-scratch WAV/RIFF PCM codec (stdlib struct + numpy).

Audio enters the engine the same way images do — an opaque Arrow
``binary`` column with typed metadata (multimodal columns with
decode/feature-extract as ``map_batches`` stages).  WAV is an
uncompressed RIFF container, the audio analogue of BMP: a real parser
is ~60 lines of public-spec chunk walking, so the engine implements it
instead of stubbing (mp3/h264/vp9 stay stubbed; no codec libs in this
container).

Supports canonical PCM (8-bit unsigned and 16-bit signed little-endian,
any channel count / sample rate) plus COMPRESSED mono IMA ADPCM
(format tag 0x0011, functions/adpcmcodec.py — 4 bits/sample with a
``fact``-chunk length trim), and tolerates extra chunks (LIST, fact,
...) before/after ``data`` as the RIFF spec allows.
"""

from __future__ import annotations

import struct

import numpy as np


def encode_wav(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """Samples ``(n,)`` or ``(n, channels)`` int16 (or uint8) ->
    canonical RIFF/WAVE PCM bytes."""
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2 or samples.size == 0:
        raise ValueError("samples must be non-empty (n,) or (n, channels)")
    if samples.dtype == np.uint8:
        bits = 8
    elif samples.dtype == np.int16:
        bits = 16
    else:
        raise ValueError(f"unsupported sample dtype {samples.dtype}")
    n, ch = samples.shape
    block_align = ch * bits // 8
    data = samples.astype("<u1" if bits == 8 else "<i2").tobytes()
    fmt = struct.pack(
        "<HHIIHH", 1, ch, sample_rate, sample_rate * block_align, block_align, bits
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        body += b"\x00"  # RIFF chunks are word-aligned
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _wrap_adpcm_riff(
    data: bytes, n_samples: int, sample_rate: int, block_align: int
) -> bytes:
    """ADPCM block stream -> RIFF/WAVE container (format tag 0x0011):
    extended fmt chunk (cbSize=2 + wSamplesPerBlock) and a ``fact``
    chunk carrying the true sample count so decoders trim the final
    block's padding — the canonical layout for compressed WAV."""
    from .adpcmcodec import samples_per_block

    spb = samples_per_block(block_align)
    byte_rate = (sample_rate * block_align + spb - 1) // spb
    fmt = struct.pack(
        "<HHIIHHHH", 0x11, 1, sample_rate, byte_rate, block_align, 4, 2, spb
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"fact" + struct.pack("<II", 4, n_samples)
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _check_adpcm_input(samples: np.ndarray) -> None:
    if samples.ndim != 1:
        raise ValueError("ADPCM path is mono: expected (n,) int16 samples")
    if samples.dtype != np.int16:
        raise ValueError(f"unsupported sample dtype {samples.dtype}")


def encode_wav_adpcm(
    samples: np.ndarray, sample_rate: int = 8000, block_align: int = 256
) -> bytes:
    """Mono int16 samples -> RIFF/WAVE IMA ADPCM."""
    from .adpcmcodec import encode_adpcm_mono

    _check_adpcm_input(samples)
    data = encode_adpcm_mono(samples, block_align)
    return _wrap_adpcm_riff(data, len(samples), sample_rate, block_align)


def encode_wav_adpcm_many(
    samples_list: list[np.ndarray], sample_rate: int = 8000, block_align: int = 256
) -> list[bytes]:
    """Batched RIFF/WAVE IMA ADPCM encode: one recurrence pass for the
    whole clip batch (adpcmcodec.encode_adpcm_many), per-clip container
    wrap.  Byte-identical to per-clip :func:`encode_wav_adpcm`."""
    from .adpcmcodec import encode_adpcm_many

    for s in samples_list:
        _check_adpcm_input(s)
    datas = encode_adpcm_many(samples_list, block_align)
    return [
        _wrap_adpcm_riff(d, len(s), sample_rate, block_align)
        for d, s in zip(datas, samples_list)
    ]


def parse_wav(payload: bytes) -> tuple[tuple, bytes, int | None]:
    """RIFF/WAVE container walk (spec-ordered chunk list) ->
    ``(fmt tuple, data bytes, fact_samples)``.  Cheap per clip — the
    codec work lives in the decoders, so batched callers (the audio
    actor) parse containers row-wise, then batch SAME-FORMAT streams
    through one recurrence."""
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE stream")
    pos, end = 12, min(len(payload), 8 + struct.unpack("<I", payload[4:8])[0])
    fmt = None
    data = None
    fact_samples = None
    while pos + 8 <= end:
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4 : pos + 8])
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if size < 16:
                raise ValueError("truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"fact" and size >= 4:
            (fact_samples,) = struct.unpack("<I", body[:4])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size % 2)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV without fmt/data chunks")
    return fmt, data, fact_samples


def decode_pcm_data(data: bytes, ch: int, bits: int) -> np.ndarray:
    """PCM data chunk -> (n, ch) samples (int16 or uint8)."""
    if bits == 8:
        arr = np.frombuffer(data, "<u1")
    elif bits == 16:
        arr = np.frombuffer(data[: len(data) // 2 * 2], "<i2")
    else:
        raise ValueError(f"unsupported bit depth {bits}")
    if ch < 1:
        raise ValueError("channel count must be >= 1")
    n = len(arr) // ch
    return arr[: n * ch].reshape(n, ch)


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM bytes -> ``(samples (n, channels), sample_rate)``.
    Samples are int16 for 16-bit streams, uint8 for 8-bit.  Walks the
    chunk list per the RIFF spec; non-PCM formats (compressed, float)
    raise ``ValueError``."""
    fmt, data, fact_samples = parse_wav(payload)
    audio_format, ch, rate, _byte_rate, block_align, bits = fmt
    if audio_format == 0x11:
        # IMA ADPCM: the engine's real compressed audio essence
        from .adpcmcodec import decode_adpcm_mono

        if ch != 1:
            raise ValueError("IMA ADPCM decode supports mono streams only")
        if bits != 4:
            raise ValueError(f"IMA ADPCM requires 4 bits/sample, got {bits}")
        flat = decode_adpcm_mono(data, block_align, fact_samples)
        return flat.reshape(-1, 1), rate
    if audio_format != 1:
        raise ValueError(f"only PCM/IMA-ADPCM WAV supported (format tag {audio_format})")
    return decode_pcm_data(data, ch, bits), rate
