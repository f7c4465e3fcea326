"""From-scratch AVI/RIFF video codec (stdlib struct + numpy).

Video enters the engine the same way images and audio do — an opaque
Arrow ``binary`` column with typed metadata, decoded by a map-task
stage (multimodal columns with decode / frame-sample as
``map_batches`` stages).  AVI is a RIFF container (the same chunk
grammar as the WAV codec in functions/wavcodec.py); with uncompressed
DIB frames it is the video analogue of BMP: a real parser is public-
spec chunk walking, so the engine implements the container AND the raw
frame codec instead of stubbing.  Compressed essences (h264/vp9/...)
remain stubbed — no codec libs in this container.

Layout written/read (the canonical minimal AVI):

    RIFF <sz> 'AVI '
      LIST 'hdrl'
        'avih' MainAVIHeader   (frame period, counts, dimensions)
        LIST 'strl'
          'strh' AVIStreamHeader ('vids'/'DIB ', rate/scale -> fps)
          'strf' BITMAPINFOHEADER (24-bit, BI_RGB)
      LIST 'movi'
        '00db' <frame>  x N    (bottom-up BGR rows padded to 4 bytes,
                                exactly the BMP pixel-array layout)
      'idx1' <entries>         (one entry per frame)

The decoder tolerates extra chunks (JUNK, INFO LISTs), nested
``LIST rec`` groups around frame chunks, and both ``00db`` (uncompressed)
and ``00dc`` ids, per the published AVI spec.
"""

from __future__ import annotations

import struct

import numpy as np


def _pad4(n: int) -> int:
    return (n + 3) & ~3


MJPG_FOURCC = int.from_bytes(b"MJPG", "little")


def encode_avi(frames: np.ndarray, fps: int = 12, codec: str = "dib") -> bytes:
    """Frames ``(n, h, w, 3)`` uint8 RGB -> AVI bytes.

    ``codec="dib"``: uncompressed 24-bit DIB frames (bottom-up BGR
    rows, 4-byte-aligned).  ``codec="mjpg"``: Motion-JPEG — each frame
    is a standalone baseline JPEG from the engine's own from-scratch
    T.81 codec (functions/jpegcodec.py), quality 100 / 4:4:4, which
    round-trips SOLID-color frames exactly (all-ones quant tables:
    a uniform block is DC-only and the DC survives quantization), so
    the closed-form fixture oracles stay exact while the container
    exercises a real compressed video essence."""
    if frames.ndim != 4 or frames.shape[3] != 3 or frames.dtype != np.uint8:
        raise ValueError("frames must be (n, h, w, 3) uint8 RGB")
    if codec not in ("dib", "mjpg"):
        raise ValueError(f"codec must be dib|mjpg, got {codec!r}")
    n, h, w, _ = frames.shape
    if n == 0 or h == 0 or w == 0:
        raise ValueError("frames must be non-empty")
    stride = _pad4(w * 3)

    if codec == "mjpg":
        from .jpegcodec import encode_jpeg

        dibs = [
            encode_jpeg(frames[i], quality=100, subsample=False) for i in range(n)
        ]
        frame_size = max(len(d) for d in dibs)
        handler, compression, bitcount = b"MJPG", MJPG_FOURCC, 24
        frame_ckid = b"00dc"
    else:
        frame_size = stride * h
        # one DIB per frame: flip rows (bottom-up), RGB->BGR, pad rows
        padded = np.zeros((n, h, stride), np.uint8)
        padded[:, :, : w * 3] = frames[:, ::-1, :, ::-1].reshape(n, h, w * 3)
        dibs = [padded[i].tobytes() for i in range(n)]
        handler, compression, bitcount = b"DIB ", 0, 24
        frame_ckid = b"00db"

    avih = struct.pack(
        "<IIIIIIIIII4I",
        1_000_000 // fps,  # dwMicroSecPerFrame
        frame_size * fps,  # dwMaxBytesPerSec
        0,  # dwPaddingGranularity
        0x10,  # AVIF_HASINDEX
        n,  # dwTotalFrames
        0,  # dwInitialFrames
        1,  # dwStreams
        frame_size,  # dwSuggestedBufferSize
        w,
        h,
        0, 0, 0, 0,
    )
    strh = struct.pack(
        "<4s4sIHHIIIIIIIIhhhh",
        b"vids", handler,
        0, 0, 0, 0,
        1,  # dwScale
        fps,  # dwRate  (fps = rate / scale)
        0,  # dwStart
        n,  # dwLength
        frame_size, 0xFFFFFFFF & -1, 0,
        0, 0, np.int16(w), np.int16(h),
    )
    strf = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, bitcount, compression, frame_size, 0, 0, 0, 0
    )

    def chunk(cid: bytes, body: bytes) -> bytes:
        return cid + struct.pack("<I", len(body)) + body + (b"\x00" * (len(body) % 2))

    def lst(kind: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", kind + body)

    strl = lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf))
    hdrl = lst(b"hdrl", chunk(b"avih", avih) + strl)

    movi_body = b"movi"
    entries = []
    for dib in dibs:
        entries.append((len(movi_body), len(dib)))  # offset from 'movi' tag
        movi_body += chunk(frame_ckid, dib)
    movi = chunk(b"LIST", movi_body)

    idx = b"".join(
        struct.pack("<4sIII", frame_ckid, 0x10, off, sz) for off, sz in entries
    )
    body = b"AVI " + hdrl + movi + chunk(b"idx1", idx)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_avi(payload: bytes) -> tuple[np.ndarray, float]:
    """AVI bytes -> ``(frames (n, h, w, 3) uint8 RGB, fps)``.  Walks the
    RIFF chunk tree per the spec.  Supported essences: uncompressed
    24-bit DIB and Motion-JPEG ('MJPG' — each frame chunk is a
    standalone baseline JPEG, decoded by the engine's from-scratch T.81
    codec).  Other compressed essences (h264/vp9/...) raise
    ``ValueError`` loudly."""
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("not a RIFF/AVI stream")

    width = height = None
    bitcount = compression = None
    rate = scale = None
    frames: list[bytes] = []

    def walk(start: int, end: int) -> None:
        nonlocal width, height, bitcount, compression, rate, scale
        pos = start
        while pos + 8 <= end:
            cid = payload[pos : pos + 4]
            (size,) = struct.unpack("<I", payload[pos + 4 : pos + 8])
            body_start = pos + 8
            body_end = min(body_start + size, end)
            if cid == b"LIST":
                # list body = 4-byte kind + sub-chunks
                walk(body_start + 4, body_end)
            elif cid == b"strh":
                fcc_type, _fcc_handler = payload[body_start : body_start + 4], None
                if fcc_type == b"vids":
                    scale, rate = struct.unpack(
                        "<II", payload[body_start + 20 : body_start + 28]
                    )
            elif cid == b"strf" and width is None:
                (
                    _bisz, width, height, _planes, bitcount, compression,
                ) = struct.unpack("<IiiHHI", payload[body_start : body_start + 20])
            elif cid[2:4] in (b"db", b"dc") and cid[:2].isdigit():
                frames.append(payload[body_start:body_end])
            pos = body_start + size + (size % 2)  # chunks are word-aligned

    walk(12, min(len(payload), 8 + struct.unpack("<I", payload[4:8])[0]))

    if width is None or not frames:
        raise ValueError("AVI without video stream format / frame chunks")
    if compression == MJPG_FOURCC:
        from .jpegcodec import decode_jpeg

        w, h = int(width), abs(int(height))
        out = np.empty((len(frames), h, w, 3), np.uint8)
        for i, jpg in enumerate(frames):
            img = decode_jpeg(bytes(jpg))
            if img.shape[0] != h or img.shape[1] != w:
                raise ValueError(
                    f"frame {i}: JPEG {img.shape[1]}x{img.shape[0]} != "
                    f"header {w}x{h}"
                )
            out[i] = img[:, :, :3]
        fps = (rate / scale) if (rate and scale) else 0.0
        return out, fps
    if compression != 0 or bitcount != 24:
        raise ValueError(
            f"only uncompressed 24-bit DIB and MJPG essences supported "
            f"(biCompression={compression}, biBitCount={bitcount})"
        )
    top_down = height < 0
    h = abs(int(height))
    w = int(width)
    stride = _pad4(w * 3)
    out = np.empty((len(frames), h, w, 3), np.uint8)
    for i, dib in enumerate(frames):
        if len(dib) < stride * h:
            raise ValueError(f"frame {i}: {len(dib)} bytes < {stride * h} expected")
        rows = np.frombuffer(dib[: stride * h], np.uint8).reshape(h, stride)
        img = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR -> RGB
        out[i] = img if top_down else img[::-1]
    fps = (rate / scale) if (rate and scale) else 0.0
    return out, fps
