"""Multimodal column stages: opaque ``binary`` payloads + typed metadata.

Images/audio/video are carried as Arrow ``binary`` columns with
(width, height, channels / sample_rate / fps) metadata, processed by
task-compute ``map_batches`` stages (see ``_media_stage``).  Raw-raster
operations (resize, feature extraction, frame slicing) are REAL numpy
implementations, and so are the BMP (uncompressed 24/32-bit) and binary
PNM (P5/P6) container decoders, the PNG codec (chunk parse +
stdlib-zlib inflate + per-row unfilter), the baseline JPEG codec (8x8 DCT + Huffman
entropy coding, functions/jpegcodec.py), the GIF codec (full LZW
with variable code widths + dictionary resets, functions/gifcodec.py)
the TIFF codec (PackBits RLE + TIFF-flavor MSB/early-change LZW +
predictor 2, functions/tiffcodec.py) and the WebP-lossless codec
(VP8L prefix codes + LZ77 + color cache + all four transforms,
functions/webpcodec.py) — all real compressed formats, from
scratch.  Audio is REAL with TWO essences (uncompressed WAV/RIFF PCM
plus COMPRESSED mono IMA ADPCM, functions/{wavcodec,adpcmcodec}.py)
and so is the video path (AVI/RIFF container, functions/avicodec.py,
frame-sampled by VideoFrameActor) with TWO real essences: uncompressed
24-bit DIB and Motion-JPEG (each frame a standalone baseline JPEG from
the engine's own T.81 codec).  The remaining codecs (compressed
essences: mp3/h264-proper/vp9) are
STUBBED (no codec libs in this container — driver brief): they raise
``NotImplementedError`` unless ``fake="deterministic"``, which produces
a seeded synthetic raster so the Ray-side plumbing (schema, batch
sizing, stage signature, output layout) is fully exercised and tested.

Batch sizing: payload rows are wide; callers pass small ``batch_size``
(default 16 in :func:`decode_media`) so batch × concurrency fits a
worker heap (SURVEY.md §4.2).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
from ..functions.arrow_util import single_chunk as _single_chunk

RAW_CODECS = {"raw", "raw-rgba", "raw-gray"}
# Real pure-numpy container decoders (no image libs needed).  PNG and
# JPEG are genuinely COMPRESSED codecs implemented from scratch — PNG
# on stdlib zlib (chunk parse + inflate + per-row unfilter, see
# decode_png) and baseline JPEG on nothing but numpy (DCT + Huffman,
# functions/jpegcodec.py).  WAV is REAL too but is audio, handled by
# AudioFeatureActor / functions/wavcodec.py — a wav payload reaching
# the IMAGE decode stage is a mis-typed row and stays stub-gated here.
REAL_CODECS = {"bmp", "pnm", "pgm", "ppm", "png", "jpeg", "gif", "tiff", "webp"}
STUB_CODECS = {"mp3", "wav", "h264"}


def decode_bmp(payload: bytes) -> np.ndarray:
    """Pure-numpy decode of an uncompressed (BI_RGB) 24/32-bit BMP ->
    (H, W, 3|4) uint8 RGB(A).  Rows are 4-byte padded and stored
    bottom-up (negative height = top-down).  Spec: the public BITMAP
    FILEHEADER/BITMAPINFOHEADER layout."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload (missing 'BM' magic)")
    off = int(np.frombuffer(payload, np.uint32, 1, 10)[0])
    w = int(np.frombuffer(payload, np.int32, 1, 18)[0])
    h_signed = int(np.frombuffer(payload, np.int32, 1, 22)[0])
    bpp = int(np.frombuffer(payload, np.uint16, 1, 28)[0])
    compression = int(np.frombuffer(payload, np.uint32, 1, 30)[0])
    if compression != 0:
        raise ValueError(f"only BI_RGB (uncompressed) BMP supported, got {compression}")
    if bpp not in (24, 32):
        raise ValueError(f"only 24/32-bit BMP supported, got {bpp}")
    h = abs(h_signed)
    c = bpp // 8
    stride = (w * c + 3) & ~3
    rows = np.frombuffer(payload, np.uint8, stride * h, off).reshape(h, stride)
    img = rows[:, : w * c].reshape(h, w, c)
    if h_signed > 0:
        img = img[::-1]  # bottom-up storage
    # BGR(A) -> RGB(A)
    rgb = img[..., [2, 1, 0]] if c == 3 else img[..., [2, 1, 0, 3]]
    return np.ascontiguousarray(rgb)


def encode_bmp(img: np.ndarray) -> bytes:
    """(H, W, 3|4) uint8 RGB(A) -> uncompressed BI_RGB BMP bytes
    (bottom-up, 4-byte row padding)."""
    import struct

    h, w, c = img.shape
    if c not in (3, 4):
        raise ValueError(f"BMP encode needs 3/4 channels, got {c}")
    bgr = img[..., [2, 1, 0]] if c == 3 else img[..., [2, 1, 0, 3]]
    stride = (w * c + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * c] = bgr.reshape(h, w * c)
    data = rows[::-1].tobytes()
    off = 14 + 40
    header = struct.pack("<2sIHHI", b"BM", off + len(data), 0, 0, off)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, c * 8, 0, len(data), 2835, 2835, 0, 0
    )
    return header + dib + data


def encode_pnm(img: np.ndarray) -> bytes:
    """(H, W, 1|3) uint8 -> binary PNM (P5 gray / P6 RGB) bytes."""
    h, w, c = img.shape
    if c not in (1, 3):
        raise ValueError(f"PNM encode needs 1/3 channels, got {c}")
    magic = b"P5" if c == 1 else b"P6"
    return magic + f"\n{w} {h}\n255\n".encode() + img.tobytes()


def decode_pnm(payload: bytes) -> np.ndarray:
    """Pure-numpy decode of binary PNM (P5 gray / P6 RGB, maxval <=
    255) -> (H, W, 1|3) uint8.  Header: magic, whitespace-separated
    width/height/maxval with '#' comments, one whitespace byte, raster."""
    magic = payload[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"only binary PNM (P5/P6) supported, got {magic!r}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if payload[pos : pos + 1] == b"#":  # comment to end of line
            while pos < len(payload) and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(payload[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval > 255:
        raise ValueError(f"only 8-bit PNM supported (maxval {maxval})")
    c = 1 if magic == b"P5" else 3
    img = np.frombuffer(payload, np.uint8, w * h * c, pos).reshape(h, w, c)
    return np.ascontiguousarray(img)





PNG_SIG = b"\x89PNG\r\n\x1a\n"
# color type -> samples per pixel (8-bit depth only)
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def decode_png(payload: bytes) -> np.ndarray:
    """From-scratch PNG decode on stdlib ``zlib`` only — a REAL
    entropy-coded codec branch (the reference delegates this to sharp /
    createImageBitmap, examples/node-cli/ocr.js:10-18, src/utils.ts:4-21;
    public spec: RFC 2083 / ISO 15948).

    Supported: 8-bit gray / gray+alpha / RGB / RGBA / palette,
    non-interlaced, all five row filters (None/Sub/Up/Average/Paeth),
    chunk CRC validation.  -> (H, W, C) uint8.  Sub rows reconstruct as
    a vectorized per-lane cumsum; Up is a vectorized add; only
    Average/Paeth rows (left+up recurrences) loop over pixels."""
    import struct

    if payload[:8] != PNG_SIG:
        raise ValueError("not a PNG payload (missing signature)")
    pos = 8
    ihdr = b""
    plte = b""
    idat: list[bytes] = []
    while pos + 12 <= len(payload):
        ln = int.from_bytes(payload[pos : pos + 4], "big")
        typ = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + ln]
        crc = int.from_bytes(payload[pos + 8 + ln : pos + 12 + ln], "big")
        if zlib.crc32(typ + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {typ!r} CRC mismatch")
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"PLTE":
            plte = data
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        pos += 12 + ln
    if not ihdr or not idat:
        raise ValueError("PNG missing IHDR/IDAT chunks")
    w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth != 8:
        raise ValueError(f"only 8-bit PNG supported (depth {depth})")
    if comp != 0 or filt != 0:
        raise ValueError("nonstandard PNG compression/filter method")
    if interlace != 0:
        raise ValueError("Adam7 interlaced PNG unsupported")
    if color not in _PNG_CHANNELS:
        raise ValueError(f"unsupported PNG color type {color}")
    nch = _PNG_CHANNELS[color]
    stride = w * nch
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG scanline data has wrong length")
    arr = np.frombuffer(raw, np.uint8).reshape(h, stride + 1)
    ftypes = arr[:, 0]
    rows = arr[:, 1:].astype(np.int64)
    out = np.zeros((h, stride), np.uint8)
    prev = np.zeros(stride, np.int64)
    for y in range(h):
        f = int(ftypes[y])
        row = rows[y]
        if f == 0:  # None
            rec = row
        elif f == 1:  # Sub: recon[x] = raw[x] + recon[x-bpp] == lane cumsum
            rec = (np.cumsum(row.reshape(w, nch), axis=0) % 256).reshape(stride)
        elif f == 2:  # Up
            rec = (row + prev) % 256
        elif f == 3:  # Average
            rec = np.empty(stride, np.int64)
            for x in range(stride):
                left = rec[x - nch] if x >= nch else 0
                rec[x] = (row[x] + (left + prev[x]) // 2) % 256
        elif f == 4:  # Paeth
            rec = np.empty(stride, np.int64)
            for x in range(stride):
                a = rec[x - nch] if x >= nch else 0
                b = prev[x]
                c = prev[x - nch] if x >= nch else 0
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                rec[x] = (row[x] + pred) % 256
        else:
            raise ValueError(f"bad PNG row filter {f}")
        out[y] = rec.astype(np.uint8)
        prev = rec
    img = out.reshape(h, w, nch)
    if color == 3:  # indexed: expand through the palette
        if len(plte) < 3:
            raise ValueError("indexed PNG without PLTE")
        pal = np.frombuffer(plte, np.uint8).reshape(-1, 3)
        img = pal[img[:, :, 0]]
    return np.ascontiguousarray(img)


def encode_png(img: np.ndarray, level: int = 6) -> bytes:
    """(H, W, 1|2|3|4) uint8 -> PNG bytes (8-bit, non-interlaced,
    filter-None rows, zlib-compressed IDAT)."""
    import struct

    h, w, c = img.shape
    color = {1: 0, 2: 4, 3: 2, 4: 6}.get(c)
    if color is None:
        raise ValueError(f"PNG encode needs 1/2/3/4 channels, got {c}")
    body = img.reshape(h, w * c)
    raw = np.zeros((h, w * c + 1), np.uint8)
    raw[:, 1:] = body
    idat = zlib.compress(raw.tobytes(), level)

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (
            len(data).to_bytes(4, "big")
            + typ
            + data
            + (zlib.crc32(typ + data) & 0xFFFFFFFF).to_bytes(4, "big")
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


def _fake_raster(ref: str, width: int, height: int, channels: int) -> np.ndarray:
    """Deterministic stand-in decode: seeded gradient + noise raster."""
    rng = np.random.default_rng(zlib.crc32(ref.encode()))
    base = np.linspace(0, 255, width, dtype=np.float32)[None, :, None]
    img = np.broadcast_to(base, (height, width, channels)).copy()
    img += rng.normal(0, 8, img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


class MediaDecodeActor:
    """Decode stage: (media_ref, payload, codec, width, height,
    channels) -> raw ``pixels`` rows.

    ``__init__`` is the once-per-instance setup point (the instance is
    built by the caller and shipped to each map task); ``__call__``
    handles one Arrow batch.
    """

    def __init__(self, fake: str | None = None, on_error: str = "raise"):
        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"on_error must be raise|quarantine, got {on_error!r}")
        self.fake = fake
        self.on_error = on_error

    def _decode_one(self, ref, codec, payload, width, height, channels):
        """One row's decode -> (pixels, h, w, c).  Raises on corrupt or
        unsupported input; the caller decides raise-vs-quarantine."""
        if codec in RAW_CODECS:
            return payload, height, width, channels
        if codec in REAL_CODECS:
            # Genuine codec decode (pure numpy + stdlib zlib) —
            # decoded dimensions are authoritative over the metadata
            # columns.
            if codec == "bmp":
                img = decode_bmp(payload)
            elif codec == "png":
                img = decode_png(payload)
            elif codec == "jpeg":
                from ..functions.jpegcodec import decode_jpeg

                img = decode_jpeg(payload)
            elif codec == "gif":
                from ..functions.gifcodec import decode_gif

                img = decode_gif(payload)
            elif codec == "tiff":
                from ..functions.tiffcodec import decode_tiff

                img = decode_tiff(payload)
            elif codec == "webp":
                from ..functions.webpcodec import decode_webp

                img = decode_webp(payload)
            else:
                img = decode_pnm(payload)
            return img.tobytes(), img.shape[0], img.shape[1], img.shape[2]
        if codec in STUB_CODECS:
            if self.fake == "deterministic":
                return (
                    _fake_raster(ref, width, height, channels).tobytes(),
                    height,
                    width,
                    channels,
                )
            # STUB: compressed-codec decode requires an image/audio
            # library not present in this environment.
            raise NotImplementedError(
                f"decode of codec {codec!r} is stubbed in this environment; "
                "pass fake='deterministic' to exercise the pipeline"
            )
        raise ValueError(f"unknown codec {codec!r}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = _single_chunk(batch.column("media_ref")).to_pylist()
        codecs = _single_chunk(batch.column("codec")).to_pylist()
        payloads = _single_chunk(batch.column("payload"))
        widths = batch.column("width").to_pylist()
        heights = batch.column("height").to_pylist()
        channels = batch.column("channels").to_pylist()
        out = []
        errors: list[str | None] = []
        for i, codec in enumerate(codecs):
            if self.on_error == "raise":
                px, heights[i], widths[i], channels[i] = self._decode_one(
                    refs[i], codec, payloads[i].as_py(), widths[i], heights[i], channels[i]
                )
                out.append(px)
                errors.append(None)
                continue
            # Dead-letter mode: one truncated/garbage payload poisons
            # ONE row (error column set, empty pixels), not the task.
            try:
                px, heights[i], widths[i], channels[i] = self._decode_one(
                    refs[i], codec, payloads[i].as_py(), widths[i], heights[i], channels[i]
                )
                out.append(px)
                errors.append(None)
            except Exception as ex:  # noqa: BLE001 — quarantine, don't die
                out.append(b"")
                widths[i], heights[i], channels[i] = 0, 0, 0
                errors.append(f"{type(ex).__name__}: {ex}")
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "channels": pa.array(channels, pa.int32()),
                "pixels": pa.array(out, pa.binary()),
                "error": pa.array(errors, pa.string()),
            }
        )


def _media_stage(ds, fn, concurrency: int | None, batch_size: int):
    """Wire one media stage: a TASK-compute ``map_batches`` over the
    callable instance ``fn`` (``concurrency`` caps the concurrent tasks,
    ``None`` leaves it to Ray Data).

    The from-scratch codecs are stateless (the only per-process state,
    the JPEG Huffman LUT cache, lives in a module-level ``lru_cache``
    that Ray's reused worker processes keep warm), tasks hand their CPU
    back between batches so they never starve the tasks that feed them
    in a 1- or 2-CPU session, and at sf0.1 the decode task pool measured
    4.7 s where an actor pool measured 13-15 s at EVERY size from 12 to
    28 actors — Ray 2.49's ActorPoolMapOperator ramps up and queues too
    slowly for many sub-second tasks."""
    return ds.map_batches(
        fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def decode_media(
    ds,
    fake: str | None = None,
    concurrency: int | None = None,
    batch_size: int = 16,
):
    """Wire the decode stage: small batches (wide rows), one task per
    batch (``_media_stage``)."""
    return _media_stage(ds, MediaDecodeActor(fake=fake), concurrency, batch_size)


def resize_nearest(batch: pa.Table, out_w: int, out_h: int) -> pa.Table:
    """Real nearest-neighbor resize of raw rasters (vectorized index
    gather per image; the per-image loop is over the batch's few wide
    rows, not corpus rows)."""
    pixels = _single_chunk(batch.column("pixels"))
    widths = batch.column("width").to_pylist()
    heights = batch.column("height").to_pylist()
    channels = batch.column("channels").to_pylist()
    out = []
    for i in range(batch.num_rows):
        w, h, c = widths[i], heights[i], channels[i]
        img = np.frombuffer(pixels[i].as_py(), dtype=np.uint8).reshape(h, w, c)
        ys = (np.arange(out_h) * h // out_h).astype(np.int64)
        xs = (np.arange(out_w) * w // out_w).astype(np.int64)
        out.append(img[ys][:, xs].tobytes())
    t = batch.drop_columns(["pixels", "width", "height"])
    return (
        t.append_column("width", pa.array([out_w] * batch.num_rows, pa.int32()))
        .append_column("height", pa.array([out_h] * batch.num_rows, pa.int32()))
        .append_column("pixels", pa.array(out, pa.binary()))
    )


def media_features(batch: pa.Table) -> pa.Table:
    """Real feature extraction over raw rasters: mean intensity, ink
    density (fraction of dark pixels), aspect ratio.

    All three are EXACT integer ratios evaluated with one IEEE division
    (intensity sums in int64; "dark" is ``r+g+b < 384`` — identically
    ``gray < 128``), so the values are bit-identical to an independent
    engine dividing the same integers (the DuckDB oracle does exactly
    that over fixture-time sums) — no float accumulation order or
    rounding-mode differences can enter."""
    pixels = _single_chunk(batch.column("pixels"))
    widths = batch.column("width").to_pylist()
    heights = batch.column("height").to_pylist()
    channels = batch.column("channels").to_pylist()
    mean_i, ink, aspect = [], [], []
    for i in range(batch.num_rows):
        w, h, c = widths[i], heights[i], channels[i]
        img = np.frombuffer(pixels[i].as_py(), dtype=np.uint8).reshape(h, w, c)
        if c >= 3:
            mean_sum = int(img[..., :3].sum(dtype=np.int64))
            mean_denom = 3 * h * w
            n_dark = int((img[..., :3].sum(axis=2, dtype=np.int32) < 384).sum())
        else:
            mean_sum = int(img[..., 0].sum(dtype=np.int64))
            mean_denom = h * w
            n_dark = int((img[..., 0] < 128).sum())
        mean_i.append(mean_sum / mean_denom)
        ink.append(n_dark / (h * w))
        aspect.append(w / h)
    return pa.table(
        {
            "media_ref": _single_chunk(batch.column("media_ref")),
            "mean_intensity": pa.array(mean_i, pa.float64()),
            "ink_density": pa.array(ink, pa.float64()),
            "aspect_ratio": pa.array(aspect, pa.float64()),
        }
    )


def ahash64(batch: pa.Table) -> np.ndarray:
    """64-bit perceptual average-hash per raster row (the LAION-style
    image-dedup sketch): luma via exact integer weights
    ``(299*r + 587*g + 114*b) // 1000`` (alpha ignored), an 8x8 grid of
    block sums with pixel->block mapping ``(coord * 8) // extent``, and
    bit j set iff ``block_sum * n_pixels > total_sum * block_count``
    (integer cross-multiplication — NO float means, so an independent
    engine replaying the same integers produces bit-identical hashes;
    the phash_dedup DuckDB oracle does exactly that from the hex bytes).
    The per-image loop is over a batch's few rows; everything inside is
    vectorized numpy.  Returns one uint64 signature per row."""
    pixels = _single_chunk(batch.column("pixels"))
    widths = batch.column("width").to_pylist()
    heights = batch.column("height").to_pylist()
    channels = batch.column("channels").to_pylist()
    shifts = np.arange(64, dtype=np.uint64)
    out = np.empty(batch.num_rows, np.uint64)
    for i in range(batch.num_rows):
        w, h, c = widths[i], heights[i], channels[i]
        img = np.frombuffer(pixels[i].as_py(), dtype=np.uint8).reshape(h, w, c)
        a = img.astype(np.int64)
        if c >= 3:
            v = (299 * a[..., 0] + 587 * a[..., 1] + 114 * a[..., 2]) // 1000
        else:
            v = a[..., 0]
        bidx = (
            ((np.arange(h, dtype=np.int64) * 8) // h)[:, None] * 8
            + ((np.arange(w, dtype=np.int64) * 8) // w)[None, :]
        )
        bsum = np.zeros(64, np.int64)
        np.add.at(bsum, bidx.ravel(), v.ravel())
        bcnt = np.bincount(bidx.ravel(), minlength=64)
        bits = bsum * (h * w) > int(v.sum()) * bcnt
        out[i] = (bits.astype(np.uint64) << shifts).sum(dtype=np.uint64)
    return out


def sample_frames(batch: pa.Table, every_nth: int = 10) -> pa.Table:
    """Frame sampling for raw concatenated-frame video payloads
    (codec="raw": payload = n_frames × h × w × c bytes) — REAL slicing.
    Compressed video is part of the decode stub above."""
    pixels = _single_chunk(batch.column("payload"))
    widths = batch.column("width").to_pylist()
    heights = batch.column("height").to_pylist()
    channels = batch.column("channels").to_pylist()
    refs = _single_chunk(batch.column("media_ref")).to_pylist()
    rows = []
    for i in range(batch.num_rows):
        w, h, c = widths[i], heights[i], channels[i]
        frame_bytes = w * h * c
        buf = pixels[i].as_py()
        n_frames = len(buf) // frame_bytes
        for f in range(0, n_frames, every_nth):
            rows.append(
                {
                    "media_ref": refs[i],
                    "frame_index": f,
                    "width": w,
                    "height": h,
                    "channels": c,
                    "pixels": buf[f * frame_bytes : (f + 1) * frame_bytes],
                }
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("media_ref", pa.string()),
                ("frame_index", pa.int32()),
                ("width", pa.int32()),
                ("height", pa.int32()),
                ("channels", pa.int32()),
                ("pixels", pa.binary()),
            ]
        ),
    )


class AudioFeatureActor:
    """Audio stage: decode WAV payloads (REAL from-scratch
    RIFF codec — PCM and compressed IMA ADPCM essences,
    functions/{wavcodec,adpcmcodec}.py) and emit per-clip features.
    Same shape as MediaDecodeActor: setup in ``__init__`` once per
    instance, per-batch decode loop over opaque binary payloads,
    column-wise Arrow output."""

    def __init__(self, id_col: str = "media_ref", on_error: str = "raise"):
        from ..functions import wavcodec

        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"on_error must be raise|quarantine, got {on_error!r}")
        self._wav = wavcodec
        self.id_col = id_col
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.adpcmcodec import decode_adpcm_many, samples_per_block

        payloads = _single_chunk(batch.column("payload"))
        n = batch.num_rows
        rate = np.zeros(n, np.int64)
        n_samples = np.zeros(n, np.int64)
        n_ch = np.zeros(n, np.int64)
        rms = np.zeros(n, np.float64)
        peak = np.zeros(n, np.int64)
        errors: list[str | None] = [None] * n
        decoded: list[np.ndarray | None] = [None] * n
        # pass 1: per-clip container walk (cheap); PCM decodes inline
        # (one frombuffer view), ADPCM clips are VALIDATED here then
        # grouped by block_align so the spb-step recurrence runs once
        # per group, not once per clip (the per-position numpy dispatch
        # dominated per-clip decodes — VERDICT r04 item 5)
        adpcm: dict[int, list[tuple[int, bytes, int | None]]] = {}
        for i in range(n):
            try:
                fmt, data, fact = self._wav.parse_wav(payloads[i].as_py())
                audio_format, ch, r, _br, block_align, bits = fmt
                if audio_format == 0x11:
                    if ch != 1:
                        raise ValueError("IMA ADPCM decode supports mono streams only")
                    if bits != 4:
                        raise ValueError(f"IMA ADPCM requires 4 bits/sample, got {bits}")
                    spb = samples_per_block(block_align)
                    nb = len(data) // block_align
                    if nb == 0:
                        raise ValueError("ADPCM stream shorter than one block")
                    if fact is not None and fact > nb * spb:
                        raise ValueError(
                            f"fact chunk claims {fact} samples but stream holds {nb * spb}"
                        )
                    adpcm.setdefault(block_align, []).append((i, data, fact))
                    rate[i] = r
                elif audio_format == 1:
                    decoded[i] = self._wav.decode_pcm_data(data, ch, bits)
                    rate[i] = r
                else:
                    raise ValueError(
                        f"only PCM/IMA-ADPCM WAV supported (format tag {audio_format})"
                    )
            except Exception as ex:  # noqa: BLE001 — dead-letter, don't die
                if self.on_error == "raise":
                    raise
                # quarantine: one corrupt clip poisons ONE row (error
                # column set, zeroed features), not the whole task
                errors[i] = f"{type(ex).__name__}: {ex}"
        # pass 2: one batched recurrence per block_align group (every
        # clip in a group was validated above, so the batch cannot fail)
        for ba, items in adpcm.items():
            outs = decode_adpcm_many(
                [d for _, d, _ in items], ba, [f for _, _, f in items]
            )
            for (idx, _, _), s in zip(items, outs):
                decoded[idx] = s.reshape(-1, 1)
        for i in range(n):
            samples = decoded[i]
            if samples is None:
                continue
            f = samples.astype(np.float64)
            n_samples[i], n_ch[i] = samples.shape
            rms[i] = float(np.sqrt(np.mean(f * f))) if samples.size else 0.0
            peak[i] = int(np.abs(f).max()) if samples.size else 0
        cols = {
            self.id_col: batch.column(self.id_col),
            "sample_rate": pa.array(rate, pa.int64()),
            "n_samples": pa.array(n_samples, pa.int64()),
            "n_channels": pa.array(n_ch, pa.int64()),
            "rms": pa.array(rms, pa.float64()),
            "peak": pa.array(peak, pa.int64()),
        }
        if self.on_error == "quarantine":
            cols["error"] = pa.array(errors, pa.string())
        return pa.table(cols)


def audio_features(
    ds,
    id_col: str = "media_ref",
    concurrency: int | None = None,
    batch_size: int = 64,
    on_error: str = "raise",
):
    """WAV decode + feature extraction over a Dataset with
    (id_col, payload) columns, as map tasks (``_media_stage``).
    ``on_error="quarantine"`` adds an ``error`` column instead of failing
    the task on a corrupt clip (the dead-letter discipline of
    MediaDecodeActor/OcrActor)."""
    return _media_stage(
        ds, AudioFeatureActor(id_col=id_col, on_error=on_error), concurrency, batch_size
    )


class VideoFrameActor:
    """Video stage: decode AVI payloads (REAL from-scratch
    RIFF container + uncompressed-DIB frame codec,
    functions/avicodec.py) and fan out one row per SAMPLED frame —
    the frame-sampling shape a multimodal training pipeline runs
    before per-frame feature extraction.  Same discipline as
    MediaDecodeActor: codec bound once per instance in ``__init__``,
    per-batch decode loop over opaque binary payloads, column-wise
    Arrow output.  ``stride`` picks every stride-th frame (frame 0
    always included); ``emit_pixels=True`` additionally carries each
    sampled frame's raw RGB bytes — the hand-off a vision-encoder
    feature stage consumes downstream (wide rows: callers pass a
    small batch_size so batch x concurrency fits a worker heap)."""

    def __init__(
        self,
        id_col: str = "media_ref",
        stride: int = 2,
        emit_pixels: bool = False,
        on_error: str = "raise",
    ):
        from ..functions.avicodec import decode_avi

        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"on_error must be raise|quarantine, got {on_error!r}")
        self._decode = decode_avi
        self.id_col = id_col
        self.stride = stride
        self.emit_pixels = emit_pixels
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = _single_chunk(batch.column("payload"))
        ids_src = _single_chunk(batch.column(self.id_col))
        idx: list[int] = []
        frame_idx: list[int] = []
        nf: list[int] = []
        ww: list[int] = []
        hh: list[int] = []
        fpss: list[float] = []
        means: list[float] = []
        pix: list[bytes] = []
        errors: list[str | None] = []
        for i in range(batch.num_rows):
            try:
                frames, fps = self._decode(payloads[i].as_py())
            except Exception as ex:  # noqa: BLE001 — dead-letter, don't die
                if self.on_error == "raise":
                    raise
                # quarantine: ONE error row for the corrupt clip
                # (frame_idx -1, zeroed metadata), not a dead task
                idx.append(i)
                frame_idx.append(-1)
                nf.append(0)
                ww.append(0)
                hh.append(0)
                fpss.append(0.0)
                means.append(0.0)
                if self.emit_pixels:
                    pix.append(b"")
                errors.append(f"{type(ex).__name__}: {ex}")
                continue
            n, h, w, _ = frames.shape
            for k in range(0, n, self.stride):
                idx.append(i)
                frame_idx.append(k)
                nf.append(n)
                ww.append(w)
                hh.append(h)
                fpss.append(fps)
                means.append(float(frames[k].mean()))
                if self.emit_pixels:
                    pix.append(frames[k].tobytes())
                errors.append(None)
        cols = {
            self.id_col: ids_src.take(pa.array(idx, pa.int64())),
            "frame_idx": pa.array(frame_idx, pa.int64()),
            "n_frames": pa.array(nf, pa.int64()),
            "width": pa.array(ww, pa.int64()),
            "height": pa.array(hh, pa.int64()),
            "fps": pa.array(fpss, pa.float64()),
            "mean_val": pa.array(means, pa.float64()),
        }
        if self.emit_pixels:
            cols["pixels"] = pa.array(pix, pa.binary())
        if self.on_error == "quarantine":
            cols["error"] = pa.array(errors, pa.string())
        return pa.table(cols)


def video_frames(
    ds,
    id_col: str = "media_ref",
    stride: int = 2,
    concurrency: int | None = None,
    batch_size: int = 16,
    emit_pixels: bool = False,
    on_error: str = "raise",
):
    """AVI decode + frame sampling over a Dataset with (id_col, payload)
    columns, as map tasks (``_media_stage``).  Video payloads are the widest rows in the
    engine (frames x stride x height), so the default batch_size is
    small — batch x concurrency must fit a worker heap.
    ``on_error="quarantine"`` emits one error row per corrupt clip
    instead of failing the task (the MediaDecodeActor dead-letter
    discipline)."""
    stage = VideoFrameActor(
        id_col=id_col, stride=stride, emit_pixels=emit_pixels, on_error=on_error
    )
    return _media_stage(ds, stage, concurrency, batch_size)
