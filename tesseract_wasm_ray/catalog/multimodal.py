"""Media queries: image/audio/video/PDF codec round trips, media
features, perceptual-hash dedup and image k-NN, each beside its oracle
(closed-form truth or golden-table SQL).
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..fixtures import corpus_for
from ..functions.arrow_util import single_chunk as _single_chunk_q
from ..functions.fastmd5 import md5_hex
from ..pipelines.dedup import ahash_image_dedup
from ..pipelines.joins import bucket_map_groups
from . import register
from .common import _G01, _docs, _run_rank


def q_pdf_text(sf_dir: str):
    """PDF text + layout parse (north-rule operator: "PDF/layout
    parse") over the REAL from-scratch PDF codec
    (functions/pdfcodec.py).  Each doc's first 40 tokens typeset into
    8-token lines across one or two pages (>3 lines spill to page 2),
    md5-routed through FlateDecode or raw content streams, then decoded
    by the stateless task-pool stage: trailer → page-tree walk → stream
    inflate → content-stream tokenizer → per-page lines.  Extracted
    pages join with form-feeds; the oracle rebuilds the exact expected
    text from the source tokens in SQL, so the whole encode → parse
    round trip is value-gated (escaping makes it text-exact for any
    input)."""
    from ..functions.pdfcodec import decode_pdf_text, encode_pdf

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        payloads = []
        for d, t in zip(ids, texts):
            toks = (t or "").split()[:40]
            lines = [" ".join(toks[i : i + 8]) for i in range(0, len(toks), 8)]
            pages = [lines[:3]] if len(lines) <= 3 else [lines[:3], lines[3:]]
            comp = int(hashlib.md5(str(d).encode()).hexdigest()[6:8], 16) % 2 == 0
            payloads.append(encode_pdf(pages, compress=comp))
        return pa.table(
            {"doc_id": b.column("doc_id"), "payload": pa.array(payloads, pa.binary())}
        )

    def decode(b: pa.Table) -> pa.Table:
        payloads = _single_chunk_q(b.column("payload"))
        texts, n_pages = [], []
        for i in range(b.num_rows):
            pages = decode_pdf_text(payloads[i].as_py())
            texts.append("\f".join(pages))
            n_pages.append(len(pages))
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": pa.array(texts, pa.string()),
                "n_pages": pa.array(n_pages, pa.int64()),
            }
        )

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(synth, batch_format="pyarrow")
        .map_batches(decode, batch_format="pyarrow")
    )


# PDF round trip: expected text rebuilt from source tokens (8-token
# lines, >3 lines spill to a second page joined by form-feed)
register("pdf_text", q_pdf_text, oracle=r"""
        WITH lim AS (
            SELECT doc_id, tk[1:least(len(tk), 40)] AS tk,
                   least(len(tk), 40) AS nt
            FROM (SELECT doc_id, regexp_extract_all(text, '\S+') AS tk
                  FROM documents)
        ), lines AS (
            SELECT doc_id,
                   [array_to_string(tk[(i*8+1):least(i*8+8, nt)], ' ')
                    FOR i IN generate_series(0, CAST(ceil(nt / 8.0) AS INT) - 1)]
                       AS ls
            FROM lim
        )
        SELECT doc_id,
               array_to_string(ls[1:least(len(ls), 3)], chr(10)) ||
               CASE WHEN len(ls) > 3
                    THEN chr(12) || array_to_string(ls[4:len(ls)], chr(10))
                    ELSE '' END AS text,
               (CASE WHEN len(ls) > 3 THEN 2 ELSE 1 END)::BIGINT AS n_pages
        FROM lines
    """)


def q_audio_features(sf_dir: str):
    """Audio-modality plumbing over REAL from-scratch WAV codecs
    (functions/wavcodec.py): md5(doc_id) routes each doc to either a
    ±A square wave in uncompressed PCM or a constant-A clip in
    COMPRESSED mono IMA ADPCM (format tag 0x0011,
    functions/adpcmcodec.py — the MJPEG-in-AVI analogue for audio; a
    DC signal encodes to all-zero nibbles so the 4-bit round trip is
    bit-exact and the fact-chunk trim restores the exact length).
    Both waveforms have RMS exactly A and peak exactly A, so ONE
    closed-form oracle gates both container paths — amplitude and
    length are md5-derived so DuckDB recomputes them without running
    either codec."""
    from ..functions.wavcodec import encode_wav, encode_wav_adpcm_many
    from ..stages.multimodal import audio_features

    def synth(b: pa.Table) -> pa.Table:
        hx = md5_hex(b.column("doc_id"), prefix=6).to_pylist()
        n_rows = b.num_rows
        payloads: list[bytes | None] = [None] * n_rows
        adpcm_idx: list[int] = []
        adpcm_waves: list[np.ndarray] = []
        alt = ((np.arange(4000 + 255 * 8) % 2) * 2 - 1).astype(np.int16)
        for i, h in enumerate(hx):
            amp = int(h[:2], 16) % 50 + 50
            n = 4000 + int(h[2:4], 16) * 8
            if int(h[4:6], 16) % 2:
                # block_align 64 -> 121 samples/block: enough blocks
                # per clip that the across-block vectorized codec loop
                # stays short; the whole batch's blocks run through ONE
                # recurrence (encode_wav_adpcm_many)
                adpcm_idx.append(i)
                adpcm_waves.append(np.full(n, amp, np.int16))
            else:
                wave = alt[:n] * np.int16(amp)
                payloads[i] = encode_wav(wave, 8000)
        if adpcm_waves:
            for i, p in zip(
                adpcm_idx, encode_wav_adpcm_many(adpcm_waves, 8000, block_align=64)
            ):
                payloads[i] = p
        return pa.table(
            {"doc_id": b.column("doc_id"), "payload": pa.array(payloads, pa.binary())}
        )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    return audio_features(ds, id_col="doc_id", batch_size=256)


# closed-form truth for the WAV chain: amplitude/length are
# md5-derived, a ±A square wave has RMS = peak = A exactly
register("audio_features", q_audio_features, oracle="""
        SELECT doc_id,
               8000::BIGINT AS sample_rate,
               4000 + ('0x' || substr(md5(doc_id::VARCHAR), 3, 2))::INT * 8 AS n_samples,
               1::BIGINT AS n_channels,
               (('0x' || substr(md5(doc_id::VARCHAR), 1, 2))::INT % 50 + 50)::DOUBLE AS rms,
               (('0x' || substr(md5(doc_id::VARCHAR), 1, 2))::INT % 50 + 50)::BIGINT AS peak
        FROM documents
    """)


def q_media_decode(sf_dir: str):
    """Multimodal decode -> resize plumbing over REAL codecs: every
    third page (stable crc32 of its ref) is wrapped as a COMPRESSED
    PNG (from-scratch codec on stdlib zlib), one slice of the
    remaining grayscale pages as baseline JPEG (from-scratch DCT +
    Huffman codec, functions/jpegcodec.py — lossy, which is safe here
    because the query output is metadata + thumbnail byte counts),
    another slice as GIF (from-scratch LZW codec with variable code
    widths + dictionary resets, functions/gifcodec.py — lossless), a
    third as TIFF (functions/tiffcodec.py — MSB/early-change LZW with
    horizontal-differencing predictor for gray, PackBits for an RGBA
    slice), an RGBA slice as lossless WebP/VP8L (functions/webpcodec.py
    — prefix codes + LZ77 + subtract-green, from scratch), the other
    gray pages as binary PGM (P5) and RGBA pages as uncompressed
    32-bit BMP; the task pool then decodes all seven from scratch
    (pure numpy + stdlib zlib — see stages.multimodal) and resizes to
    32x32 thumbnails.  Only compressed audio/video essences (mp3/h264)
    remain stubbed per the driver brief (no codec libs here)."""
    from ..functions.gifcodec import encode_gif
    from ..functions.jpegcodec import encode_jpeg
    from ..functions.tiffcodec import encode_tiff
    from ..functions.webpcodec import encode_webp
    from ..stages.multimodal import (
        decode_media,
        encode_bmp,
        encode_png,
        encode_pnm,
        resize_nearest,
    )

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(paths["media"])

    def as_payload(b: pa.Table) -> pa.Table:
        from ..functions.arrow_util import single_chunk

        pixels = single_chunk(b.column("pixels"))
        widths = b.column("width").to_pylist()
        heights = b.column("height").to_pylist()
        chans = b.column("channels").to_pylist()
        payloads, codecs = [], []
        refs = single_chunk(b.column("media_ref")).to_pylist()
        for i in range(b.num_rows):
            w, h, c = widths[i], heights[i], chans[i]
            img = np.frombuffer(pixels[i].as_py(), np.uint8).reshape(h, w, c)
            crc = zlib.crc32(refs[i].encode())
            if crc % 3 == 0:
                payloads.append(encode_png(img))
                codecs.append("png")
            elif c == 1 and crc % 5 == 1:
                payloads.append(encode_jpeg(img, quality=92))
                codecs.append("jpeg")
            elif c == 1 and crc % 5 == 2:
                payloads.append(encode_gif(img))
                codecs.append("gif")
            elif c == 1 and crc % 5 == 3:
                payloads.append(encode_tiff(img, compression="lzw", predictor=True))
                codecs.append("tiff")
            elif c == 4 and crc % 5 == 1:
                payloads.append(encode_tiff(img, compression="packbits"))
                codecs.append("tiff")
            elif c == 4 and crc % 5 == 2:
                payloads.append(encode_webp(img))
                codecs.append("webp")
            elif c == 1:
                payloads.append(encode_pnm(img))
                codecs.append("pgm")
            else:
                payloads.append(encode_bmp(img))
                codecs.append("bmp")
        return pa.table(
            {
                "media_ref": b.column("media_ref"),
                "payload": pa.array(payloads, pa.binary()),
                "codec": pa.array(codecs, pa.string()),
                "width": b.column("width"),
                "height": b.column("height"),
                "channels": b.column("channels"),
            }
        )

    # Task-pool decode (decode_media's default): the codecs are
    # stateless, and at sf0.1 the task pool measured 4.7 s where actor
    # pools measured 13-15 s at every size from 12 to 28 actors (Ray
    # 2.49's ActorPoolMapOperator ramps/queues too slowly for many
    # sub-second tasks).  Tasks also can't starve upstream encode the
    # way a fixed pool did in 8-cpu sessions (measured deadlock,
    # RAY_NOTES.md).
    decoded = decode_media(
        media.map_batches(as_payload, batch_format="pyarrow"),
        batch_size=16,
    )
    thumbs = decoded.map_batches(
        lambda b: resize_nearest(b, 32, 32), batch_format="pyarrow"
    )
    return thumbs.map_batches(
        lambda b: pa.table(
            {
                "media_ref": b.column("media_ref"),
                "width": b.column("width"),
                "height": b.column("height"),
                "thumb_bytes": pc.binary_length(b.column("pixels")),
            }
        ),
        batch_format="pyarrow",
    )


register("media_decode", q_media_decode, oracle=f"""
            SELECT media_ref, 32::INTEGER AS width, 32::INTEGER AS height,
                   (1024 * channels)::INTEGER AS thumb_bytes
            FROM read_parquet('{_G01}/media/*.parquet')
        """)


def q_media_features(sf_dir: str):
    """Raster feature extraction (multimodal stage) over synthetic media.
    No rounding: the features are exact integer ratios (see
    stages.multimodal.media_features), so the oracle compares full
    float64 values."""
    from ..stages.multimodal import media_features

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(paths["media"])
    return media.map_batches(media_features, batch_format="pyarrow")


register("media_features", q_media_features, oracle=f"""
            SELECT media_ref,
                   mean_sum::DOUBLE / mean_denom AS mean_intensity,
                   n_dark::DOUBLE / n_pix AS ink_density,
                   width::DOUBLE / height AS aspect_ratio
            FROM read_parquet('{_G01}/golden_pages/*.parquet')
        """)


def _plant_image_variants(b: pa.Table) -> pa.Table:
    """Deterministic image-copy planting for phash_dedup (mirrored
    byte-for-byte by the SQL oracle): images whose md5(media_ref) hex
    starts with 0-3 gain a LOW-AMPLITUDE copy (every pixel byte XOR 1 —
    a ±1 intensity wiggle, the arithmetic stand-in for a re-encoded
    thumbnail) that must land within a few ahash bits and be REMOVED;
    images starting with 4-5 gain an INVERTED copy (255 - byte) whose
    block-vs-global-mean bits all flip — the negative control that must
    SURVIVE.  Variant ids sort after their originals, so the original
    is always the cluster survivor."""
    refs = _single_chunk_q(b.column("media_ref")).to_pylist()
    pix = _single_chunk_q(b.column("pixels"))
    keep = [b]
    v_ref, v_pix, v_rows = [], [], []
    for i, r in enumerate(refs):
        h0 = hashlib.md5(r.encode()).hexdigest()[0]
        if h0 in "0123":
            arr = np.frombuffer(pix[i].as_py(), np.uint8) ^ 1
            v_ref.append(r + "~v2")
        elif h0 in "45":
            arr = 255 - np.frombuffer(pix[i].as_py(), np.uint8)
            v_ref.append(r + "~neg")
        else:
            continue
        v_pix.append(arr.tobytes())
        v_rows.append(i)
    if v_rows:
        idx = pa.array(v_rows, pa.int64())
        keep.append(
            pa.table(
                {
                    "media_ref": pa.array(v_ref, pa.string()),
                    "width": pc.take(b.column("width"), idx),
                    "height": pc.take(b.column("height"), idx),
                    "channels": pc.take(b.column("channels"), idx),
                    "pixels": pa.array(v_pix, pa.binary()),
                }
            )
        )
    return pa.concat_tables(
        [t.select(["media_ref", "width", "height", "channels", "pixels"]) for t in keep]
    )


def q_phash_dedup(sf_dir: str):
    """Perceptual-hash image near-dup dedup (the LAION-style multimodal
    dedup pass): plant low-amplitude and inverted copies of a md5-routed
    slice of the media corpus, sketch every raster to a 64-bit integer
    average-hash, and remove any image within hamming <= 3 of a
    smaller-id image (4-block pigeonhole candidates — complete at that
    radius — then exact hamming verify; only int rows shuffle, pixels
    never leave their map task).  The DuckDB oracle re-derives the SAME
    hash from hex-exploded pixel bytes and replays the EXISTS rule, so
    this is value-gated end to end."""

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(
        paths["media"], columns=["media_ref", "width", "height", "channels", "pixels"]
    )
    # ahash_image_dedup consumes its input twice (sketch pass +
    # anti-join pass); materialize the planted table once so the
    # read+plant lineage doesn't re-execute per consumer.  At real
    # scale the planted/ingested corpus is already a parquet table on
    # disk, so this cache is a bench-scale stand-in for "read twice".
    planted = media.map_batches(_plant_image_variants, batch_format="pyarrow").materialize()
    survivors = ahash_image_dedup(planted, id_col="media_ref", max_hamming=3)
    return survivors.map_batches(
        lambda b: b.select(["media_ref", "width", "height"]), batch_format="pyarrow"
    )


# Full independent-engine recompute of the 64-bit average-hash
# from hex-exploded pixel bytes.  The two-level chunked explode
# (raster row -> 32-pixel segment -> byte) exists because
# DuckDB's unnest flattening COPIES the carried string per
# emitted row: exploding straight to pixels drags the whole
# ~40 KB hex blob through 2.6M rows (~100 GB of memcpy, 80+ s);
# cutting to a ~1.4 KB row string, then a ~256 B segment, makes
# the same query ~2 s.  Planting (byte XOR 1 / 255-byte,
# md5-routed), luma (299/587/114 // 1000), the (coord*8)//extent
# block grid, the integer cross-multiplied bit rule and the
# EXISTS-smaller-id-within-hamming-3 keep rule all mirror
# stages.multimodal.ahash64 + dedup.ahash_image_dedup exactly.
register("phash_dedup", q_phash_dedup, oracle=f"""
            WITH base AS (
                SELECT media_ref AS id, width, height, channels::BIGINT AS c,
                       width::BIGINT * height::BIGINT AS npx, hex(pixels) AS hx, 0 AS mode
                FROM read_parquet('{_G01}/media/*.parquet')
            ),
            aug AS (
                SELECT * FROM base
                UNION ALL
                SELECT id || '~v2', width, height, c, npx, hx, 1 FROM base
                WHERE substr(md5(id), 1, 1) IN ('0','1','2','3')
                UNION ALL
                SELECT id || '~neg', width, height, c, npx, hx, 2 FROM base
                WHERE substr(md5(id), 1, 1) IN ('4','5')
            ),
            lvl1 AS (
                SELECT id, npx, width, height, c, mode, r,
                       substr(hx, CAST(r*width*c*2 + 1 AS BIGINT), CAST(width*c*2 AS BIGINT)) AS rowhex
                FROM (SELECT id, npx, width::BIGINT AS width, height::BIGINT AS height, c, mode, hx,
                             unnest(range(height)) AS r FROM aug)
            ),
            lvl2 AS (
                SELECT id, npx, width, height, c, mode, r, k,
                       substr(rowhex, CAST(k*64*c + 1 AS BIGINT), CAST(64*c AS BIGINT)) AS seg
                FROM (SELECT *, unnest(range((width + 31) // 32)) AS k FROM lvl1)
            ),
            px AS (
                SELECT id, npx, width, height, c, mode, r, k*32 + j AS col,
                       CAST('0x' || substr(seg, CAST(j*c*2 + 1 AS BIGINT), 2) AS BIGINT) AS r0,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+1)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS r1,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+2)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS r2
                FROM (SELECT *, unnest(range(least(32, width - k*32))) AS j FROM lvl2)
            ),
            lum AS (
                SELECT id, npx, width, height,
                   ((r * 8) // height) * 8 + ((col * 8) // width) AS bidx,
                   CASE WHEN c = 1 THEN b0 ELSE (299*b0 + 587*b1 + 114*b2) // 1000 END AS v
                FROM (
                  SELECT id, npx, width, height, c, r, col,
                    CASE mode WHEN 1 THEN r0 + 1 - 2*(r0 % 2) WHEN 2 THEN 255 - r0 ELSE r0 END AS b0,
                    CASE mode WHEN 1 THEN r1 + 1 - 2*(r1 % 2) WHEN 2 THEN 255 - r1 ELSE r1 END AS b1,
                    CASE mode WHEN 1 THEN r2 + 1 - 2*(r2 % 2) WHEN 2 THEN 255 - r2 ELSE r2 END AS b2
                  FROM px
                )
            ),
            blocks AS (
                SELECT id, bidx, sum(v) AS bsum, count(*) AS bcnt, max(npx) AS npx
                FROM lum GROUP BY 1, 2
            ),
            tot AS (SELECT id, sum(v) AS tsum FROM lum GROUP BY id),
            bit AS (
                SELECT b.id, b.bidx,
                       CASE WHEN b.bsum * b.npx > t.tsum * b.bcnt THEN 1 ELSE 0 END AS bit
                FROM blocks b JOIN tot t USING (id)
            ),
            ham AS (
                SELECT x.id AS hi, sum(CASE WHEN x.bit <> y.bit THEN 1 ELSE 0 END) AS d
                FROM bit x JOIN bit y ON x.bidx = y.bidx AND x.id > y.id
                GROUP BY x.id, y.id
            )
            SELECT a.id AS media_ref, a.width, a.height
            FROM aug a
            WHERE a.id NOT IN (SELECT DISTINCT hi FROM ham WHERE d <= 3)
        """)


def q_image_knn(sf_dir: str, broadcast_budget_bytes: int = 256 << 20):
    """Image similarity search (the LAION-style multimodal retrieval
    pass, composing the decode and similarity families): every raster
    sketches to the 64-bit integer average-hash (pixels never leave
    their map task), an md5-routed query subset's sketches broadcast
    in 256 MB-capped CHUNKS (the lookup_join_auto byte-budget
    discipline: the driver holds at most one chunk's (id, hash) rows
    transiently, however large the query set grows), each block
    computes vectorized XOR-popcount hamming distances against the
    chunk's query matrix and emits ONLY its local top-3 per query, and
    the (queries x blocks x 3) partials fold DISTRIBUTED — bucketed by
    query_ref through one small groupby, never through driver pandas
    (VERDICT r04 item 1: results cross the boundary, corpora don't —
    the worker-isolation principle of /root/reference/src/worker.ts:14-20).
    Deterministic tie-break (distance, neighbor id); self-matches
    excluded.  The DuckDB oracle re-derives the SAME hash bits from
    hex-exploded pixel bytes (the phash_dedup chain) and replays the
    rank."""
    from ..functions.sketch import hash_string_array
    from ..stages.multimodal import ahash64

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(
        paths["media"], columns=["media_ref", "width", "height", "channels", "pixels"]
    )

    def hash_pass(b: pa.Table) -> pa.Table:
        # md5 prefix (vectorized kernel) selects the query subset
        # (hex[0] in '67', ~1/8 — mirrored by the oracle); the FNV
        # buffer hash routes queries to broadcast chunks (pure
        # partitioning of the query set: any deterministic key gives
        # the same union, so no md5 parity needed).  Both computed
        # ONCE here — no recompute per chunk pass.
        is_q = pc.is_in(
            md5_hex(b.column("media_ref"), prefix=1), value_set=pa.array(["6", "7"])
        )
        fnv = hash_string_array(_single_chunk_q(b.column("media_ref")))
        return pa.table(
            {
                "media_ref": b.column("media_ref"),
                "h": pa.array(ahash64(b).view(np.int64), pa.int64()),
                "is_q": is_q,
                "qkey": pa.array(
                    ((fnv >> np.uint64(24)) & np.uint64(0xFFF)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    hashes = media.map_batches(hash_pass, batch_format="pyarrow").materialize()

    # Streaming probe (the lookup_join_auto discipline): pull the
    # DISTRIBUTED-filtered query rows to the driver only until the
    # ~64 B/row budget; the common case (query set fits) costs ONE
    # filter pass and no count.  On overflow the prefix is discarded
    # and the run falls back to FNV-routed broadcast chunks — up to
    # 4096 (~1.1e9 queries at 256 MB) before the knob must move to a
    # pruned read.
    budget_rows = max(1, int(broadcast_budget_bytes) // 64)
    q_batches: list[pa.Table] = []
    got = 0
    overflow = False
    for qb in hashes.map_batches(
        lambda b: b.filter(b.column("is_q")), batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        q_batches.append(qb)
        got += qb.num_rows
        if got > budget_rows:
            overflow = True
            break
    if overflow:
        n_queries = hashes.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [int(pc.sum(pc.cast(b.column("is_q"), pa.int64())).as_py() or 0)],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
        n_chunks = min(4096, max(1, -(-int(n_queries or 0) // budget_rows)))
    else:
        n_queries = got
        n_chunks = 1

    K = 3
    partial_schema = pa.schema(
        [
            ("query_ref", pa.string()),
            ("neighbor_ref", pa.string()),
            ("hamming", pa.int64()),
        ]
    )

    pop_lut = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1, dtype=np.uint8
    )

    def make_block_topk(q_ref):
        def block_topk(b: pa.Table) -> pa.Table:
            qids_b, qh = ray.get(q_ref)
            n = b.num_rows
            if n == 0 or len(qids_b) == 0:
                return partial_schema.empty_table()
            ids = np.asarray(b.column("media_ref").to_pylist(), dtype=object)
            # pre-sort the block by id so a stable distance sort yields
            # the (distance, neighbor id) tie-break without object lexsort
            order = np.argsort(ids)
            ids, h = ids[order], b.column("h").to_numpy(zero_copy_only=False)[order]
            hu, qu = h.view(np.uint64), qh.view(np.uint64)
            # query COLUMNS processed in chunks sized so the (n, qc, 8)
            # popcount intermediate stays ~64 MB — the whole (n, Q)
            # matrix would be gigabytes once Q is a corpus-scale query
            # set, and a map task's heap must stay bounded
            if n >= 1 << 20:
                raise ValueError(
                    f"block of {n} rows exceeds the 2^20 composite-key budget; "
                    "lower target_max_block_size"
                )
            qc = int(max(256, min(len(qu), (64 << 20) // max(n * 8, 1))))
            rowpos = np.arange(n, dtype=np.int64)[:, None]
            parts = []
            for q0 in range(0, len(qu), qc):
                qh_c = qu[q0 : q0 + qc]
                qids_c = qids_b[q0 : q0 + qc]
                x = hu[:, None] ^ qh_c[None, :]
                d = pop_lut[x.view(np.uint8)].reshape(n, len(qh_c), 8).sum(
                    axis=2, dtype=np.int64
                )
                # top K+1 per query column by the composite (distance,
                # row-position) key: ids are pre-sorted, so row position
                # IS the id tie-break, the key is collision-free, and
                # argpartition selects in O(n) per column (a full
                # stable argsort was O(n log n) x Q — the wall at a
                # 36k-query corpus run); the K+1 winners then sort
                # exactly.  Self-matches drop after selection.
                kk = min(K + 1, n)
                key = d * (1 << 20) + rowpos
                top = np.argpartition(key, kk - 1, axis=0)[:kk]
                ordr = np.argsort(np.take_along_axis(key, top, axis=0), axis=0)
                top = np.take_along_axis(top, ordr, axis=0)
                cand = ids[top]  # (<=K+1, qc) neighbor ids
                valid = cand != qids_c[None, :]
                sel = valid & (np.cumsum(valid, axis=0) <= K)
                qcol = np.broadcast_to(qids_c[None, :], sel.shape)
                dist = np.take_along_axis(d, top, axis=0)
                parts.append(
                    pa.table(
                        {
                            "query_ref": pa.array(qcol[sel], pa.string()),
                            "neighbor_ref": pa.array(cand[sel], pa.string()),
                            "hamming": pa.array(dist[sel], pa.int64()),
                        }
                    )
                )
            return pa.concat_tables(parts)

        return block_topk

    def chunk_pass(q_tbl: pa.Table):
        qids_all = np.asarray(q_tbl.column("media_ref").to_pylist(), dtype=object)
        qh_all = q_tbl.column("h").to_numpy(zero_copy_only=False)
        q_order = np.argsort(qids_all)
        q_ref = ray.put((qids_all[q_order], qh_all[q_order].astype(np.int64)))
        return hashes.map_batches(make_block_topk(q_ref), batch_format="pyarrow")

    chunk_partials = []
    if n_chunks == 1:
        if got:
            chunk_partials.append(
                chunk_pass(pa.concat_tables(q_batches).combine_chunks())
            )
    else:
        del q_batches  # discard the probed prefix; re-filter per chunk
        for c in range(n_chunks):

            def flt(b: pa.Table, c=c) -> pa.Table:
                m = pc.and_(
                    b.column("is_q"),
                    pc.equal(
                        pa.array(
                            b.column("qkey").to_numpy(zero_copy_only=False)
                            % n_chunks,
                            pa.int32(),
                        ),
                        c,
                    ),
                )
                return b.filter(m)

            parts = list(
                hashes.map_batches(flt, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
            )
            if not parts:
                continue
            q_tbl = pa.concat_tables(parts).combine_chunks()
            if q_tbl.num_rows:
                chunk_partials.append(chunk_pass(q_tbl))

    if not chunk_partials:
        empty = partial_schema.append(pa.field("rk", pa.int64())).empty_table()
        return rd.from_arrow(empty)
    partials = chunk_partials[0]
    if len(chunk_partials) > 1:
        partials = partials.union(*chunk_partials[1:])

    # distributed fold: bucket the bounded (Q x blocks x K) partials by
    # query_ref and keep each query's global top-K inside its bucket —
    # the merge_topk / keep_min_by discipline (similarity.py), with the
    # rank emitted from the same run-rank pass.  NO driver pandas.

    def add_qbucket(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "query_ref" not in b.column_names:
            return partial_schema.append(pa.field("__qb", pa.int32())).empty_table()
        hv = hash_string_array(_single_chunk_q(b.column("query_ref")))
        return b.append_column(
            "__qb", pa.array(((hv >> np.uint64(40)) % np.uint64(16)).astype(np.int32), pa.int32())
        )

    def merge_topk(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("query_ref", "ascending"),
                ("hamming", "ascending"),
                ("neighbor_ref", "ascending"),
            ]
        )
        rank = _run_rank(t.column("query_ref"))
        t = t.append_column("rk", pa.array(rank + 1, pa.int64()))
        return t.filter(pa.array(rank < K))

    return bucket_map_groups(
        partials.map_batches(add_qbucket, batch_format="pyarrow"), "__qb", merge_topk
    )


# image similarity search: the phash_dedup hash chain (no
# planting) + a hamming rank over the md5-routed query subset
register("image_knn", q_image_knn, oracle=f"""
            WITH base AS (
                SELECT media_ref AS id, width::BIGINT AS width,
                       height::BIGINT AS height, channels::BIGINT AS c,
                       width::BIGINT * height::BIGINT AS npx, hex(pixels) AS hx
                FROM read_parquet('{_G01}/media/*.parquet')
            ),
            lvl1 AS (
                SELECT id, npx, width, height, c, r,
                       substr(hx, CAST(r*width*c*2 + 1 AS BIGINT),
                              CAST(width*c*2 AS BIGINT)) AS rowhex
                FROM (SELECT *, unnest(range(height)) AS r FROM base)
            ),
            lvl2 AS (
                SELECT id, npx, width, height, c, r, k,
                       substr(rowhex, CAST(k*64*c + 1 AS BIGINT),
                              CAST(64*c AS BIGINT)) AS seg
                FROM (SELECT *, unnest(range((width + 31) // 32)) AS k FROM lvl1)
            ),
            px AS (
                SELECT id, npx, width, height, c, r, k*32 + j AS col,
                       CAST('0x' || substr(seg, CAST(j*c*2 + 1 AS BIGINT), 2) AS BIGINT) AS b0,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+1)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS b1,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+2)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS b2
                FROM (SELECT *, unnest(range(least(32, width - k*32))) AS j FROM lvl2)
            ),
            lum AS (
                SELECT id, npx,
                       ((r * 8) // height) * 8 + ((col * 8) // width) AS bidx,
                       CASE WHEN c = 1 THEN b0
                            ELSE (299*b0 + 587*b1 + 114*b2) // 1000 END AS v
                FROM px
            ),
            blocks AS (
                SELECT id, bidx, sum(v) AS bsum, count(*) AS bcnt, max(npx) AS npx
                FROM lum GROUP BY 1, 2
            ),
            tot AS (SELECT id, sum(v) AS tsum FROM lum GROUP BY id),
            bit AS (
                SELECT b.id, b.bidx,
                       CASE WHEN b.bsum * b.npx > t.tsum * b.bcnt
                            THEN 1 ELSE 0 END AS bit
                FROM blocks b JOIN tot t USING (id)
            ),
            ham AS (
                SELECT a.id AS query_ref, b.id AS neighbor_ref,
                       sum(CASE WHEN a.bit <> b.bit THEN 1 ELSE 0 END)::BIGINT
                           AS hamming
                FROM bit a JOIN bit b USING (bidx)
                WHERE substr(md5(a.id), 1, 1) IN ('6','7') AND b.id <> a.id
                GROUP BY 1, 2
            ),
            r AS (
                SELECT *, row_number() OVER (
                           PARTITION BY query_ref
                           ORDER BY hamming, neighbor_ref) AS rk
                FROM ham
            )
            SELECT query_ref, neighbor_ref, hamming, rk::BIGINT AS rk
            FROM r WHERE rk <= 3
        """)


def q_video_frames(sf_dir: str):
    """Video-modality plumbing over the REAL from-scratch AVI/RIFF
    container codec (functions/avicodec.py): each doc gets a
    deterministic solid-color frame sequence synthesized from
    md5(doc_id) (dimensions, frame count, and the per-frame value ramp
    all md5-derived so DuckDB recomputes them in closed form), encoded
    to AVI, then decoded + frame-sampled (stride 2) by the task stage
    stages.multimodal.video_frames.  Essence routing is
    md5-derived too: docs with an even 11th hex digit encode as
    Motion-JPEG (each frame a standalone baseline JPEG from the
    engine's own T.81 codec — a real COMPRESSED video essence), the
    rest as uncompressed 24-bit DIB.  Solid frames round-trip both
    essences exactly (MJPEG at quality 100 / 4:4:4 keeps a uniform
    block bit-exact: DC-only, all-ones quant tables), so one
    closed-form oracle verifies the whole encode → RIFF walk →
    JPEG/DIB decode → sample chain per frame."""
    from ..functions.avicodec import encode_avi
    from ..stages.multimodal import video_frames

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        payloads = []
        for d in ids:
            h = hashlib.md5(str(d).encode()).hexdigest()
            w = 16 + (int(h[0:2], 16) % 4) * 8
            ht = 16 + (int(h[2:4], 16) % 4) * 8
            n = 4 + int(h[4:6], 16) % 8
            base = int(h[6:8], 16)
            step = 1 + int(h[8:10], 16) % 31
            vals = (base + np.arange(n) * step) % 256
            frames = np.broadcast_to(
                vals.astype(np.uint8)[:, None, None, None], (n, ht, w, 3)
            ).copy()
            codec = "mjpg" if int(h[10], 16) % 2 == 0 else "dib"
            payloads.append(encode_avi(frames, fps=12, codec=codec))
        return pa.table(
            {"doc_id": b.column("doc_id"), "payload": pa.array(payloads, pa.binary())}
        )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    return video_frames(ds, id_col="doc_id", stride=2, batch_size=16)


# closed-form truth for the AVI chain: dimensions / frame count /
# per-frame value ramp are md5-derived; a solid frame of value v
# has mean exactly v (stride-2 sampling mirrored by the series step)
register("video_frames", q_video_frames, oracle="""
        WITH p AS (
            SELECT doc_id,
                   16 + (('0x' || substr(md5(doc_id::VARCHAR), 1, 2))::INT % 4) * 8 AS width,
                   16 + (('0x' || substr(md5(doc_id::VARCHAR), 3, 2))::INT % 4) * 8 AS height,
                   4 + ('0x' || substr(md5(doc_id::VARCHAR), 5, 2))::INT % 8 AS n_frames,
                   ('0x' || substr(md5(doc_id::VARCHAR), 7, 2))::INT AS base,
                   1 + ('0x' || substr(md5(doc_id::VARCHAR), 9, 2))::INT % 31 AS step
            FROM documents
        )
        SELECT doc_id,
               unnest(generate_series(0, n_frames - 1, 2))::BIGINT AS frame_idx,
               n_frames::BIGINT AS n_frames,
               width::BIGINT AS width,
               height::BIGINT AS height,
               12.0::DOUBLE AS fps,
               ((base + unnest(generate_series(0, n_frames - 1, 2)) * step) % 256)::DOUBLE AS mean_val
        FROM p
    """)
