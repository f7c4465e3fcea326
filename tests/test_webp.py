"""WebP-lossless (VP8L) codec tests (functions/webpcodec.py).

The encoder covers literals / RLE / color-cache / subtract-green; the
remaining decoder features (predictor, color transform, color
indexing with and without bundling, meta prefix groups, 2-D
neighborhood distance codes) are exercised with hand-assembled VP8L
bitstreams built from the codec's own writer primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tesseract_wasm_ray.functions.webpcodec import (
    BitWriter,
    _chan,
    _ct_delta,
    _encode_entropy_image,
    _huffman_lengths,
    _predict,
    _prefix_encode,
    _write_code,
    decode_webp,
    encode_webp,
)


def _wrap(bw: BitWriter) -> bytes:
    body = bw.bytes()
    chunk = b"VP8L" + len(body).to_bytes(4, "little") + body
    if len(body) % 2:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + len(riff).to_bytes(4, "little") + riff


def _header(bw: BitWriter, w: int, h: int) -> None:
    bw.write(0x2F, 8)
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write_bit(0)
    bw.write(0, 3)


def _to_argb(rgba: np.ndarray) -> np.ndarray:
    return (
        (rgba[:, :, 3].astype(np.uint32) << 24)
        | (rgba[:, :, 0].astype(np.uint32) << 16)
        | (rgba[:, :, 1].astype(np.uint32) << 8)
        | rgba[:, :, 2].astype(np.uint32)
    )


def _expect(dec: np.ndarray, rgba: np.ndarray) -> None:
    assert dec.shape == rgba.shape
    assert np.array_equal(dec, rgba)


def test_roundtrip_paths():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (7, 9, 4), dtype=np.uint8)
    for kw in (
        {},
        {"subtract_green": False},
        {"cache_bits": 4},
        {"use_rle": False},
        {"cache_bits": 6, "subtract_green": False},
    ):
        dec = decode_webp(encode_webp(img, **kw))
        _expect(dec, img)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 10),
    w=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    cache=st.sampled_from([0, 3]),
    sg=st.booleans(),
)
def test_roundtrip_property(h, w, seed, cache, sg):
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 4), dtype=np.uint8)
    dec = decode_webp(encode_webp(img, subtract_green=sg, cache_bits=cache))
    _expect(dec, img)


def test_rejects_garbage_and_lossy():
    with pytest.raises(ValueError):
        decode_webp(b"nope")
    with pytest.raises(ValueError):
        decode_webp(
            b"RIFF" + (12).to_bytes(4, "little") + b"WEBP"
            + b"VP8 " + (0).to_bytes(4, "little")
        )
    raw = bytearray(encode_webp(np.zeros((2, 2), np.uint8)))
    with pytest.raises(ValueError):
        decode_webp(bytes(raw[: len(raw) - 4]))  # truncated bitstream


def _forward_predictor(rgba: np.ndarray, mode: int) -> np.ndarray:
    """Residuals whose inverse-predictor reconstruction is `rgba`
    (mirrors the decoder's special-cased first row / column)."""
    h, w, _ = rgba.shape
    pix = _to_argb(rgba)
    res = np.zeros_like(pix)
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                m = 0
            elif y == 0:
                m = 1
            elif x == 0:
                m = 2
            else:
                m = mode
            L = int(pix[y, x - 1]) if x > 0 else 0
            T = int(pix[y - 1, x]) if y > 0 else 0
            TL = int(pix[y - 1, x - 1]) if (x > 0 and y > 0) else 0
            if y == 0:
                TR = 0
            elif x + 1 < w:
                TR = int(pix[y - 1, x + 1])
            else:
                TR = int(pix[y, 0])
            pred = _predict(m, L, T, TL, TR)
            pa, pr, pg, pb = _chan(pred)
            a, r, g, b = _chan(int(pix[y, x]))
            res[y, x] = np.uint32(
                (((a - pa) & 0xFF) << 24)
                | (((r - pr) & 0xFF) << 16)
                | (((g - pg) & 0xFF) << 8)
                | ((b - pb) & 0xFF)
            )
    return res


@pytest.mark.parametrize("mode", list(range(14)))
def test_predictor_transform_all_modes(mode):
    rng = np.random.default_rng(mode)
    rgba = rng.integers(0, 256, (6, 5, 4), dtype=np.uint8)
    size_bits = 3  # 8x8 block covers the whole image -> one mode cell
    bw = BitWriter()
    _header(bw, 5, 6)
    bw.write_bit(1)
    bw.write(0, 2)  # PREDICTOR
    bw.write(size_bits - 2, 3)
    mode_img = np.array([[mode << 8]], np.uint32)
    _encode_entropy_image(bw, mode_img, write_meta_bit=False)
    bw.write_bit(0)  # end of transforms
    _encode_entropy_image(bw, _forward_predictor(rgba, mode))
    _expect(decode_webp(_wrap(bw)), rgba)


def test_color_transform():
    rng = np.random.default_rng(11)
    rgba = rng.integers(0, 256, (4, 6, 4), dtype=np.uint8)
    g2r, g2b, r2b = 0x35, 0xC9, 0x10  # mixed-sign int8 multipliers
    pix = _to_argb(rgba)
    fwd = np.zeros_like(pix)
    for y in range(4):
        for x in range(6):
            a, r, g, b = _chan(int(pix[y, x]))
            sr = (r - _ct_delta(g2r, g)) & 0xFF
            sb = (b - _ct_delta(g2b, g) - _ct_delta(r2b, r)) & 0xFF
            fwd[y, x] = np.uint32((a << 24) | (sr << 16) | (g << 8) | sb)
    bw = BitWriter()
    _header(bw, 6, 4)
    bw.write_bit(1)
    bw.write(1, 2)  # COLOR
    bw.write(3 - 2, 3)  # 8x8 block -> single element
    elem = np.array([[(0xFF << 24) | (r2b << 16) | (g2b << 8) | g2r]], np.uint32)
    _encode_entropy_image(bw, elem, write_meta_bit=False)
    bw.write_bit(0)
    _encode_entropy_image(bw, fwd)
    _expect(decode_webp(_wrap(bw)), rgba)


def _palette_stream(indices: np.ndarray, palette: np.ndarray) -> bytes:
    """Hand-assemble a color-indexing stream (bundled when <= 16)."""
    h, w = indices.shape
    n_pal = len(palette)
    bw = BitWriter()
    _header(bw, w, h)
    bw.write_bit(1)
    bw.write(3, 2)  # COLOR_INDEXING
    bw.write(n_pal - 1, 8)
    # palette is stored delta-coded per channel
    deltas = np.zeros(n_pal, np.uint32)
    prev = 0
    for i, p in enumerate(palette):
        pa, pr, pg, pb = _chan(prev)
        a, r, g, b = _chan(int(p))
        deltas[i] = np.uint32(
            (((a - pa) & 0xFF) << 24) | (((r - pr) & 0xFF) << 16)
            | (((g - pg) & 0xFF) << 8) | ((b - pb) & 0xFF)
        )
        prev = int(p)
    _encode_entropy_image(bw, deltas[None, :], write_meta_bit=False)
    bw.write_bit(0)  # end of transforms
    if n_pal <= 2:
        wbits = 3
    elif n_pal <= 4:
        wbits = 2
    elif n_pal <= 16:
        wbits = 1
    else:
        wbits = 0
    if wbits == 0:
        packed = indices.astype(np.uint32) << 8
    else:
        per, ib = 1 << wbits, 8 >> wbits
        pw = (w + per - 1) >> wbits
        green = np.zeros((h, pw), np.uint32)
        for x in range(w):
            green[:, x >> wbits] |= indices[:, x].astype(np.uint32) << (
                (x & (per - 1)) * ib
            )
        packed = green << 8
    _encode_entropy_image(bw, packed)
    return _wrap(bw)


def test_color_indexing_unbundled():
    rng = np.random.default_rng(4)
    palette = (rng.integers(0, 2**32, 20, dtype=np.uint64)).astype(np.uint32)
    indices = rng.integers(0, 20, (5, 7), dtype=np.int64)
    dec = decode_webp(_palette_stream(indices, palette))
    want = palette[indices]
    got = _to_argb(dec)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_pal,w", [(2, 11), (4, 10), (16, 9)])
def test_color_indexing_bundled(n_pal, w):
    rng = np.random.default_rng(n_pal)
    palette = (rng.integers(0, 2**32, n_pal, dtype=np.uint64)).astype(np.uint32)
    indices = rng.integers(0, n_pal, (4, w), dtype=np.int64)
    dec = decode_webp(_palette_stream(indices, palette))
    assert np.array_equal(_to_argb(dec), palette[indices])


def test_meta_prefix_groups():
    # left 4x4 block coded by group 0, right block by group 1
    rgba = np.zeros((4, 8, 4), np.uint8)
    rgba[:, :4] = [10, 20, 30, 255]
    rgba[:, 4:] = [200, 150, 100, 255]
    pix = _to_argb(rgba)
    bw = BitWriter()
    _header(bw, 8, 4)
    bw.write_bit(0)  # no transforms
    bw.write_bit(0)  # no color cache
    bw.write_bit(1)  # meta prefix groups present
    bw.write(2 - 2, 3)  # meta_bits = 2 -> 4x4 blocks -> meta image 2x1
    meta = np.array([[0 << 8, 1 << 8]], np.uint32)  # group idx in (r<<8|g)
    _encode_entropy_image(bw, meta, write_meta_bit=False)
    trees = []
    for gx in (0, 1):
        block = pix[:, gx * 4 : gx * 4 + 4]
        a, r, g, b = (
            int(block[0, 0]) >> 24 & 0xFF,
            int(block[0, 0]) >> 16 & 0xFF,
            int(block[0, 0]) >> 8 & 0xFF,
            int(block[0, 0]) & 0xFF,
        )
        green_t = _write_code(bw, _huffman_lengths({g: 1}), 280)
        red_t = _write_code(bw, _huffman_lengths({r: 1}), 256)
        blue_t = _write_code(bw, _huffman_lengths({b: 1}), 256)
        alpha_t = _write_code(bw, _huffman_lengths({a: 1}), 256)
        dist_t = _write_code(bw, _huffman_lengths({0: 1}), 40)
        trees.append((green_t, red_t, blue_t, alpha_t, dist_t))
    for y in range(4):
        for x in range(8):
            green_t, red_t, blue_t, alpha_t, _ = trees[x >> 2]
            a, r, g, b = _chan(int(pix[y, x]))
            green_t.encode(bw, g)
            red_t.encode(bw, r)
            blue_t.encode(bw, b)
            alpha_t.encode(bw, a)
    _expect(decode_webp(_wrap(bw)), rgba)


def test_neighborhood_distance_codes():
    # row 0: five literals; rows 1-2 copy rows 0-1 via the (0, 1)
    # neighborhood entry (dist_code 1 -> distance = width)
    w, h = 5, 3
    rng = np.random.default_rng(9)
    row = rng.integers(0, 256, (1, w, 4), dtype=np.uint8)
    rgba = np.repeat(row, h, axis=0)
    pix = _to_argb(rgba)
    bw = BitWriter()
    _header(bw, w, h)
    bw.write_bit(0)  # no transforms
    bw.write_bit(0)  # no cache
    bw.write_bit(0)  # no meta
    length = w * (h - 1)  # 10
    lcode, lnb, lev = _prefix_encode(length)
    gf = {}
    for x in range(w):
        gf[_chan(int(pix[0, x]))[2]] = gf.get(_chan(int(pix[0, x]))[2], 0) + 1
    gf[256 + lcode] = 1
    rf = {}
    bf = {}
    af = {}
    for x in range(w):
        a, r, g, b = _chan(int(pix[0, x]))
        rf[r] = rf.get(r, 0) + 1
        bf[b] = bf.get(b, 0) + 1
        af[a] = af.get(a, 0) + 1
    green_t = _write_code(bw, _huffman_lengths(gf), 280)
    red_t = _write_code(bw, _huffman_lengths(rf), 256)
    blue_t = _write_code(bw, _huffman_lengths(bf), 256)
    alpha_t = _write_code(bw, _huffman_lengths(af), 256)
    dist_t = _write_code(bw, _huffman_lengths({0: 1}), 40)  # prefix code 0
    for x in range(w):
        a, r, g, b = _chan(int(pix[0, x]))
        green_t.encode(bw, g)
        red_t.encode(bw, r)
        blue_t.encode(bw, b)
        alpha_t.encode(bw, a)
    green_t.encode(bw, 256 + lcode)
    bw.write(lev, lnb)
    dist_t.encode(bw, 0)  # prefix code 0 -> dist_code 1 -> (0,1) -> width
    _expect(decode_webp(_wrap(bw)), rgba)


def test_decode_actor_webp_branch(ray_session):
    """WebP payloads flow through the decode stage end-to-end;
    decoded dims override metadata."""
    import pyarrow as pa
    import ray.data as rd

    from tesseract_wasm_ray.stages.multimodal import decode_media

    rng = np.random.default_rng(77)
    rgba = rng.integers(0, 256, (6, 13, 4), dtype=np.uint8)
    ds = rd.from_arrow(
        pa.Table.from_pylist(
            [
                {
                    "media_ref": "m-webp",
                    "payload": encode_webp(rgba),
                    "codec": "webp",
                    "width": 1,
                    "height": 1,
                    "channels": 1,
                }
            ]
        )
    )
    out = (
        decode_media(ds, concurrency=1, batch_size=4)
        .to_pandas()
        .set_index("media_ref")
    )
    assert out.loc["m-webp", ["width", "height", "channels"]].tolist() == [13, 6, 4]
    assert bytes(out.loc["m-webp", "pixels"]) == rgba.tobytes()


def test_combined_subtract_green_and_predictor():
    """Two transforms in one stream: inverses must apply in REVERSE
    stream order (stream = [subtract-green, predictor] -> decoder runs
    inverse-predictor first, then inverse-subtract-green)."""
    rng = np.random.default_rng(21)
    rgba = rng.integers(0, 256, (5, 6, 4), dtype=np.uint8)
    pix = _to_argb(rgba)
    # forward: subtract-green first, then predictor residuals (mode 1)
    g = (pix >> np.uint32(8)) & np.uint32(0xFF)
    r = (((pix >> np.uint32(16)) & np.uint32(0xFF)) - g) & np.uint32(0xFF)
    b = ((pix & np.uint32(0xFF)) - g) & np.uint32(0xFF)
    sg = (pix & np.uint32(0xFF000000)) | (r << np.uint32(16)) | (g << np.uint32(8)) | b
    sg_rgba = np.stack(
        [
            (sg >> np.uint32(16)) & np.uint32(0xFF),
            (sg >> np.uint32(8)) & np.uint32(0xFF),
            sg & np.uint32(0xFF),
            (sg >> np.uint32(24)) & np.uint32(0xFF),
        ],
        axis=-1,
    ).astype(np.uint8)
    residuals = _forward_predictor(sg_rgba, 1)

    bw = BitWriter()
    _header(bw, 6, 5)
    bw.write_bit(1)
    bw.write(2, 2)  # SUBTRACT_GREEN (read first -> inverted last)
    bw.write_bit(1)
    bw.write(0, 2)  # PREDICTOR (read second -> inverted first)
    bw.write(3 - 2, 3)
    _encode_entropy_image(bw, np.array([[1 << 8]], np.uint32), write_meta_bit=False)
    bw.write_bit(0)  # end of transforms
    _encode_entropy_image(bw, residuals)
    _expect(decode_webp(_wrap(bw)), rgba)
