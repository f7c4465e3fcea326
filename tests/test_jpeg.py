"""From-scratch baseline JPEG codec (functions/jpegcodec.py): spec
conformance (zigzag order, marker structure), round-trip fidelity, both
chroma layouts, grayscale, error paths, and the decode-actor branch."""

import numpy as np
import pyarrow as pa
import pytest

from tesseract_wasm_ray.functions.jpegcodec import (
    DCT_M,
    UNZIGZAG,
    ZIGZAG,
    decode_jpeg,
    encode_jpeg,
)


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return float("inf") if mse == 0 else 10 * np.log10(255.0**2 / mse)


def _smooth_rgb(h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack(
        [(xx * 3) % 256, (yy * 2 + 30) % 256, ((xx + yy) * 2) % 256], axis=-1
    )
    return (img.astype(np.float64) * 0.3 + 100).astype(np.uint8)


def test_zigzag_matches_spec():
    # T.81 Figure A.6: 0, 1, 8, 16, 9, 2, 3, 10, 17, 24 ...
    assert ZIGZAG[:10].tolist() == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
    assert ZIGZAG[-3:].tolist() == [55, 62, 63]
    assert np.array_equal(ZIGZAG[UNZIGZAG], np.arange(64))


def test_dct_matrix_orthonormal():
    assert np.allclose(DCT_M @ DCT_M.T, np.eye(8), atol=1e-12)


def test_marker_structure():
    data = encode_jpeg(_smooth_rgb(16, 16), quality=85)
    assert data[:2] == b"\xff\xd8"  # SOI
    assert data[-2:] == b"\xff\xd9"  # EOI
    assert b"JFIF\x00" in data[:30]
    for marker in (b"\xff\xdb", b"\xff\xc0", b"\xff\xc4", b"\xff\xda"):
        assert marker in data  # DQT, SOF0, DHT, SOS


def test_constant_images_roundtrip_exact():
    for v in (0, 128, 200):
        img = np.full((24, 16), v, np.uint8)
        out = decode_jpeg(encode_jpeg(img, quality=50))
        assert out.shape == (24, 16, 1)
        assert np.abs(out.astype(int) - v).max() <= 1


def test_q100_gradient_near_lossless():
    img = np.tile(np.linspace(0, 255, 64).astype(np.uint8), (32, 1))
    out = decode_jpeg(encode_jpeg(img, quality=100))[:, :, 0]
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 1


@pytest.mark.parametrize("subsample", [False, True])
def test_color_roundtrip_both_layouts(subsample):
    img = _smooth_rgb(41, 67)  # non-multiple-of-8/16 dims exercise padding
    out = decode_jpeg(encode_jpeg(img, quality=90, subsample=subsample))
    assert out.shape == img.shape
    assert _psnr(img, out) > 38


def test_grayscale_roundtrip():
    yy, xx = np.mgrid[0:33, 0:50]
    img = ((np.sin(xx / 5) + np.cos(yy / 7)) * 60 + 128).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=90))
    assert out.shape == (33, 50, 1)
    assert _psnr(img[:, :, None], out) > 38
    # (H, W, 1) input also accepted
    out2 = decode_jpeg(encode_jpeg(img[:, :, None], quality=90))
    assert np.array_equal(out, out2)


def test_higher_quality_is_more_faithful_and_bigger():
    img = _smooth_rgb(32, 32)
    lo = encode_jpeg(img, quality=30)
    hi = encode_jpeg(img, quality=95)
    assert len(hi) > len(lo)
    assert _psnr(img, decode_jpeg(hi)) > _psnr(img, decode_jpeg(lo))


def test_tiny_images():
    t = np.array([[[200, 10, 30]]], dtype=np.uint8)
    out = decode_jpeg(encode_jpeg(t, quality=95, subsample=True))
    assert out.shape == (1, 1, 3)
    assert np.abs(out.astype(int) - t.astype(int)).max() <= 3
    g = np.array([[77]], dtype=np.uint8)
    assert decode_jpeg(encode_jpeg(g, quality=95)).shape == (1, 1, 1)


def test_rejects_malformed():
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"notajpeg")
    with pytest.raises(ValueError, match="without a scan"):
        decode_jpeg(b"\xff\xd8\xff\xd9")
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((0, 4), np.uint8))
    # Progressive SOF2 must be rejected, not mis-decoded.
    data = bytearray(encode_jpeg(np.zeros((8, 8), np.uint8)))
    sof = data.find(b"\xff\xc0")
    data[sof + 1] = 0xC2
    with pytest.raises(ValueError, match="baseline"):
        decode_jpeg(bytes(data))


def test_byte_stuffing_roundtrip():
    # High-entropy image maximizes 0xFF bytes in the entropy stream.
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
    data = encode_jpeg(img, quality=95, subsample=False)
    out = decode_jpeg(data)
    assert out.shape == img.shape  # survives stuffing/unstuffing


def test_decode_actor_jpeg_branch(ray_session):
    """jpeg is a REAL codec in the decode stage: decoded dims are
    authoritative, pixels close to the original raster."""
    import ray.data as rd

    from tesseract_wasm_ray.stages.multimodal import decode_media

    yy, xx = np.mgrid[0:20, 0:30]
    img = ((xx * 5 + yy * 3) % 200 + 20).astype(np.uint8)
    rows = pa.table(
        {
            "media_ref": pa.array(["j1"], pa.string()),
            "payload": pa.array([encode_jpeg(img, quality=92)], pa.binary()),
            "codec": pa.array(["jpeg"], pa.string()),
            "width": pa.array([1], pa.int32()),  # wrong on purpose
            "height": pa.array([1], pa.int32()),
            "channels": pa.array([1], pa.int32()),
        }
    )
    out = decode_media(rd.from_arrow(rows), concurrency=1, batch_size=4).to_pandas()
    assert (out.loc[0, "width"], out.loc[0, "height"], out.loc[0, "channels"]) == (30, 20, 1)
    got = np.frombuffer(out.loc[0, "pixels"], np.uint8).reshape(20, 30, 1)
    assert _psnr(img[:, :, None], got) > 35
