"""Kernel golden/property tests, mirroring the reference's test strategy
(SURVEY.md §5; /root/reference/test/ocr-engine-test.js)."""

import numpy as np
import pytest

from tesseract_wasm_ray.engine import OCREngine, OCRError
from tesseract_wasm_ray.functions.raster import page_text, render_page
from tesseract_wasm_ray.state.glyph_model import GlyphModel

MODEL = GlyphModel.build()

PAGE = [["HELLO", "WORLD"], ["RAY", "DATA", "ENGINE"], ["GLYPH42"]]


def make_engine(img=None, model=True):
    eng = OCREngine()
    if model:
        eng.load_model(MODEL)
    if img is not None:
        eng.load_image(img)
    return eng


@pytest.mark.parametrize("scale", [1, 2, 3])
@pytest.mark.parametrize("channels", [1, 4])
def test_roundtrip_exact(scale, channels):
    rng = np.random.default_rng(7)
    img = render_page(PAGE, MODEL, scale=scale, channels=channels, noise_rng=rng)
    eng = make_engine(img)
    assert eng.get_text() == page_text(PAGE)
    words = eng.get_text_boxes("word")
    assert [w.text for w in words] == [w for ws in PAGE for w in ws]
    # Statistical tolerance mirror (test/ocr-engine-test.js:194-208).
    assert np.mean([w.confidence for w in words]) > 0.95


def test_model_roundtrip_bytes(tmp_path):
    blob = MODEL.to_bytes()
    m2 = GlyphModel.from_bytes(blob)
    assert m2.charset == MODEL.charset
    assert (m2.templates == MODEL.templates).all()
    p = tmp_path / "glyph.traineddata"
    MODEL.save(str(p))
    m3 = GlyphModel.load(str(p))
    assert (m3.templates == MODEL.templates).all()


def test_layout_counts_and_invariants():
    img = render_page(PAGE, MODEL, scale=2)
    eng = make_engine(img, model=False)  # layout works without a model
    words = eng.get_bounding_boxes("word")
    lines = eng.get_bounding_boxes("line")
    assert len(words) == 6
    assert len(lines) == 3
    h, w = img.shape
    for item in words + lines:
        r = item["rect"]
        # Property invariants (test/ocr-engine-test.js:153-168).
        assert 0 <= r.left < r.right <= w
        assert 0 <= r.top < r.bottom <= h


def test_word_flags():
    img = render_page(PAGE, MODEL)
    eng = make_engine(img)
    words = eng.get_text_boxes("word")
    # StartOfLine / EndOfLine lists (test/ocr-engine-test.js:231-268).
    starts = [w.text for w in words if w.flags & 1]
    ends = [w.text for w in words if w.flags & 2]
    assert starts == ["HELLO", "RAY", "GLYPH42"]
    assert ends == ["WORLD", "ENGINE", "GLYPH42"]


def test_empty_page_quirk():
    for size in [(8, 8), (50, 20), (200, 100)]:
        img = np.full(size, 255, dtype=np.uint8)
        eng = make_engine(img)
        # 0 layout boxes but 1 empty text box (test/ocr-engine-test.js:211-229).
        assert eng.get_bounding_boxes("word") == []
        boxes = eng.get_text_boxes("word")
        assert len(boxes) == 1
        assert boxes[0].text == ""
        assert boxes[0].rect.right == 0
        assert eng.get_text() == ""


@pytest.mark.parametrize("rotation", [0, 90, 180, 270])
def test_orientation_roundtrip(rotation):
    # Mirror of test/ocr-engine-test.js:340-352.
    rng = np.random.default_rng(11)
    img = render_page(PAGE, MODEL, scale=2, noise_rng=rng, rotation=rotation)
    eng = make_engine(img)
    o = eng.get_orientation()
    assert o["rotation"] == rotation
    assert o["confidence"] > 0.9


def test_error_paths():
    eng = OCREngine()
    with pytest.raises(OCRError):
        eng.get_text()  # no image
    img = render_page(PAGE, MODEL)
    eng.load_image(img)
    with pytest.raises(OCRError):
        eng.get_text()  # no model
    with pytest.raises(OCRError):
        eng.load_image(np.zeros((0, 5), dtype=np.uint8))
    with pytest.raises(OCRError):
        eng.load_image(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(OCRError):
        eng.get_variable("nope")
    eng.set_variable("user_defined_dpi", "300")
    assert eng.get_variable("user_defined_dpi") == "300"


def test_clear_image_invalidates():
    img = render_page(PAGE, MODEL)
    eng = make_engine(img)
    assert eng.get_text() != ""
    eng.clear_image()
    with pytest.raises(OCRError):
        eng.get_text()


def test_memoized_results_are_reused():
    img = render_page(PAGE, MODEL)
    eng = make_engine(img)
    boxes1 = eng.get_text_boxes("word")
    text = eng.get_text()
    boxes2 = eng.get_text_boxes("word")
    assert boxes1 is boxes2  # single Recognize pass (lib.cpp:325-336)
    assert text == page_text(PAGE)


def test_hocr_contains_bbox_and_conf():
    img = render_page(PAGE, MODEL)
    eng = make_engine(img)
    hocr = eng.get_hocr()
    assert "ocr_page" in hocr and "ocrx_word" in hocr
    assert "HELLO" in hocr and "x_wconf" in hocr
    first = eng.get_text_boxes("word")[0]
    r = first.rect
    assert f"bbox {r.left} {r.top} {r.right} {r.bottom}" in hocr


def test_progress_monotone_and_cached_run_reports_100():
    """Mirrors /root/reference/test/ocr-engine-test.js:309-338: progress
    is monotone ending at 100; a cached second run reports just [100]."""
    import numpy as np

    from tesseract_wasm_ray.engine import OCREngine
    from tesseract_wasm_ray.functions.raster import render_page
    from tesseract_wasm_ray.state.glyph_model import GlyphModel

    m = GlyphModel.build()
    eng = OCREngine()
    eng.load_model(m)
    eng.load_image(render_page([["HELLO", "WORLD"]], m))
    seen: list[int] = []
    eng.add_progress_listener(seen.append)
    eng.get_text()
    assert seen == sorted(seen) and seen[-1] == 100 and len(seen) >= 2
    seen.clear()
    eng.get_text_boxes("word")  # cached
    assert seen == [100]
    eng.remove_progress_listener(seen.append)
    seen.clear()
    eng.clear_image()
    eng.load_image(render_page([["RAY"]], m))
    eng.get_text()
    assert seen == []  # listener removed


def test_statistical_tolerances():
    """Mirrors /root/reference/test/ocr-engine-test.js:194-195,207-208:
    mean recognized word length and mean confidence within tolerance
    over a sample of fixture pages."""
    import numpy as np

    from tesseract_wasm_ray.engine import OCREngine
    from tesseract_wasm_ray.fixtures import doc_spec, page_spec, render_spec
    from tesseract_wasm_ray.state.glyph_model import GlyphModel

    m = GlyphModel.build()
    eng = OCREngine()
    eng.load_model(m)
    lens, confs = [], []
    i = 0
    while len(lens) < 200:
        for ref in doc_spec(i)["media_refs"]:
            spec = page_spec(ref)
            if not spec["lines"]:
                continue
            eng.load_image(render_spec(spec, m))
            eng.orient_and_recognize()
            for w in eng.get_text_boxes("word"):
                if w.text:
                    lens.append(len(w.text))
                    confs.append(w.confidence)
        i += 1
    assert 2.0 < np.mean(lens) < 8.0  # fixture words are 1-6 chars of PAGE_WORDS
    assert np.mean(confs) > 0.95


def test_orientation_ambiguous_symmetric_page_low_confidence():
    """A palindromic page of 180-symmetric glyphs ("SOS"/"OXO") reads
    identically upright and upside-down: the early exit must NOT report
    ~1.0 confidence — the 180-counterpart check falls back to the
    margin-based (ambiguous ~0) confidence (ADVICE round 1)."""
    img = render_page([["SOS", "OXO"], ["OXO", "SOS"]], MODEL, scale=2)
    eng = make_engine(img)
    o = eng.get_orientation()
    assert o["confidence"] <= 0.02, o
    # A normal asymmetric page still early-exits with high confidence.
    img2 = render_page([["HELLO"]], MODEL, scale=2)
    eng2 = make_engine(img2)
    assert eng2.get_orientation()["confidence"] > 0.9


def test_axis_probe_order_routes_all_rotations():
    """The projection axis pre-test must put the true rotation in the
    first TWO probes for every rotation of every page shape (upright
    pages in (0,180,..), rotated in (90,270,..)) — a misroute costs two
    extra recognition passes per page (regression: the first cut of the
    heuristic misrouted 28% of upright pages)."""
    from tesseract_wasm_ray.functions.binarize import binarize
    from tesseract_wasm_ray.functions.orientation import _axis_probe_order

    rng = np.random.default_rng(13)
    shapes = [
        [["HELLO"]],                      # single word
        [["DATA", "RAY"]],                # single line, two words
        [["PIPELINE", "WORKER"], ["GLYPH"]],
        [["A"], ["B4"], ["SCAN", "MERGE", "JOIN"]],
    ]
    for scale in (1, 2):
        for lines in shapes:
            for rot in (0, 90, 180, 270):
                img = render_page(lines, MODEL, scale=scale,
                                  noise_rng=np.random.default_rng(3), rotation=rot)
                ink = binarize(img)
                order = _axis_probe_order(ink)
                assert order.index(rot) < 2, (lines, scale, rot, order)


# -- vectorized kernel vs the per-cell reference -----------------------------
#
# The reference below is the kernel as it stood before vectorization: one
# Python pass per line band and per word for layout, one downsample per
# glyph cell, an elementwise Hamming count, and one numpy mean per word and
# per line.  The vectorized kernel must reproduce it exactly, confidences
# included bit for bit.


def _ref_runs(mask):
    if mask.size == 0 or not mask.any():
        return []
    d = np.diff(mask.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    return list(zip(np.flatnonzero(d == 1).tolist(), np.flatnonzero(d == -1).tolist()))


def _ref_span(mask):
    return int(mask.argmax()), int(len(mask) - mask[::-1].argmax())


def _ref_layout(ink):
    lines = []
    for y0, y1 in _ref_runs(ink.any(axis=1)):
        x0, x1 = _ref_span(ink[y0:y1].any(axis=0))
        lines.append((x0, y0, x1, y1))
    words = []
    for lx0, ly0, lx1, ly1 in lines:
        band = ink[ly0:ly1, lx0:lx1]
        scale = max(1, round((ly1 - ly0) / 7))
        runs = _ref_runs(band.any(axis=0))
        merged = [list(runs[0])]
        for s, e in runs[1:]:
            if s - merged[-1][1] >= 2 * scale:
                merged.append([s, e])
            else:
                merged[-1][1] = e
        ws = []
        for a, b in merged:
            t, u = _ref_span(band[:, a:b].any(axis=1))
            ws.append((lx0 + a, ly0 + t, lx0 + b, ly0 + u))
        words.append(ws)
    return lines, words


def _ref_recognize(ink, model):
    from tesseract_wasm_ray.state.glyph_model import CHAR_PITCH, GLYPH_H, GLYPH_W

    lines, words = _ref_layout(ink)
    if not lines:
        empty = ((0, 0, 0, 0), 0, 0.0, "")
        return [empty], [empty], 0.0
    cells, counts = [], []
    for (_, ly0, _, ly1), ws in zip(lines, words):
        scale = max(1, round((ly1 - ly0) / GLYPH_H))
        for x0, y0, x1, y1 in ws:
            w, h = x1 - x0, y1 - y0
            n = 0
            if h == GLYPH_H * scale and (w + scale) % (CHAR_PITCH * scale) == 0:
                n = (w + scale) // (CHAR_PITCH * scale)
            for i in range(n):
                c0 = x0 + i * CHAR_PITCH * scale
                cell = ink[y0:y1, c0 : c0 + GLYPH_W * scale]
                if scale > 1:
                    cell = cell.reshape(GLYPH_H, scale, GLYPH_W, scale).mean(axis=(1, 3)) > 0.5
                cells.append(cell.reshape(-1))
            counts.append(n)
    if cells:
        stacked = np.array(cells)
        ham = (stacked[:, None, :] != model.flat[None, :, :]).sum(axis=2)
        best = ham.argmin(axis=1)
        score = 1.0 - ham[np.arange(len(best)), best] / (GLYPH_H * GLYPH_W)
    else:
        best, score = np.zeros(0, int), np.zeros(0)
    word_items, line_items, pos, k = [], [], 0, 0
    for line, ws in zip(lines, words):
        items = []
        for wi, rect in enumerate(ws):
            n = counts[k]
            k += 1
            text = "".join(model.charset[b] for b in best[pos : pos + n])
            conf = float(score[pos : pos + n].mean()) if n else 0.0
            flags = (1 if wi == 0 else 0) | (2 if wi == len(ws) - 1 else 0)
            items.append((rect, flags, conf, text))
            pos += n
        word_items += items
        conf = float(np.mean([it[2] for it in items]))
        line_items.append((line, 3, conf, " ".join(it[3] for it in items)))
    return word_items, line_items, float(score.mean()) if score.size else 0.0


def _ref_binarize(img):
    from tesseract_wasm_ray.functions.binarize import to_gray

    gray = to_gray(img)
    if gray.size == 0:
        return np.zeros_like(gray, dtype=bool)
    hist = np.bincount(gray.ravel(), minlength=256).astype(np.float64)
    w0 = np.cumsum(hist)
    mu = np.cumsum(hist * np.arange(256))
    w1 = hist.sum() - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        between = w0 * w1 * (mu / w0 - (mu[-1] - mu) / w1) ** 2
    between[~np.isfinite(between)] = -1.0
    ink = gray < int(np.argmax(between)) + 1
    if gray.min() == gray.max():
        return np.zeros_like(ink)
    m0 = float(gray[ink].mean()) if ink.any() else 0.0
    m1 = float(gray[~ink].mean()) if (~ink).any() else 255.0
    lo, hi = m0 + 0.3 * (m1 - m0), m1 - 0.3 * (m1 - m0)
    if ((gray >= lo) & (gray <= hi)).mean() > 0.05:
        return np.zeros_like(ink)
    return ~ink if ink.mean() > 0.5 else ink


def _bits(items):
    """TextItems -> tuples with the confidence as its exact float64 bits."""
    out = []
    for it in items:
        if isinstance(it, tuple):
            rect, flags, conf, text = it
        else:
            r = it.rect
            rect, flags, conf, text = (r.left, r.top, r.right, r.bottom), it.flags, it.confidence, it.text
        out.append((rect, flags, float(conf).hex(), text))
    return out


def _kernel_pages():
    """Seeded random ink, each page in all four rotations: rendered
    pages at scales 1-3; the same with ink added inside the word boxes
    (the boxes keep their geometry, so the cells stay on the glyph grid
    as near misses, Hamming ties and blocks at the 2*count == scale**2
    edge); with pixels flipped anywhere (boxes knocked off the grid);
    words of 8+ glyphs (pairwise-summed means; one of 144 glyphs takes
    numpy's recursive branch); pure-noise pages, blank pages and a
    speck."""
    from tesseract_wasm_ray.functions.binarize import binarize

    rng = np.random.default_rng(20261020)
    vocab = ["A", "HI", "RAY", "DATA", "GLYPH", "WORKER", "PIPELINE", "PIPELINES", "ABCDEFGHIJKL"]
    pages = []
    for scale in (1, 2, 3):
        for trial in range(6):
            lines = [
                [str(rng.choice(vocab)) for _ in range(rng.integers(1, 5))]
                for _ in range(rng.integers(1, 4))
            ]
            ink = binarize(render_page(lines, MODEL, scale=scale, noise_rng=rng))
            inked = ink.copy()
            for ws in _ref_layout(ink)[1]:
                for x0, y0, x1, y1 in ws:
                    inked[y0:y1, x0:x1] |= rng.random((y1 - y0, x1 - x0)) < 0.15
            pages += [ink, inked, ink ^ (rng.random(ink.shape) < (0.01, 0.04, 0.1)[trial % 3])]
    long_word = binarize(render_page([["ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" * 4]], MODEL))
    pages += [long_word, rng.random((60, 90)) < 0.2, rng.random((30, 200)) < 0.5]
    pages += [np.zeros((20, 30), bool), np.zeros((5, 5), bool)]
    speck = np.zeros((20, 30), bool)
    speck[7, 11] = True
    pages.append(speck)
    return [np.rot90(p, k) for p in pages for k in range(4)]


def test_recognize_matches_per_cell_reference():
    from tesseract_wasm_ray.functions.layout import analyze_layout
    from tesseract_wasm_ray.functions.recognize import recognize_page

    pages = _kernel_pages()
    n_long = n_unaligned = 0
    for ink in pages:
        words, lines, score = recognize_page(ink, MODEL)
        ref_words, ref_lines, ref_score = _ref_recognize(ink, MODEL)
        assert _bits(words) == _bits(ref_words)
        assert _bits(lines) == _bits(ref_lines)
        assert float(score).hex() == float(ref_score).hex()
        got_lines, got_words = analyze_layout(ink)
        ref_layout = _ref_layout(ink)
        assert [(r.left, r.top, r.right, r.bottom) for r in got_lines] == ref_layout[0]
        assert [[(r.left, r.top, r.right, r.bottom) for r in ws] for ws in got_words] == ref_layout[1]
        n_long += sum(len(w.text) >= 8 for w in words)
        n_unaligned += sum(not w.text for w in words) if lines and lines[0].rect.right else 0
    # the inputs reach the branches they are meant to
    assert n_long >= 20 and n_unaligned >= 20


def test_binarize_matches_pixelwise_reference():
    from tesseract_wasm_ray.functions.binarize import binarize

    rng = np.random.default_rng(7)
    imgs = [
        render_page(PAGE, MODEL, scale=2, channels=c, noise_rng=rng) for c in (1, 4)
    ]
    imgs += [
        255 - render_page(PAGE, MODEL, noise_rng=rng),  # inverted page
        np.full((12, 12), 200, np.uint8),  # uniform
        rng.integers(120, 136, (40, 40), dtype=np.uint8),  # unimodal noise
        rng.integers(0, 256, (40, 40), dtype=np.uint8),  # flat noise
        np.where(rng.random((30, 30)) < 0.7, 10, 240).astype(np.uint8),  # ink majority
        np.zeros((0, 4), np.uint8),
    ]
    for img in imgs:
        assert np.array_equal(binarize(img), _ref_binarize(img))
