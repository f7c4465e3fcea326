"""From-scratch baseline JPEG codec (pure numpy + stdlib, no image libs).

Implements the public ITU-T T.81 / ISO 10918-1 baseline sequential DCT
process: 8x8 block DCT, quantization (Annex-K example tables scaled by
the libjpeg quality formula), zigzag, DC-differential + run-length AC
Huffman entropy coding, JFIF container markers, byte stuffing, restart
markers, and 4:4:4 / 4:2:0 chroma layouts.  The reference delegates
compressed-image decode to ``sharp`` (examples/node-cli/ocr.js:10-18)
and ``createImageBitmap`` (src/utils.ts:4-21); this module closes that
surface with public knowledge only, the same way stages/multimodal.py's
PNG codec does for deflate-coded images.

Decoder: any baseline (SOF0) JFIF stream — arbitrary DQT/DHT tables,
1 or 3 components, sampling factors in {1, 2}, optional DRI/RSTn.
Progressive (SOF2), arithmetic coding, and 12-bit precision raise
``ValueError``.

Encoder: grayscale or 4:4:4 / 4:2:0 YCbCr with CUSTOM fixed-length
canonical Huffman tables embedded via DHT (a valid, if suboptimal,
choice — T.81 lets the stream carry any tables; fixed 4-bit DC / 8-bit
AC codes keep the table literals out of the source so nothing is
copied from any implementation).

The entropy loop is per-symbol Python (inherent to Huffman), but block
math (DCT/IDCT/quant/zigzag) is vectorized over whole planes, and the
hot path in the Ray pipeline runs inside the decode map tasks, one
page per loop iteration — the same shape the PNG branch uses.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# shared 8x8 transform machinery
# ---------------------------------------------------------------------------


def _zigzag_order() -> np.ndarray:
    """The standard JPEG zigzag scan, generated (not transcribed):
    diagonals of constant x+y, direction alternating."""
    order = sorted(
        ((r, c) for r in range(8) for c in range(8)),
        # odd diagonals walk down-left (row ascending), even diagonals
        # up-right (col ascending) — T.81 Figure A.6.
        key=lambda p: (p[0] + p[1], p[0] if (p[0] + p[1]) % 2 else p[1]),
    )
    return np.array([r * 8 + c for r, c in order], dtype=np.int64)


ZIGZAG = _zigzag_order()          # block-index -> zigzag position source
UNZIGZAG = np.argsort(ZIGZAG)     # zigzag position -> block index


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8-point DCT-II matrix M: coef = M @ block @ M.T."""
    k = np.arange(8)
    m = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16)
    m[0] *= 1 / np.sqrt(2)
    return m * 0.5


DCT_M = _dct_matrix()

# Annex-K example quantization tables (public spec values).
QUANT_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)
QUANT_CHROMA = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)


def _scaled_quant(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg quality scaling (public formula)."""
    quality = min(max(int(quality), 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(H, W) float plane, H/W multiples of 8 -> (n, 8, 8) blocks in
    raster order."""
    h, w = plane.shape
    return (
        plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    )


def _plane_of(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    """(n, 8, 8) raster-order blocks -> (H, W) plane."""
    return (
        blocks.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)
    )


def _fdct_quant(plane: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """Forward DCT + quantize a whole plane at once -> (n, 64) zigzagged
    int coefficients."""
    blocks = _blocks_of(plane.astype(np.float64) - 128.0)
    # M @ block @ M.T as two stacked BLAS matmuls (~5x over einsum).
    coef = DCT_M @ blocks @ DCT_M.T
    q = np.round(coef / qtab).astype(np.int64)
    return q.reshape(-1, 64)[:, ZIGZAG]


def _dequant_idct(zz: np.ndarray, qtab: np.ndarray, h: int, w: int) -> np.ndarray:
    """(n, 64) zigzag coefficients -> (H, W) uint8 plane."""
    coef = (zz[:, UNZIGZAG].reshape(-1, 8, 8) * qtab).astype(np.float64)
    # block = M.T @ coef @ M (M orthonormal), stacked BLAS matmuls.
    blocks = DCT_M.T @ coef @ DCT_M
    plane = _plane_of(blocks, h, w) + 128.0
    return np.clip(np.round(plane), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# color transform (JFIF / BT.601 full range)
# ---------------------------------------------------------------------------


def rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    f = img.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    yf = y.astype(np.float64)
    cbf = cb.astype(np.float64) - 128.0
    crf = cr.astype(np.float64) - 128.0
    r = yf + 1.402 * crf
    g = yf - 0.344136 * cbf - 0.714136 * crf
    b = yf + 1.772 * cbf
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Huffman machinery
# ---------------------------------------------------------------------------


def _canonical_codes(bits: list[int], values: list[int]) -> dict[int, tuple[int, int]]:
    """DHT (bits-per-length, symbol list) -> {symbol: (code, length)}."""
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    vi = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[values[vi]] = (code, length)
            code += 1
            vi += 1
        code <<= 1
    return codes


@lru_cache(maxsize=64)
def _decode_lut_cached(bits: tuple, values: tuple) -> list:
    """DHT (bits-per-length, symbol list) -> a flat 2^16 lookup table:
    entry for every 16-bit window whose prefix is a valid code packs
    ``(symbol << 5) | code_length`` (0 = invalid).  One list index
    decodes a whole symbol — no per-bit walking.  Cached on the raw
    table definition: the fixture corpus reuses the same fixed tables
    on every page, so each decode actor builds the LUT once."""
    lut = [0] * 65536
    code = 0
    vi = 0
    for length in range(1, 17):
        span = 1 << (16 - length)
        for _ in range(bits[length - 1]):
            packed = (values[vi] << 5) | length
            prefix = code << (16 - length)
            lut[prefix : prefix + span] = [packed] * span
            vi += 1
            code += 1
        code <<= 1
    return lut


def _decode_table(bits: list[int], values: list[int]) -> list:
    return _decode_lut_cached(tuple(bits), tuple(values))


def _fixed_length_table(symbols: list[int]) -> tuple[list[int], list[int]]:
    """A valid canonical table giving every symbol the same code length
    L = ceil(log2(n+1)) — suboptimal but spec-legal (and never assigns
    the all-ones code of the maximum length as long as n < 2^L)."""
    n = len(symbols)
    length = max(1, (n).bit_length())
    if (1 << length) - 1 <= n:
        length += 1
    bits = [0] * 16
    bits[length - 1] = n
    return bits, list(symbols)


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:  # byte stuffing
                self.out.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)  # pad with 1s per spec
        return bytes(self.out)


class _BitReader:
    """Reads the entropy-coded segment; the caller strips stuffed bytes
    and restart markers first.

    Decode is table-driven, not bit-serial: ``peek16`` grabs the next
    16 bits in one slice (the longest legal JPEG code), ``symbol``
    walks the canonical min/max-code ladder (F.2.2.3 DECODE) against
    that peek — a handful of int compares per symbol instead of one
    Python call per BIT.  Measured ~6x on the fixture corpus."""

    def __init__(self, data: bytes) -> None:
        # 6 pad bytes so the 5-byte ``coef`` window near the end never
        # short-slices; 1-bits per the spec's pad convention (can't
        # extend a valid scan).
        self.buf = data + b"\xff" * 6
        self.pos = 0  # bit position

    def peek16(self) -> int:
        p = self.pos
        i = p >> 3
        chunk = int.from_bytes(self.buf[i : i + 3], "big")
        return (chunk >> (8 - (p & 7))) & 0xFFFF

    def bits(self, n: int) -> int:
        if n == 0:
            return 0
        p = self.pos
        i = p >> 3
        chunk = int.from_bytes(self.buf[i : i + 3], "big")
        self.pos = p + n
        return (chunk >> (24 - n - (p & 7))) & ((1 << n) - 1)

    def symbol(self, lut: list) -> int:
        p = self.pos
        i = p >> 3
        chunk = int.from_bytes(self.buf[i : i + 3], "big")
        v = lut[(chunk >> (8 - (p & 7))) & 0xFFFF]
        if v == 0:
            raise ValueError("invalid JPEG Huffman code")
        self.pos = p + (v & 31)
        return v >> 5

    def coef(self, lut: list) -> tuple[int, int]:
        """Fused (Huffman symbol, sign-extended amplitude) read — ONE
        5-byte window covers the worst case (7 pad + 16 code + 15
        amplitude = 38 bits), so each coefficient costs a single
        Python call.  For DC tables the symbol IS the size category
        (<= 15), so ``rs & 15`` yields it unchanged and the returned
        amplitude is the DC diff."""
        p = self.pos
        i = p >> 3
        chunk = int.from_bytes(self.buf[i : i + 5], "big")
        off = p & 7
        v = lut[(chunk >> (24 - off)) & 0xFFFF]
        if v == 0:
            raise ValueError("invalid JPEG Huffman code")
        length = v & 31
        rs = v >> 5
        size = rs & 15
        if size:
            raw = (chunk >> (40 - off - length - size)) & ((1 << size) - 1)
            if raw < (1 << (size - 1)):  # T.81 EXTEND
                raw += 1 - (1 << size)
        else:
            raw = 0
        self.pos = p + length + size
        return rs, raw


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def _encode_block(
    zz: np.ndarray,
    pred: int,
    dc_codes: dict[int, tuple[int, int]],
    ac_codes: dict[int, tuple[int, int]],
    w: _BitWriter,
) -> int:
    dc = int(zz[0])
    v = dc - pred
    # _magnitude inlined + symbol/amplitude fused into ONE put per
    # coefficient (halves the bit-writer call count on the hot path).
    size = (v if v >= 0 else -v).bit_length()
    code, ln = dc_codes[size]
    if size:
        raw = v if v >= 0 else v + (1 << size) - 1
        w.put((code << size) | raw, ln + size)
    else:
        w.put(code, ln)
    run = 0
    nz = np.flatnonzero(zz[1:]) + 1
    last = int(nz[-1]) if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]  # ZRL
            w.put(code, ln)
            run -= 16
        size = (v if v >= 0 else -v).bit_length()
        raw = v if v >= 0 else v + (1 << size) - 1
        code, ln = ac_codes[(run << 4) | size]
        w.put((code << size) | raw, ln + size)
        run = 0
    if last < 63:
        code, ln = ac_codes[0x00]  # EOB
        w.put(code, ln)
    return dc


def _pad_to(plane: np.ndarray, mult: int) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % mult
    pw = (-w) % mult
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def encode_jpeg(img: np.ndarray, quality: int = 85, subsample: bool = True) -> bytes:
    """(H, W) / (H, W, 1) grayscale or (H, W, 3) RGB uint8 -> baseline
    JFIF bytes.  ``subsample=True`` writes 4:2:0 chroma, else 4:4:4."""
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    qy = _scaled_quant(QUANT_LUMA, quality)
    qc = _scaled_quant(QUANT_CHROMA, quality)

    dc_bits, dc_vals = _fixed_length_table(list(range(12)))
    ac_syms = [0x00, 0xF0] + [
        (r << 4) | s for r in range(16) for s in range(1, 11)
    ]
    ac_bits, ac_vals = _fixed_length_table(ac_syms)
    dc_codes = _canonical_codes(dc_bits, dc_vals)
    ac_codes = _canonical_codes(ac_bits, ac_vals)

    if gray:
        comps = [(1, 1, 1, 0)]  # id, h, v, qtab index
        planes = {1: _pad_to(img.astype(np.float64), 8)}
    else:
        ycc = rgb_to_ycbcr(img)
        sy, sc = ((2, 1) if subsample else (1, 1))
        comps = [(1, sy, sy, 0), (2, sc, sc, 1), (3, sc, sc, 1)]
        mcu = 8 * sy
        ypl = _pad_to(ycc[..., 0], mcu)
        cb = _pad_to(ycc[..., 1], mcu)
        cr = _pad_to(ycc[..., 2], mcu)
        if subsample:
            cb = cb.reshape(cb.shape[0] // 2, 2, cb.shape[1] // 2, 2).mean(axis=(1, 3))
            cr = cr.reshape(cr.shape[0] // 2, 2, cr.shape[1] // 2, 2).mean(axis=(1, 3))
        planes = {1: ypl, 2: cb, 3: cr}

    # Per-component zigzag coefficient arrays, raster block order.
    zz: dict[int, np.ndarray] = {}
    bw: dict[int, int] = {}
    for cid, _, _, qi in comps:
        q = qy if qi == 0 else qc
        p = planes[cid]
        zz[cid] = _fdct_quant(p, q)
        bw[cid] = p.shape[1] // 8

    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcu_w = (w + 8 * hmax - 1) // (8 * hmax)
    mcu_h = (h + 8 * vmax - 1) // (8 * vmax)

    writer = _BitWriter()
    pred = {cid: 0 for cid, _, _, _ in comps}
    for my in range(mcu_h):
        for mx in range(mcu_w):
            for cid, ch, cv, _ in comps:
                for by in range(cv):
                    for bx in range(ch):
                        row = my * cv + by
                        col = mx * ch + bx
                        blk = zz[cid][row * bw[cid] + col]
                        pred[cid] = _encode_block(
                            blk, pred[cid], dc_codes, ac_codes, writer
                        )
    scan = writer.flush()

    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, q in ((0, qy), (1, qc))[: 1 if gray else 2]:
        zzq = q.reshape(64)[ZIGZAG]
        out += b"\xff\xdb" + struct.pack(">HB", 67, tid) + bytes(int(v) for v in zzq)
    # SOF0
    nc = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, nc)
    for cid, ch, cv, qi in comps:
        sof += struct.pack(">BBB", cid, (ch << 4) | cv, qi)
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof
    # DHT: one DC (class 0, id 0) and one AC (class 1, id 0) table,
    # shared by all components.
    for cls, bits, vals in ((0, dc_bits, dc_vals), (1, ac_bits, ac_vals)):
        payload = bytes([(cls << 4) | 0]) + bytes(bits) + bytes(vals)
        out += b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload
    # SOS
    sos = bytes([nc])
    for cid, _, _, _ in comps:
        sos += bytes([cid, 0x00])  # DC table 0 / AC table 0
    sos += b"\x00\x3f\x00"
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    out += scan
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


def _strip_stuffing(data: bytes) -> tuple[bytes, list[int]]:
    """Remove 0xFF00 stuffing; record byte offsets (in the CLEAN stream)
    where RSTn markers sat, so the entropy decoder can resync.

    The Python loop walks only the 0xFF positions (rare in entropy
    data); the copy itself is one vectorized boolean take."""
    arr = np.frombuffer(data, np.uint8)
    n = len(arr)
    drop: list[int] = []
    restarts_at: list[int] = []
    end = n
    for i in np.flatnonzero(arr == 0xFF).tolist():
        if i >= end:
            break
        nxt = int(arr[i + 1]) if i + 1 < n else 0xD9
        if nxt == 0x00:
            drop.append(i + 1)  # stuffed zero; keep the 0xFF
        elif 0xD0 <= nxt <= 0xD7:
            drop.append(i)
            drop.append(i + 1)
            restarts_at.append(i)
        else:
            end = i  # next real marker ends the scan
            break
    keep = np.ones(end, bool)
    in_range = [d for d in drop if d < end]
    if in_range:
        keep[np.array(in_range, np.int64)] = False
    dropped_before = np.zeros(end + 1, np.int64)
    np.cumsum(~keep, out=dropped_before[1:])
    restarts = [i - int(dropped_before[i]) for i in restarts_at if i < end]
    return arr[:end][keep].tobytes(), restarts


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline JFIF -> (H, W, 1|3) uint8 (grayscale stays 1-channel)."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload (missing SOI)")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    dc_tabs: dict[int, dict] = {}
    ac_tabs: dict[int, dict] = {}
    frame = None
    restart_interval = 0
    n = len(payload)
    while pos + 4 <= n:
        if payload[pos] != 0xFF:
            raise ValueError("bad JPEG marker alignment")
        marker = payload[pos + 1]
        if marker == 0xFF:  # fill byte
            pos += 1
            continue
        if marker == 0xD9:  # EOI
            break
        seglen = struct.unpack(">H", payload[pos + 2 : pos + 4])[0]
        seg = payload[pos + 4 : pos + 2 + seglen]
        pos += 2 + seglen
        if marker == 0xDB:  # DQT (possibly several tables per segment)
            off = 0
            while off < len(seg):
                pq, tq = seg[off] >> 4, seg[off] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                zzq = np.frombuffer(seg, np.uint8, 64, off + 1).astype(np.int64)
                tab = np.zeros(64, np.int64)
                tab[ZIGZAG] = zzq
                qtabs[tq] = tab.reshape(8, 8)
                off += 65
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(seg):
                cls, tid = seg[off] >> 4, seg[off] & 0xF
                bits = list(seg[off + 1 : off + 17])
                cnt = sum(bits)
                vals = list(seg[off + 17 : off + 17 + cnt])
                (dc_tabs if cls == 0 else ac_tabs)[tid] = _decode_table(bits, vals)
                off += 17 + cnt
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 baseline
            prec, fh, fw, nc = struct.unpack(">BHHB", seg[:6])
            if prec != 8:
                raise ValueError("only 8-bit precision supported")
            comps = []
            for i in range(nc):
                cid, hv, tq = seg[6 + 3 * i : 9 + 3 * i]
                comps.append((cid, hv >> 4, hv & 0xF, tq))
            frame = (fh, fw, comps)
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("only baseline sequential JPEG (SOF0/1) supported")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", seg[:2])[0]
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("SOS before SOF")
            ns = seg[0]
            scan_map = {}
            for i in range(ns):
                cid, tabs = seg[1 + 2 * i], seg[2 + 2 * i]
                scan_map[cid] = (tabs >> 4, tabs & 0xF)
            data, restarts = _strip_stuffing(payload[pos:])
            return _decode_scan(
                frame, scan_map, qtabs, dc_tabs, ac_tabs, data, restarts,
                restart_interval,
            )
        # APPn / COM / others: skipped
    raise ValueError("JPEG stream ended without a scan")


def _decode_scan(
    frame, scan_map, qtabs, dc_tabs, ac_tabs, data: bytes, restarts: list[int],
    restart_interval: int,
) -> np.ndarray:
    fh, fw, comps = frame
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    if hmax not in (1, 2) or vmax not in (1, 2):
        raise ValueError("sampling factors beyond 2 unsupported")
    mcu_w = (fw + 8 * hmax - 1) // (8 * hmax)
    mcu_h = (fh + 8 * vmax - 1) // (8 * vmax)

    # Per-component coefficient store, raster block order.
    store: dict[int, np.ndarray] = {}
    bw: dict[int, int] = {}
    bh: dict[int, int] = {}
    for cid, ch, cv, _ in comps:
        bw[cid] = mcu_w * ch
        bh[cid] = mcu_h * cv
        store[cid] = np.zeros((bh[cid] * bw[cid], 64), np.int64)

    reader = _BitReader(data)
    pred = {cid: 0 for cid, _, _, _ in comps}
    restart_set = set(restarts)
    mcu_idx = 0
    for my in range(mcu_h):
        for mx in range(mcu_w):
            if (
                restart_interval
                and mcu_idx
                and mcu_idx % restart_interval == 0
            ):
                # Resync: advance to the recorded restart boundary.
                byte_pos = (reader.pos + 7) >> 3
                nxt = [r for r in restart_set if r >= byte_pos]
                if nxt:
                    reader.pos = min(nxt) * 8
                else:
                    reader.pos = (byte_pos) * 8
                pred = {cid: 0 for cid in pred}
            for cid, ch, cv, _ in comps:
                dct, act = scan_map[cid]
                dtab, atab = dc_tabs[dct], ac_tabs[act]
                for by in range(cv):
                    for bx in range(ch):
                        zz = [0] * 64
                        _, diff = reader.coef(dtab)
                        pred[cid] += diff
                        zz[0] = pred[cid]
                        k = 1
                        while k < 64:
                            rs, val = reader.coef(atab)
                            if rs == 0x00:  # EOB
                                break
                            if rs == 0xF0:  # ZRL
                                k += 16
                                continue
                            k += rs >> 4
                            if k > 63:
                                raise ValueError("AC run past block end")
                            zz[k] = val
                            k += 1
                        row = my * cv + by
                        col = mx * ch + bx
                        store[cid][row * bw[cid] + col] = zz
            mcu_idx += 1

    # Reconstruct planes, upsample, color-convert.
    planes: dict[int, np.ndarray] = {}
    for cid, ch, cv, tq in comps:
        plane = _dequant_idct(store[cid], qtabs[tq], bh[cid] * 8, bw[cid] * 8)
        if ch < hmax or cv < vmax:
            plane = np.repeat(np.repeat(plane, vmax // cv, axis=0), hmax // ch, axis=1)
        planes[cid] = plane[:fh, :fw]
    if len(comps) == 1:
        return planes[comps[0][0]][:, :, None]
    y, cb, cr = (planes[c[0]] for c in comps)
    return ycbcr_to_rgb(y, cb, cr)
