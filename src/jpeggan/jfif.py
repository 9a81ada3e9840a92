"""Baseline JFIF serialization of quantized coefficient containers.

Writes real, decoder-compatible files: interleaved MCUs, DC prediction,
run/size entropy coding with the standard baseline Huffman tables, byte
stuffing, and 16-bit quantization tables when coarse scaling overflows a
byte. Each scan is coded as one bit string: the writer joins its code and
value bits, pads them with 1-bits to a whole byte and stuffs every 0xFF once
(T.81 B.1.1.5, F.1.2); the reader finds the scan's end, unstuffs it once and
reads codes and values by slicing.

Containers hold (h, w) level planes, and this is the one module that cuts
them into 8x8 blocks: the writer blockifies each plane before its zig-zag
gather, and the reader fills a (rows, cols, 64) buffer per plane and lays it
back out as a plane once, after the scan.

The header, SOI through SOS, is one function of the quality factor, the
extents and the chroma mode, `_header`, and both sides use it. The reader
reads only files this writer emits: it finds q from the luma quantization
table, the extents and the mode in SOF0, rebuilds the header and compares
it byte for byte, naming the first differing byte's offset. Files with other
segments, another segment order or other tables are rejected; the reader is
not a general-purpose decoder.
"""

from __future__ import annotations

import bisect
import struct

import numpy as np

from . import jpeg
from .jpeg import EncodedImage

__all__ = ["encode_jfif", "decode_jfif", "write_jfif", "read_jfif"]

# Baseline Huffman tables: (count of codes per length 1..16, symbol list).
DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)

_EOB, _ZRL = 0x00, 0xF0

# (table class, table id) -> table, in the order the writer emits DHT segments
_HUFFMAN = {(0, 0): DC_LUMA, (0, 1): DC_CHROMA, (1, 0): AC_LUMA, (1, 1): AC_CHROMA}

# (component id, plane, quantization table, DC and AC Huffman table) per
# component, in the order SOF0 and SOS list them
_COMPONENTS = ((1, "y", 0, 0), (2, "cb", 1, 1), (3, "cr", 1, 1))

# mode -> (horizontal, vertical) sampling factors of each component; luma's
# are the largest, so they give the MCU's extent in blocks
_SAMPLING = {mode: (jpeg.mode_factors(mode)[::-1], (1, 1), (1, 1)) for mode in jpeg.MODES}

_ZZ = jpeg.ZIGZAG_INDEX.tolist()


def _canonical_codes(table):
    """value -> (code, length) assignment for a (counts, symbols) table."""
    counts, symbols = table
    codes, code, pos = {}, 0, 0
    for length in range(1, 17):
        for _ in range(counts[length - 1]):
            codes[symbols[pos]] = (code, length)
            code += 1
            pos += 1
        code <<= 1
    return codes


# value -> code bit string for the writer, and the inverse for the reader
_CODES = {
    key: {v: format(c, f"0{n}b") for v, (c, n) in _canonical_codes(table).items()}
    for key, table in _HUFFMAN.items()
}
_VALUES = {key: {s: v for v, s in codes.items()} for key, codes in _CODES.items()}


def _segment(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _dqt_payload(tq: int, table: np.ndarray) -> bytes:
    zz = jpeg.zigzag(table.astype(np.int64))
    if table.max() > 255:
        return bytes([0x10 | tq]) + b"".join(struct.pack(">H", int(v)) for v in zz)
    return bytes([tq]) + bytes(int(v) for v in zz)


def _sof_payload(height: int, width: int, mode: str) -> bytes:
    out = struct.pack(">BHHB", 8, height, width, len(_COMPONENTS))
    for (cid, _, tq, _), (h, v) in zip(_COMPONENTS, _SAMPLING[mode]):
        out += bytes([cid, h << 4 | v, tq])
    return out


_START = (
    ("SOI", b"\xff\xd8"),
    ("APP0", _segment(0xE0, b"JFIF\x00" + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + b"\x00\x00")),
)

# q -> its luma and chroma DQT segments. Built from scale_quant_matrix so
# that importing the module leaves the quant_matrices cache empty.
_DQT = {
    q: tuple(
        _segment(0xDB, _dqt_payload(tq, jpeg.scale_quant_matrix(base, q)))
        for tq, base in enumerate((jpeg.LUMA_QUANT_BASE, jpeg.CHROMA_QUANT_BASE))
    )
    for q in range(1, 101)
}

# every quality factor has its own luma table, so that table alone names q
_QUALITY_BY_LUMA = {luma[4:]: q for q, (luma, _) in _DQT.items()}

# Ns, then (Cs, Td << 4 | Ta) per component, then Ss = 0, Se = 63, Ah = Al = 0
_SOS = bytes(
    [len(_COMPONENTS), *(b for cid, _, _, t in _COMPONENTS for b in (cid, t << 4 | t)), 0, 63, 0]
)

_END = (
    *(
        ("DHT", _segment(0xC4, bytes([tc << 4 | th, *counts, *symbols])))
        for (tc, th), (counts, symbols) in _HUFFMAN.items()
    ),
    ("SOS", _segment(0xDA, _SOS)),
)


def _header(q: int, height: int, width: int, mode: str) -> list[tuple[str, bytes]]:
    """The named segments from SOI through SOS of every file with these settings."""
    return [
        *_START,
        *(("DQT", seg) for seg in _DQT[q]),
        ("SOF0", _segment(0xC0, _sof_payload(height, width, mode))),
        *_END,
    ]


def _mcu_grid(height: int, width: int, mode: str) -> tuple[int, int]:
    h, v = _SAMPLING[mode][0]
    return height // (8 * v), width // (8 * h)


def _mcu_order(height: int, width: int, mode: str):
    """(component index, block row, block column) of every block in scan
    order: MCUs row by row, and in each MCU every component's v x h blocks
    row by row (T.81 A.2.3)."""
    rows, cols = _mcu_grid(height, width, mode)
    for my in range(rows):
        for mx in range(cols):
            for c, (h, v) in enumerate(_SAMPLING[mode]):
                for by in range(v):
                    for bx in range(h):
                        yield c, my * v + by, mx * h + bx


def _value_bits(v: int, size: int) -> str:
    return format(v if v >= 0 else v + (1 << size) - 1, f"0{size}b")


def _encode_block(bits: list, zz: list, pred: int, dc_codes, ac_codes) -> None:
    diff = zz[0] - pred
    size = abs(diff).bit_length()
    if size > 11:
        raise ValueError(f"DC difference {diff} exceeds the baseline range")
    bits.append(dc_codes[size])
    if size:
        bits.append(_value_bits(diff, size))
    run = 0
    for v in zz[1:]:
        if not v:
            run += 1
            continue
        size = abs(v).bit_length()
        if size > 10:
            raise ValueError(f"AC coefficient {v} exceeds the baseline range")
        if run > 15:
            bits.append(ac_codes[_ZRL] * (run >> 4))
            run &= 15
        bits.append(ac_codes[run << 4 | size])
        bits.append(_value_bits(v, size))
        run = 0
    if run:
        bits.append(ac_codes[_EOB])


def _scan_bytes(enc: EncodedImage) -> bytes:
    """The entropy-coded segment: one bit string, 1-padded, stuffed once."""
    planes = []
    for _, plane, _, _ in _COMPONENTS:
        blocks = jpeg.blockify(getattr(enc, plane))
        planes.append(blocks.reshape(*blocks.shape[:2], 64)[..., jpeg.ZIGZAG_INDEX].tolist())
    bits, pred = [], [0] * len(_COMPONENTS)
    for c, r, col in _mcu_order(enc.height, enc.width, enc.mode):
        t = _COMPONENTS[c][3]
        zz = planes[c][r][col]
        _encode_block(bits, zz, pred[c], _CODES[0, t], _CODES[1, t])
        pred[c] = zz[0]
    s = "".join(bits)
    s += "1" * (-len(s) % 8)
    return int(s or "0", 2).to_bytes(len(s) // 8, "big").replace(b"\xff", b"\xff\x00")


def encode_jfif(enc: EncodedImage) -> bytes:
    enc.validate()
    if max(enc.height, enc.width) > 65535:
        raise ValueError(f"coded width x height {enc.width}x{enc.height} exceeds SOF0's 16-bit limit of 65535")
    header = _header(enc.quality_factor, enc.height, enc.width, enc.mode)
    return b"".join(seg for _, seg in header) + _scan_bytes(enc) + b"\xff\xd9"


def _compare(data: bytes, segments) -> int:
    """Raise at the first byte where `data` differs from `segments` laid end
    to end from its start; return the offset just past them."""
    pos = 0
    for name, seg in segments:
        got = data[pos : pos + len(seg)]
        if got != seg:
            at = next((i for i, (a, b) in enumerate(zip(got, seg)) if a != b), len(got))
            what = "the file ends inside" if at == len(got) else f"{name} differs from"
            raise ValueError(f"offset {pos + at}: {what} the header jpeggan writes")
        pos += len(seg)
    return pos


def _decode_scan(data: bytes, start: int, planes: list, order) -> int:
    """Decode the scan that begins at `start` into `planes` (row-major blocks
    of 64, in component order) along `order`; return the offset just past the
    scan's last byte, padding included."""
    stuffed, end = [], data.find(b"\xff", start)
    while end != -1 and data[end + 1 : end + 2] == b"\x00":
        stuffed.append(end - start - len(stuffed))  # the 0xFF's index once unstuffed
        end = data.find(b"\xff", end + 2)
    end = len(data) if end == -1 else end
    bits = bin(int.from_bytes(b"\x01" + data[start:end].replace(b"\xff\x00", b"\xff"), "big"))[3:]

    def offset(byte: int) -> int:
        return start + byte + bisect.bisect_left(stuffed, byte)

    def bad(at: int, message: str) -> ValueError:
        return ValueError(f"offset {offset(at // 8)}: {message}")

    def ran_out() -> ValueError:
        nxt = data[end + 1 : end + 2]
        if nxt and nxt != b"\xd9":
            return ValueError(f"offset {end}: marker 0xFF{nxt[0]:02X} inside entropy data")
        return ValueError(f"offset {end}: entropy data ran off the end")

    def code(at: int, table: dict) -> tuple[int, int]:
        for n in range(1, 17):
            sym = table.get(bits[at : at + n])
            if sym is not None:
                return sym, at + n
        raise ran_out() if at + 16 > len(bits) else bad(at, "no Huffman code matches")

    def value(at: int, size: int) -> tuple[int, int]:  # T.81 F.2.2.1 EXTEND, size >= 1
        if at + size > len(bits):
            raise ran_out()
        raw = int(bits[at : at + size], 2)
        return (raw if raw >> (size - 1) else raw - (1 << size) + 1), at + size

    # the standard tables hold DC categories 0..11, and AC symbols with sizes
    # 1..10 besides EOB and ZRL (T.81 F.1.2), so no symbol needs a range check
    pred, pos = [0] * len(_COMPONENTS), 0
    for c, r, col in order:
        t = _COMPONENTS[c][3]
        block = [0] * 64
        size, pos = code(pos, _VALUES[0, t])
        if size:
            diff, pos = value(pos, size)
            pred[c] += diff
        block[0] = pred[c]
        k = 1
        while k < 64:
            at = pos
            sym, pos = code(pos, _VALUES[1, t])
            if sym == _EOB:
                break
            if sym == _ZRL:
                k += 16
                continue
            k += sym >> 4
            if k > 63:
                raise bad(at, "AC run overflows the block")
            block[_ZZ[k]], pos = value(pos, sym & 0x0F)
            k += 1
        planes[c][r, col] = block
    return offset(-(-pos // 8))


def decode_jfif(data: bytes) -> EncodedImage:
    data = bytes(data)  # a bytearray or memoryview too: q is looked up by slices of it
    # SOI and APP0 are the same in every file: garbage is reported at its start
    at = _compare(data, _START) + 4  # the luma DQT's Pq/Tq byte
    # an 8-bit or a 16-bit table
    q = _QUALITY_BY_LUMA.get(data[at : at + 65]) or _QUALITY_BY_LUMA.get(data[at : at + 129])
    if q is None:
        raise ValueError(f"offset {at}: luma quantization table matches no quality factor in 1..100")
    sof = at - 4 + sum(len(seg) for seg in _DQT[q])
    # extents and luma sampling byte; zero-filled past a cut, which _compare reports
    height, width, luma = struct.unpack(">HH2xB", data[sof + 5 : sof + 12].ljust(7, b"\0"))
    # an unknown sampling byte is reported against the 4:4:4 header
    mode = next((m for m, ((h, v), *_) in _SAMPLING.items() if luma == h << 4 | v), "4:4:4")
    scan_start = _compare(data, _header(q, height, width, mode))
    h, v = _SAMPLING[mode][0]
    if height % (8 * v) or width % (8 * h):
        raise ValueError(f"offset {sof + 5}: extent {width}x{height} is not MCU-aligned")

    rows, cols = _mcu_grid(height, width, mode)
    blocks = rows * cols * sum(h * v for h, v in _SAMPLING[mode])
    if 2 * blocks > 8 * (len(data) - scan_start):  # a DC code and an AC code per block
        raise ValueError(f"offset {scan_start}: scan too short for a {width}x{height} image")
    planes = [np.zeros((rows * v, cols * h, 64), dtype=np.int64) for h, v in _SAMPLING[mode]]
    end = _decode_scan(data, scan_start, planes, _mcu_order(height, width, mode))
    if data[end : end + 2] != b"\xff\xd9":
        raise ValueError(f"offset {end}: expected EOI after the scan")
    if data[end + 2 :]:
        raise ValueError(f"offset {end + 2}: trailing bytes after EOI")

    enc = EncodedImage(q, mode, *(jpeg.unblockify(p.reshape(*p.shape[:2], 8, 8)) for p in planes))
    try:
        enc.validate()
    except ValueError as e:
        raise ValueError(f"offset {scan_start}: {e}") from None
    return enc


def write_jfif(enc: EncodedImage, path) -> None:
    data = encode_jfif(enc)  # before open: a rejected container leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def read_jfif(path) -> EncodedImage:
    with open(path, "rb") as fh:
        return decode_jfif(fh.read())
