"""Baseline JFIF serialization of quantized coefficient containers.

Writes real, decoder-compatible files: interleaved MCUs, DC prediction,
run/size entropy coding with the standard baseline Huffman tables, byte
stuffing, and 16-bit quantization tables when coarse scaling overflows a
byte. The reader handles exactly the subset the writer emits and reports
byte offsets on malformed input; it is not a general-purpose decoder.
"""

from __future__ import annotations

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


def _canonical_decoder(table):
    return {cl: v for v, cl in _canonical_codes(table).items()}


class _BitWriter:
    """MSB-first bit sink with 0xFF byte stuffing and 1-bit final padding."""

    def __init__(self):
        self.out = bytearray()
        self._acc = 0
        self._nbits = 0

    def put(self, value: int, nbits: int) -> None:
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            byte = (self._acc >> (self._nbits - 8)) & 0xFF
            self._nbits -= 8
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)

    def flush(self) -> None:
        if self._nbits:
            pad = 8 - self._nbits
            self.put((1 << pad) - 1, pad)


class _BitReader:
    """Entropy-segment reader: un-stuffs 0xFF 0x00, stops at any marker."""

    def __init__(self, data: bytes, start: int):
        self.data = data
        self.pos = start
        self._acc = 0
        self._nbits = 0
        self.marker_pos = None  # set once a real marker terminates the segment

    def _pull_byte(self) -> int:
        if self.pos >= len(self.data):
            raise ValueError(f"offset {self.pos}: entropy data ran off the end")
        b = self.data[self.pos]
        if b == 0xFF:
            if self.pos + 1 >= len(self.data):
                raise ValueError(f"offset {self.pos}: dangling 0xFF")
            nxt = self.data[self.pos + 1]
            if nxt != 0x00:
                self.marker_pos = self.pos
                raise ValueError(
                    f"offset {self.pos}: marker 0xFF{nxt:02X} inside entropy data"
                )
            self.pos += 2
            return 0xFF
        self.pos += 1
        return b

    def bit(self) -> int:
        if not self._nbits:
            self._acc = self._pull_byte()
            self._nbits = 8
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def huffman(self, decoder) -> int:
        code, length = 0, 0
        while length < 16:
            code = (code << 1) | self.bit()
            length += 1
            sym = decoder.get((code, length))
            if sym is not None:
                return sym
        raise ValueError(f"offset {self.pos}: no Huffman code matches")

    def align(self) -> None:
        self._nbits = 0


def _category(v: int) -> int:
    return int(abs(v)).bit_length()


def _value_bits(v: int, size: int) -> int:
    return v if v >= 0 else v + (1 << size) - 1


def _extend(raw: int, size: int) -> int:
    if size == 0:
        return 0
    if raw < (1 << (size - 1)):
        return raw - (1 << size) + 1
    return raw


def _encode_block(writer, zz, pred, dc_codes, ac_codes):
    diff = int(zz[0]) - pred
    size = _category(diff)
    if size > 11:
        raise ValueError(f"DC difference {diff} exceeds the baseline range")
    code, length = dc_codes[size]
    writer.put(code, length)
    if size:
        writer.put(_value_bits(diff, size), size)
    run = 0
    for k in range(1, 64):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        size = _category(v)
        if size > 10:
            raise ValueError(f"AC coefficient {v} exceeds the baseline range")
        while run >= 16:
            code, length = ac_codes[_ZRL]
            writer.put(code, length)
            run -= 16
        code, length = ac_codes[(run << 4) | size]
        writer.put(code, length)
        writer.put(_value_bits(v, size), size)
        run = 0
    if run:
        code, length = ac_codes[_EOB]
        writer.put(code, length)
    return int(zz[0])


def _decode_block(reader, pred, dc_dec, ac_dec):
    zz = np.zeros(64, dtype=np.int64)
    size = reader.huffman(dc_dec)
    if size > 11:  # baseline DC categories are 0..11 (T.81, F.1.2.1)
        raise ValueError(f"offset {reader.pos}: DC category {size} exceeds 11")
    zz[0] = pred + _extend(reader.bits(size), size)
    k = 1
    while k < 64:
        sym = reader.huffman(ac_dec)
        if sym == _EOB:
            break
        run, size = sym >> 4, sym & 0x0F
        if size == 0:
            if run != 15:
                raise ValueError(f"offset {reader.pos}: bad zero-size AC symbol {sym:#x}")
            k += 16
            continue
        if size > 10:  # baseline AC sizes are 1..10 (T.81, F.1.2.2)
            raise ValueError(f"offset {reader.pos}: AC size {size} exceeds 10")
        k += run
        if k > 63:
            raise ValueError(f"offset {reader.pos}: AC run overflows the block")
        zz[k] = _extend(reader.bits(size), size)
        k += 1
    return zz, int(zz[0])


def _segment(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _dqt_payload(tq: int, table: np.ndarray) -> bytes:
    zz = jpeg.zigzag(table.astype(np.int64))
    if table.max() > 255:
        return bytes([0x10 | tq]) + b"".join(struct.pack(">H", int(v)) for v in zz)
    return bytes([tq]) + bytes(int(v) for v in zz)


def _dht_payload(table_class: int, table_id: int, table) -> bytes:
    counts, symbols = table
    return bytes([table_class << 4 | table_id]) + bytes(counts) + bytes(symbols)


def _luma_sampling(mode: str) -> tuple[int, int]:
    fv, fh = jpeg.mode_factors(mode)
    return fh, fv  # JFIF orders horizontal factor first


def encode_jfif(enc: EncodedImage) -> bytes:
    enc.validate()
    ql, qc = jpeg.quant_matrices(enc.quality_factor)
    h_luma, v_luma = _luma_sampling(enc.mode)

    out = bytearray(b"\xff\xd8")
    out += _segment(0xE0, b"JFIF\x00" + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + b"\x00\x00")
    out += _segment(0xDB, _dqt_payload(0, ql))
    out += _segment(0xDB, _dqt_payload(1, qc))
    sof = struct.pack(">BHHB", 8, enc.height, enc.width, 3)
    sof += bytes([1, h_luma << 4 | v_luma, 0])
    sof += bytes([2, 0x11, 1]) + bytes([3, 0x11, 1])
    out += _segment(0xC0, sof)
    for table_class, table_id, table in (
        (0, 0, DC_LUMA),
        (0, 1, DC_CHROMA),
        (1, 0, AC_LUMA),
        (1, 1, AC_CHROMA),
    ):
        out += _segment(0xC4, _dht_payload(table_class, table_id, table))
    out += _segment(0xDA, bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]))

    dc_l, ac_l = _canonical_codes(DC_LUMA), _canonical_codes(AC_LUMA)
    dc_c, ac_c = _canonical_codes(DC_CHROMA), _canonical_codes(AC_CHROMA)
    writer = _BitWriter()
    pred = [0, 0, 0]
    mcu_rows = enc.height // (8 * v_luma)
    mcu_cols = enc.width // (8 * h_luma)
    for my in range(mcu_rows):
        for mx in range(mcu_cols):
            for by in range(v_luma):
                for bx in range(h_luma):
                    zz = jpeg.zigzag(enc.y[my * v_luma + by, mx * h_luma + bx])
                    pred[0] = _encode_block(writer, zz, pred[0], dc_l, ac_l)
            for ci, plane in ((1, enc.cb), (2, enc.cr)):
                zz = jpeg.zigzag(plane[my, mx])
                pred[ci] = _encode_block(writer, zz, pred[ci], dc_c, ac_c)
    writer.flush()
    out += writer.out
    out += b"\xff\xd9"
    return bytes(out)


def _parse_dqt(payload: bytes, tables: dict, offset: int) -> None:
    pos = 0
    while pos < len(payload):
        pq, tq = payload[pos] >> 4, payload[pos] & 0x0F
        pos += 1
        if pq not in (0, 1) or tq > 3:
            raise ValueError(f"offset {offset + pos}: bad DQT header byte")
        width = 2 if pq else 1
        if pos + 64 * width > len(payload):
            raise ValueError(f"offset {offset + pos}: truncated DQT table")
        if pq:
            vec = np.array(
                struct.unpack(f">{64}H", payload[pos : pos + 128]), dtype=np.int64
            )
        else:
            vec = np.frombuffer(payload[pos : pos + 64], dtype=np.uint8).astype(np.int64)
        tables[tq] = jpeg.inverse_zigzag(vec)
        pos += 64 * width


def _recover_quality(ql: np.ndarray, qc: np.ndarray) -> int:
    for q in range(1, 101):
        cl, cc = jpeg.quant_matrices(q)
        if np.array_equal(cl, ql) and np.array_equal(cc, qc):
            return q
    raise ValueError("quantization tables match no quality factor in 1..100")


def decode_jfif(data: bytes) -> EncodedImage:
    if len(data) < 4 or data[0:2] != b"\xff\xd8":
        raise ValueError("offset 0: missing SOI marker")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], tuple[list, list]] = {}
    sof = None
    scan_start = None
    while pos < len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"offset {pos}: expected a marker, got {data[pos]:#04x}")
        marker = data[pos + 1] if pos + 1 < len(data) else None
        if marker is None:
            raise ValueError(f"offset {pos}: truncated marker")
        pos += 2
        if marker == 0xD9:
            raise ValueError(f"offset {pos - 2}: EOI before any scan data")
        if pos + 2 > len(data):
            raise ValueError(f"offset {pos}: truncated segment length")
        (length,) = struct.unpack(">H", data[pos : pos + 2])
        payload = data[pos + 2 : pos + length]
        if length < 2 or len(payload) != length - 2:
            raise ValueError(f"offset {pos}: segment length overruns the file")
        seg_offset = pos + 2
        pos += length
        if marker == 0xDB:
            _parse_dqt(payload, qtables, seg_offset)
        elif marker == 0xC4:
            p = 0
            while p < len(payload):
                tc, th = payload[p] >> 4, payload[p] & 0x0F
                counts = list(payload[p + 1 : p + 17])
                n = sum(counts)
                symbols = list(payload[p + 17 : p + 17 + n])
                if len(counts) != 16 or len(symbols) != n:
                    raise ValueError(f"offset {seg_offset + p}: truncated DHT table")
                htables[(tc, th)] = (counts, symbols)
                p += 17 + n
        elif marker == 0xC0:
            if len(payload) < 15:  # header plus three 3-byte component specs
                raise ValueError(f"offset {seg_offset}: truncated SOF0 segment")
            precision, height, width, ncomp = struct.unpack(">BHHB", payload[:6])
            if precision != 8 or ncomp != 3:
                raise ValueError(f"offset {seg_offset}: only 8-bit 3-component baseline")
            comps = []
            for i in range(3):
                cid, hv, tq = payload[6 + 3 * i : 9 + 3 * i]
                comps.append((cid, hv >> 4, hv & 0x0F, tq))
            sof = (height, width, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7):
            raise ValueError(f"offset {seg_offset}: unsupported SOF type {marker:#04x}")
        elif marker == 0xDA:
            scan_start = pos
            break
        # APPn / COM / anything else: skipped
    if sof is None or scan_start is None:
        raise ValueError("missing SOF0 or SOS segment")
    height, width, comps = sof
    if [c[0] for c in comps] != [1, 2, 3]:
        raise ValueError("unexpected component ids")
    h_luma, v_luma = comps[0][1], comps[0][2]
    for cid, h, v, _tq in comps[1:]:
        if (h, v) != (1, 1):
            raise ValueError(f"component {cid}: chroma sampling {h}x{v} unsupported")
    mode_by_hv = {(1, 1): "4:4:4", (2, 1): "4:2:2", (2, 2): "4:2:0"}
    mode = mode_by_hv.get((h_luma, v_luma))
    if mode is None:
        raise ValueError(f"luma sampling {h_luma}x{v_luma} maps to no supported mode")
    if height % (8 * v_luma) or width % (8 * h_luma):
        raise ValueError(f"extent {width}x{height} is not MCU-aligned")
    if 0 not in qtables or 1 not in qtables:
        raise ValueError("missing quantization tables")
    needed = [(0, 0), (0, 1), (1, 0), (1, 1)]
    if any(k not in htables for k in needed):
        raise ValueError("missing Huffman tables")

    dc_l = _canonical_decoder(htables[(0, 0)])
    dc_c = _canonical_decoder(htables[(0, 1)])
    ac_l = _canonical_decoder(htables[(1, 0)])
    ac_c = _canonical_decoder(htables[(1, 1)])

    mcu_rows = height // (8 * v_luma)
    mcu_cols = width // (8 * h_luma)
    blocks = mcu_rows * mcu_cols * (h_luma * v_luma + 2)
    if 2 * blocks > 8 * (len(data) - scan_start):  # a DC code and an AC code per block
        raise ValueError(f"offset {scan_start}: scan too short for a {width}x{height} image")
    y = np.zeros((mcu_rows * v_luma, mcu_cols * h_luma, 8, 8), dtype=np.int64)
    cb = np.zeros((mcu_rows, mcu_cols, 8, 8), dtype=np.int64)
    cr = np.zeros((mcu_rows, mcu_cols, 8, 8), dtype=np.int64)
    reader = _BitReader(data, scan_start)
    pred = [0, 0, 0]
    for my in range(mcu_rows):
        for mx in range(mcu_cols):
            for by in range(v_luma):
                for bx in range(h_luma):
                    zz, pred[0] = _decode_block(reader, pred[0], dc_l, ac_l)
                    y[my * v_luma + by, mx * h_luma + bx] = jpeg.inverse_zigzag(zz)
            for ci, plane in ((1, cb), (2, cr)):
                zz, pred[ci] = _decode_block(reader, pred[ci], dc_c, ac_c)
                plane[my, mx] = jpeg.inverse_zigzag(zz)
    reader.align()
    end = reader.pos
    if data[end : end + 2] != b"\xff\xd9":
        raise ValueError(f"offset {end}: expected EOI after the scan")
    if data[end + 2 :]:
        raise ValueError(f"offset {end + 2}: trailing bytes after EOI")

    enc = EncodedImage(
        width=width,
        height=height,
        quality_factor=_recover_quality(qtables[0], qtables[1]),
        mode=mode,
        y=y,
        cb=cb,
        cr=cr,
    )
    enc.validate()
    return enc


def write_jfif(enc: EncodedImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_jfif(enc))


def read_jfif(path) -> EncodedImage:
    with open(path, "rb") as fh:
        return decode_jfif(fh.read())
