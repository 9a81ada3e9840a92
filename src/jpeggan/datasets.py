"""Image sources: PPM files, CIFAR-style binaries, and a synthetic corpus.

Everything is exchanged as float arrays in [0, 255]; batches are (n, 3, h, w).

The synthetic corpus draws each image's randomness from its own generator,
keyed by (seed, index), as a few blocks of raw doubles that are mapped onto
their ranges with numpy's `uniform` formula. It then renders a fixed chunk
of images (a pixel budget: 64 images at 32x32) in one vectorised pass,
straight into the preallocated output array. Every pixel keeps the exact
float64 operations of the original one-image-at-a-time generator, so the
corpus bytes are unchanged and do not depend on the chunk size.
"""

from __future__ import annotations

import os

import numpy as np

from .rng import RngStreams

__all__ = [
    "read_ppm",
    "write_ppm",
    "load_cifar_batch",
    "synthetic_dataset",
    "load_dataset",
    "write_sample_grid",
]


def _read_header_tokens(fh, count):
    """Pull whitespace-separated header tokens. A '#' starts a comment that
    runs to the end of its line and ends any token it touches."""
    tokens, tok = [], b""
    while len(tokens) < count:
        ch = fh.read(1)
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
        if ch and not ch.isspace():
            tok += ch
        elif tok:
            tokens.append(tok)
            tok = b""
        elif not ch:
            raise ValueError("truncated header")
    return tokens


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6) to an (h, w, 3) float32 array scaled to [0, 255].

    Every ValueError it raises names `path`.
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P6":
            raise ValueError(f"{path}: not a binary PPM (magic {magic!r})")
        try:
            width, height, maxval = (int(t) for t in _read_header_tokens(fh, 3))
        except ValueError as e:
            raise ValueError(f"{path}: bad header: {e}") from None
        if width < 1 or height < 1:
            raise ValueError(f"{path}: bad extent {width}x{height}")
        if not 0 < maxval < 65536:
            raise ValueError(f"{path}: bad maxval {maxval}")
        wide = maxval > 255
        need = width * height * 3 * (2 if wide else 1)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:  # checked before reading: the header may claim any size
            raise ValueError(f"{path}: expected {need} sample bytes, got {left}")
        raw = fh.read(need)
    dtype = ">u2" if wide else np.uint8
    img = np.frombuffer(raw, dtype=dtype).reshape(height, width, 3)
    return img.astype(np.float32) * (255.0 / maxval)


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {image.shape}")
    if image.size == 0:
        raise ValueError(f"empty image extent {image.shape[1]}x{image.shape[0]}")
    if not (image.min() >= 0 and image.max() <= 255):  # NaN fails both
        raise ValueError("pixel values outside [0, 255]")
    data = np.round(image).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def load_cifar_batch(path, count: int | None = None) -> np.ndarray:
    """Channel-planar 32x32 records: one label byte then 3072 pixel bytes.

    Loads the first `count` records (all when None or more than the file
    holds) as (n, 3, 32, 32) float32.
    """
    if count is not None and count < 0:
        raise ValueError(f"{path}: record count must be non-negative, got {count}")
    record = 1 + 3 * 32 * 32
    size = os.path.getsize(path)
    if size == 0 or size % record:
        raise ValueError(f"{path}: size {size} is not a multiple of {record}-byte records")
    total = size // record
    n = total if count is None else min(count, total)
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(n * record), dtype=np.uint8)
    recs = raw.reshape(n, record)[:, 1:]
    return recs.reshape(n, 3, 32, 32).astype(np.float32)


# Pixels rendered in one vectorised pass: 64 images at 32x32, 16 at 64x64.
_CHUNK_PIXELS = 64 * 32 * 32


def _uniform(u, lo, hi):
    """Map doubles in [0, 1) onto [lo, hi) with numpy's own `uniform` formula."""
    return lo + (hi - lo) * u


def _draws(gen: np.random.Generator, size: int):
    """Every draw behind one image, in the order the corpus has always taken them.

    Runs of uniforms come as blocks of raw doubles; `_render` maps them onto
    their ranges. An image without a horizon edge gets row `size`, shade 1.
    """
    base = gen.random(9)  # top RGB, bottom RGB, ripple angle, amplitude, frequency
    blobs = gen.random((int(gen.integers(2, 5)), 7))  # centre y, x, radius, sharpness, RGB
    row, shade = size, 1.0
    if gen.uniform() < 0.5:  # hard horizon edge
        row = int(gen.integers(size // 4, 3 * size // 4))
        shade = gen.uniform(0.4, 0.9)
    return base, blobs, row, shade, gen.normal(0, 1.5, size=(3, size, size))


def _render(draws, size: int, out: np.ndarray) -> None:
    """Render one `_draws` result per image into `out`, (n, 3, size, size) float32.

    Every pixel goes through the float64 operations it would alone, in the
    same order, so an image's bytes do not depend on the chunk it falls in.
    """
    base, blobs, rows, shades, noise = zip(*draws)
    n = len(draws)
    base = np.stack(base)
    rgb = _uniform(base[:, :6], 40, 215)
    top, bottom = rgb[:, :3, None, None], rgb[:, 3:, None, None]
    ang = _uniform(base[:, 6], 0, 2 * np.pi)[:, None, None]
    amp = _uniform(base[:, 7], 0, 25)[:, None, None]
    freq = _uniform(base[:, 8], 0.5, 2.0)[:, None, None]
    grid = np.arange(size)
    y = grid / float(size)
    ripple = amp * np.sin(2 * np.pi * freq * (np.cos(ang) * y + np.sin(ang) * y[:, None]))
    img = top + (bottom - top) * y[:, None] + ripple[:, None]  # sky-like gradient

    lo = np.array([0, 0, size / 10, 0.8, 20, 20, 20])
    hi = np.array([size, size, size / 3, 4.0, 235, 235, 235])
    for k in range(max(map(len, blobs))):
        have = [i for i in range(n) if len(blobs[i]) > k]
        cy, cx, radius, sharpness, *color = _uniform(np.stack([blobs[i][k] for i in have]), lo, hi).T
        dist = np.sqrt((grid - cy[:, None])[:, :, None] ** 2 + (grid - cx[:, None])[:, None, :] ** 2)
        clipped = np.clip((dist - radius[:, None, None]) * sharpness[:, None, None], -30, 30)
        mask = (1.0 / (1.0 + np.exp(clipped)))[:, None]  # soft disc
        part = img if len(have) == n else img[have]
        part *= 1 - mask
        part += np.stack(color, 1)[:, :, None, None] * mask
        if part is not img:
            img[have] = part

    img *= np.where(grid >= np.array(rows)[:, None], np.array(shades)[:, None], 1.0)[:, None, :, None]
    img += np.stack(noise)
    out[...] = np.clip(img, 0, 255, out=img)


def synthetic_dataset(seed: int, count: int, size: int = 32) -> np.ndarray:
    """Deterministic corpus; image i depends only on (seed, i), not on count."""
    if count < 1:
        raise ValueError("count must be positive")
    if size < 16 or size % 16:
        raise ValueError("size must be a positive multiple of 16")
    streams = RngStreams(seed)
    out = np.empty((count, 3, size, size), np.float32)
    chunk = max(1, _CHUNK_PIXELS // (size * size))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        draws = [_draws(streams.spawn("synthetic-image", i), size) for i in range(start, stop)]
        _render(draws, size, out[start:stop])
    return out


def load_dataset(source, count: int | None = None, size: int = 32, seed: int = 0) -> np.ndarray:
    """Batch loader: 'synthetic', a directory of .ppm files, or a CIFAR .bin."""
    if source == "synthetic":
        return synthetic_dataset(seed, count if count is not None else 256, size)
    if os.path.isdir(source):
        names = sorted(n for n in os.listdir(source) if n.endswith(".ppm"))
        if count is not None:
            names = names[:count]
        if not names:
            raise ValueError(f"{source}: no .ppm files")
        imgs = [read_ppm(os.path.join(source, n)).transpose(2, 0, 1) for n in names]
        shapes = {i.shape for i in imgs}
        if len(shapes) != 1:
            raise ValueError(f"{source}: mixed image shapes {sorted(shapes)}")
        return np.stack(imgs)
    if str(source).endswith(".bin"):
        return load_cifar_batch(source, count)
    raise ValueError(f"unrecognized dataset source: {source!r}")


def write_sample_grid(path, images: np.ndarray, cols: int = 8, gap: int = 2) -> None:
    """Tile (n, 3, h, w) images into one PPM, gap-pixel black rules between."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1] != 3:
        raise ValueError(f"expected (n, 3, h, w) images, got {images.shape}")
    if cols < 1:
        raise ValueError(f"grid needs at least one column, got {cols}")
    if images.shape[0] == 0:
        raise ValueError("grid needs at least one image")
    n, _, h, w = images.shape
    cols = min(cols, n)
    rows = (n + cols - 1) // cols
    canvas = np.zeros((rows * h + (rows - 1) * gap, cols * w + (cols - 1) * gap, 3))
    for i in range(n):
        r, c = divmod(i, cols)
        top, left = r * (h + gap), c * (w + gap)
        canvas[top : top + h, left : left + w] = images[i].transpose(1, 2, 0)
    write_ppm(path, np.clip(canvas, 0, 255))
