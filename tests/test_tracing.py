"""The benchmark's tracer still finds every name it rebinds in `jpeggan`.

`perfbench/tracing.py` wraps public functions and methods by name; a rename
in the package would otherwise surface only in a traced benchmark run.
"""

import inspect
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

from jpeggan import codec, jfif  # noqa: E402
from jpeggan import tensor as T  # noqa: E402
from jpeggan.jpeg import EncodedImage  # noqa: E402
from jpeggan.tensor import Tensor  # noqa: E402


def _bound(owner, attr):
    return owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)


def _targets():
    out = [(T, op) for op in tracing.tensor_ops()] + [(T, "grad")]
    out += [tracing._resolve(module, path) for module, path, _ in tracing.LAYER_TARGETS]
    return out


def test_every_target_resolves():
    for module, path, _ in tracing.LAYER_TARGETS:
        owner, attr = tracing._resolve(module, path)
        assert attr in vars(owner), f"{module.__name__}.{path} is gone"
    assert {"conv2d", "conv2d_weight", "matmul"} <= set(tracing.tensor_ops())


def test_patched_rebinds_and_restores():
    targets = _targets()
    originals = [_bound(owner, attr) for owner, attr in targets]
    with tracing.patched(tracing.Tracer()) as tracer:
        for (owner, attr), original in zip(targets, originals):
            wrapped = _bound(owner, attr)
            assert wrapped is not original, attr
            inner = wrapped.__func__ if isinstance(wrapped, classmethod) else wrapped
            plain = original.__func__ if isinstance(original, classmethod) else original
            assert inner.__wrapped__ is plain, attr
        zeros = Tensor(np.zeros((1, 1, 8, 8)))
        codec.decode_planes(zeros, zeros, zeros, 75, "4:4:4")
    names = {span[0] for span in tracer.spans}
    assert {"codec.decode_planes", "tensor.matmul"} <= names
    for (owner, attr), original in zip(targets, originals):
        assert _bound(owner, attr) is original, attr


def test_encode_jfif_records_bytes_and_pixels():
    # `jfif.bits_per_pixel` divides the bytes written by the pixels coded,
    # which the tracer reads from the container's derived extents
    planes = (np.zeros((16, 32), dtype=np.int64), np.zeros((8, 16), dtype=np.int64))
    enc = EncodedImage(75, "4:2:0", planes[0], planes[1], planes[1])
    with tracing.patched(tracing.Tracer()) as tracer:
        data = jfif.encode_jfif(enc)
    spans = [span for span in tracer.spans if span[0] == "jfif.encode_jfif"]
    assert len(spans) == 1
    *_, size, aux = spans[0]
    assert (size, aux) == (len(data), 32 * 16)
