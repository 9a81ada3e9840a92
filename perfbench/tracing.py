"""Spans around the program's public functions, and the per-layer metrics.

A traced run rebinds public module attributes and class methods of the
`jpeggan` modules to thin wrappers defined here; nothing under `src/` is
edited. Callers inside the program look those names up at call time (for
example `layers.Conv2d.forward` calls `T.conv2d`, `jfif` calls
`jpeg.zigzag`), so the wrappers see every call. Spans stay in memory and are
written out once the run ends.

Each span is a tuple `(name, start_ns, end_ns, parent, op_id, size, aux)`:
`parent` is the index of the enclosing span (-1 at top level), `op_id` the
workload operation it belongs to (-1 during set-up), `size` the bytes the
call produced, and `aux` a second count (float64 output for tensor ops,
pixels for `jfif.encode_jfif`).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from jpeggan import codec, datasets, fid, jfif, jpeg, layers, networks, training
from jpeggan import tensor as T

SETUP_OP = -1

# Op kinds reported one by one; every other tape op is summed as `other`.
TENSOR_KINDS = (
    "conv2d", "im2col", "col2im", "matmul", "reshape", "permute", "expand",
    "add", "mul", "sum_axes", "avg_pool2d", "upsample_repeat2d", "clamp", "concat",
)

# (module, attribute path, span name); the span name is the metric stem.
LAYER_TARGETS = (
    (layers, "Conv2d.forward", "layers.Conv2d.forward"),
    (layers, "LocallyConnected.forward", "layers.LocallyConnected.forward"),
    (layers, "Quantization.forward", "layers.Quantization.forward"),
    (layers, "ResidualBlock.forward", "layers.ResidualBlock.forward"),
    (networks, "Trunk.forward", "networks.Trunk.forward"),
    (networks, "Generator.forward", "networks.Generator.forward"),
    (networks, "AnchorGenerator.forward", "networks.AnchorGenerator.forward"),
    (networks, "Discriminator.forward", "networks.Discriminator.forward"),
    (networks, "to_encoded_images", "networks.to_encoded_images"),
    (training, "gradient_penalty", "training.gradient_penalty"),
    (training, "Adam.step", "training.Adam.step"),
    (codec, "decode_planes", "codec.decode_planes"),
    (codec, "encode_image", "codec.encode_image"),
    (codec, "decode_image", "codec.decode_image"),
    (codec, "encode_batch", "codec.encode_batch"),
    (codec, "decode_batch", "codec.decode_batch"),
    (jpeg, "dct8x8", "jpeg.dct8x8"),
    (jpeg, "idct8x8", "jpeg.idct8x8"),
    (jpeg, "zigzag", "jpeg.zigzag"),
    (jpeg, "inverse_zigzag", "jpeg.inverse_zigzag"),
    (jpeg, "quant_matrices", "jpeg.quant_matrices"),
    (jfif, "encode_jfif", "jfif.encode_jfif"),
    (jfif, "decode_jfif", "jfif.decode_jfif"),
    (fid, "pixel_features", "fid.pixel_features"),
    (fid, "FidStats.from_features", "fid.FidStats.from_features"),
    (fid, "frechet_distance", "fid.frechet_distance"),
    (datasets, "synthetic_dataset", "datasets.synthetic_dataset"),
)

# Inclusive time per operation is reported for these spans.
TIMED_SPANS = tuple(
    name for _, _, name in LAYER_TARGETS
    if name not in ("jpeg.quant_matrices", "datasets.synthetic_dataset")
)

# Counters that must read the same on every run of one seed.
REPEATING = ("tensor.ops_per_step", "tensor.f64_outputs", "jfif.bytes_written",
             "jpeg.quant_matrices.calls") + tuple(f"tensor.{k}.calls" for k in TENSOR_KINDS)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for kind in TENSOR_KINDS:
        names += [f"tensor.{kind}.ms", f"tensor.{kind}.calls", f"tensor.{kind}.out_bytes"]
    names += ["tensor.other.ms", "tensor.other.calls", "tensor.grad.ms",
              "tensor.grad_create_graph.ms", "tensor.ops_per_step", "tensor.f64_outputs"]
    names += [f"{name}.ms" for name in TIMED_SPANS]
    names += ["training.critic_phase.ms", "training.generator_phase.ms",
              "jpeg.zigzag.calls", "jpeg.inverse_zigzag.calls", "jpeg.quant_matrices.calls",
              "jpeg.quant_matrices.calls_per_decoded_file", "jfif.bytes_written",
              "jfif.bytes_read", "jfif.bits_per_pixel", "datasets.synthetic_dataset.ms",
              "trace.overhead_ms", "trace.overhead_share", "trace.spans_per_op"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".ms") or name == "trace.overhead_ms":
        return "ms"
    if name.endswith("_bytes") or name.startswith("jfif.bytes"):
        return "bytes"
    if name == "jfif.bits_per_pixel":
        return "bit/px"
    if name in ("trace.overhead_share", "jpeg.quant_matrices.calls_per_decoded_file"):
        return "ratio"
    return "count"


def tensor_ops() -> list[str]:
    """Public tensor functions that record a tape node themselves.

    Composite helpers (`sqrt`, `mean_all`, ...) only call these, so wrapping
    exactly this set counts each tape op once.
    """
    return sorted(
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == T.__name__ and "_result" in fn.__code__.co_names
    )


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = SETUP_OP
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None, name_of=None):
        """`fn` with a span around each call; `measure(args, out)` -> (size, aux)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name_of(args, kwargs) if name_of else name
                spans[idx] = (label, start, end, parent, self.op_id, 0, 0)
            if measure is not None:
                spans[idx] = spans[idx][:5] + measure(args, out)
            return out

        return traced

    def dump(self, path) -> None:
        """One JSON array per line; the first line names the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op_id", "size", "aux"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _tensor_measure(args, out):
    return int(out.data.nbytes), int(out.data.dtype == np.float64)


def _grad_name(args, kwargs):
    create = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
    return "tensor.grad_create_graph" if create else "tensor.grad"


_MEASURES = {
    "jfif.encode_jfif": lambda args, out: (len(out), args[0].width * args[0].height),
    "jfif.decode_jfif": lambda args, out: (len(args[0]), 0),
}


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(tracer: Tracer):
    """Rebind every traced name to its wrapper; restore the originals after."""
    saved = []

    def rebind(owner, attr, make):
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    try:
        for op in tensor_ops():
            rebind(T, op, lambda fn, op=op: tracer.wrap(f"tensor.{op}", fn, _tensor_measure))
        rebind(T, "grad", lambda fn: tracer.wrap("tensor.grad", fn, name_of=_grad_name))
        for module, path, name in LAYER_TARGETS:
            owner, attr = _resolve(module, path)
            measure = _MEASURES.get(name)
            if isinstance(owner.__dict__.get(attr), classmethod):
                rebind(owner, attr, lambda cm, name=name: classmethod(tracer.wrap(name, cm.__func__)))
            else:
                rebind(owner, attr, lambda fn, name=name, m=measure: tracer.wrap(name, fn, m))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _is_tape_op(name: str) -> bool:
    return name.startswith("tensor.") and not name.startswith("tensor.grad")


def repeat_problems(spans) -> list[str]:
    """Call counts that differ between operations of one traced run.

    Every operation of a workload runs the same code on same-shaped inputs,
    so each counted call must occur equally often in each of them.
    """
    per_op: dict[str, Counter] = defaultdict(Counter)
    ops = set()
    for name, _, _, _, op, _, aux in spans:
        if op < 0:
            continue
        ops.add(op)
        if _is_tape_op(name):
            per_op["tensor.ops"][op] += 1
            per_op[name][op] += 1
            per_op["tensor.f64_outputs"][op] += aux
        elif name == "jpeg.quant_matrices":
            per_op[name][op] += 1
    problems = []
    for name, counts in sorted(per_op.items()):
        seen = {counts[op] for op in ops}
        if len(seen) > 1:
            problems.append(f"{name} calls differ between operations: {sorted(seen)}")
    return problems


def layer_metrics(spans, n_ops, window, f32, speed, phases, overhead_ms, untraced_p50_ms):
    """Per-layer values, each per workload operation.

    Times are averaged over all `n_ops` traced operations and scaled by the
    run's `speed` factor; counts and bytes over the first `window`
    operations, whose inputs depend only on the seed, so counts repeat
    exactly. Tensor op times are self times (children excluded); every other
    time is inclusive. `phases`, `overhead_ms` and `untraced_p50_ms` are
    already at reference speed.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    total_ms: Counter = Counter()
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    size: Counter = Counter()
    aux: Counter = Counter()
    setup_ms: Counter = Counter()
    setup_calls: Counter = Counter()
    qm_under_decode = 0
    for i, (name, start, end, parent, op, nbytes, extra) in enumerate(spans):
        dur_ms = speed * (end - start) / 1e6
        if op < 0:
            setup_ms[name] += dur_ms
            setup_calls[name] += 1
            continue
        total_ms[name] += dur_ms
        self_ms[name] += dur_ms - speed * child_ns[i] / 1e6
        if op < window:
            calls[name] += 1
            size[name] += nbytes
            aux[name] += extra
            if name == "jpeg.quant_matrices" and _has_ancestor(spans, parent, "jfif.decode_jfif"):
                qm_under_decode += 1

    per_op = 1.0 / max(n_ops, 1)
    per_win = 1.0 / max(window, 1)
    others = {n for n in self_ms if _is_tape_op(n) and n.split(".", 1)[1] not in TENSOR_KINDS}
    out = {}
    for kind in TENSOR_KINDS:
        name = f"tensor.{kind}"
        out[f"{name}.ms"] = self_ms[name] * per_op
        out[f"{name}.calls"] = calls[name] * per_win
        out[f"{name}.out_bytes"] = size[name] * per_win
    out["tensor.other.ms"] = sum(self_ms[n] for n in others) * per_op
    out["tensor.other.calls"] = sum(calls[n] for n in others) * per_win
    out["tensor.grad.ms"] = total_ms["tensor.grad"] * per_op
    out["tensor.grad_create_graph.ms"] = total_ms["tensor.grad_create_graph"] * per_op
    out["tensor.ops_per_step"] = sum(v for n, v in calls.items() if _is_tape_op(n)) * per_win
    out["tensor.f64_outputs"] = sum(v for n, v in aux.items() if _is_tape_op(n)) * per_win if f32 else 0.0
    for name in TIMED_SPANS:
        out[f"{name}.ms"] = total_ms[name] * per_op
    out["training.critic_phase.ms"] = phases.get("critic_ms", 0.0) * per_op
    out["training.generator_phase.ms"] = phases.get("generator_ms", 0.0) * per_op
    out["jpeg.zigzag.calls"] = calls["jpeg.zigzag"] * per_win
    out["jpeg.inverse_zigzag.calls"] = calls["jpeg.inverse_zigzag"] * per_win
    out["jpeg.quant_matrices.calls"] = calls["jpeg.quant_matrices"] * per_win
    decoded = calls["jfif.decode_jfif"]
    out["jpeg.quant_matrices.calls_per_decoded_file"] = qm_under_decode / decoded if decoded else 0.0
    out["jfif.bytes_written"] = size["jfif.encode_jfif"] * per_win
    out["jfif.bytes_read"] = size["jfif.decode_jfif"] * per_win
    pixels = aux["jfif.encode_jfif"]
    out["jfif.bits_per_pixel"] = 8.0 * size["jfif.encode_jfif"] / pixels if pixels else 0.0
    synth = "datasets.synthetic_dataset"
    out[f"{synth}.ms"] = setup_ms[synth] / setup_calls[synth] if setup_calls[synth] else 0.0
    out["trace.overhead_ms"] = overhead_ms
    out["trace.overhead_share"] = overhead_ms / untraced_p50_ms if untraced_p50_ms else 0.0
    out["trace.spans_per_op"] = sum(1 for s in spans if s[4] >= 0) * per_op
    return out


def _has_ancestor(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
