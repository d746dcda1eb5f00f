"""Span tracing of calls into the package, installed from outside it.

:class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call: name, start, end and the index of the enclosing
span. A function is replaced in every ``nearbeam`` module that holds it,
so a name imported into another module (``measure`` in ``schemes``) is
traced there too. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of each traced function, and (module, class, method)
# of each traced method; span names are "<module>.<name>"
FUNCTIONS = [
    ("nearbeam.geometry", "synth_channel"),
    ("nearbeam.codebook", "build_polar_codebook"),
    ("nearbeam.codebook", "build_wide_codebook"),
    ("nearbeam.measurement", "measure"),
    ("nearbeam.measurement", "measure_wide"),
    ("nearbeam.measurement", "sweep_oracle"),
    ("nearbeam.dataset", "generate_dataset"),
    ("nearbeam.dataset", "generate_sample"),
    ("nearbeam.dataset", "save_dataset"),
    ("nearbeam.dataset", "load_dataset"),
    ("nearbeam.training", "train_heads"),
    ("nearbeam.schemes", "original_scheme"),
    ("nearbeam.schemes", "improved_scheme"),
]
METHODS = [
    ("nearbeam.net.model", "NetworkModel", "forward"),
    ("nearbeam.net.model", "NetworkModel", "backward"),
    ("nearbeam.net.model", "NetworkModel", "predict_proba"),
    ("nearbeam.net.model", "NetworkModel", "predict_proba_batch"),
    ("nearbeam.net.optim", "Adam", "step"),
    ("nearbeam.net.layers", "Conv1D", "forward"),
    ("nearbeam.net.layers", "Conv1D", "backward"),
    ("nearbeam.net.layers", "FullyConnected", "forward"),
    ("nearbeam.net.layers", "FullyConnected", "backward"),
    ("nearbeam.net.layers", "BatchNorm", "forward"),
    ("nearbeam.net.layers", "BatchNorm", "backward"),
]


def _short(module: str) -> str:
    return module.split(".")[-1]


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        # span i is (name, start, end, parent, rows); rows is the batch size of
        # a network forward pass and None elsewhere
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, forward: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if forward:
                training = kwargs["training"] if "training" in kwargs else args[2:3] == (True,)
                span_name = f"{name}_train" if training else f"{name}_eval"
                rows = len(args[1])
            else:
                span_name, rows = name, None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (span_name, start, clock(), parent, rows)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every listed function and method; undone by :meth:`uninstall`."""
        modules = [m for n, m in sys.modules.items() if n.startswith("nearbeam") and m]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(f"{_short(module_name)}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            forward = cls_name == "NetworkModel" and attr == "forward"
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{cls_name}.{attr}", original, forward=forward))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, rows."""
        with open(path, "w") as f:
            for name, start, end, parent, rows in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "rows": rows}) + "\n")


class SpanStats:
    """Durations, self times and ancestry queries over a finished span list.

    Queries see only the spans that start inside ``window`` (start, end), when
    one is given; self times are computed over all spans.
    """

    def __init__(self, spans: list[tuple], window: tuple[float, float] | None = None):
        self.spans = spans
        lo, hi = window if window else (float("-inf"), float("inf"))
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            if lo <= span[1] <= hi:
                self.by_name.setdefault(span[0], []).append(i)
        self.duration = [end - start for _, start, end, _, _ in spans]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        # children of one span never overlap: the program is single threaded
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def select(self, name: str, under: str | None = None) -> list[int]:
        """Indices of spans called ``name``, optionally only those with an
        ancestor called ``under``."""
        picked = self.by_name.get(name, [])
        if under is None:
            return picked
        return [i for i in picked if self.has_ancestor(i, under)]

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def mean(self, name: str, under: str | None = None, self_only: bool = False) -> float:
        """Mean duration (or self time) of the selected spans, 0 if none."""
        idx = self.select(name, under)
        values = self.self_time if self_only else self.duration
        return sum(values[i] for i in idx) / len(idx) if idx else 0.0

    def total(self, name: str, under: str | None = None, self_only: bool = False) -> float:
        values = self.self_time if self_only else self.duration
        return sum(values[i] for i in self.select(name, under))

    def count(self, name: str, under: str | None = None) -> int:
        return len(self.select(name, under))

    def count_children(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        return sum(1 for i in self.select(name)
                   if self.spans[i][3] >= 0 and self.spans[self.spans[i][3]][0] == parent_name)

    def rows(self, name: str, under: str | None = None) -> int:
        return sum(self.spans[i][4] or 0 for i in self.select(name, under))


def train_flops_per_sample(model) -> float:
    """Forward FLOPs of one sample from the layer shapes, times 3 for the
    backward pass (input and weight gradients) of a training step."""
    length, flops = model.input_length, 0.0
    for layer in model.layers:
        if layer.kind == "conv1d":
            length = length + 2 * layer.padding - layer.kernel + 1
            flops += 2.0 * layer.out_channels * layer.in_channels * layer.kernel * length
        elif layer.kind == "avgpool":
            length = layer.target_len
        elif layer.kind == "fc":
            flops += 2.0 * layer.in_features * layer.out_features
    return 3.0 * flops


def weight_bytes(model) -> int:
    """Bytes of every array a forward pass reads: parameters and running statistics."""
    return sum(value.nbytes for _, value in model.persistent_arrays())


def layer_metrics(stats: SpanStats, run) -> dict:
    """The per-layer metrics of a traced run; 0 where the run made no such call.

    ``trace.overhead_pct`` is not among them: it compares the traced run
    with an untraced one.

    ``run.window_counts`` gives the bytes saved and head-epochs trained in
    the window ``stats`` covers.
    """
    def ratio(a, b):
        return a / b if b else 0.0

    fwd, bwd = "NetworkModel.forward_train", "NetworkModel.backward"
    batches = stats.count(fwd)

    def train_self(kind):
        busy = (stats.total(f"{kind}.forward", under=fwd, self_only=True)
                + stats.total(f"{kind}.backward", self_only=True))
        return ratio(busy, batches) * 1e3

    models = run.models
    mflop = ratio(sum(train_flops_per_sample(m) for m in models), len(models)) / 1e6
    weights = ratio(sum(weight_bytes(m) for m in models), len(models))
    step_time = stats.total(fwd) + stats.total(bwd) + stats.total("Adam.step")
    proba = stats.mean("NetworkModel.predict_proba")
    eval_fwd = "NetworkModel.forward_eval"
    return {
        "geometry.synth_channel_us": stats.mean("geometry.synth_channel") * 1e6,
        "codebook.build_polar_ms": stats.mean("codebook.build_polar_codebook") * 1e3,
        "measurement.sweep_oracle_us": stats.mean("measurement.sweep_oracle") * 1e6,
        "measurement.measure_wide_us": stats.mean("measurement.measure_wide") * 1e6,
        "measurement.measure_calls": ratio(
            stats.count_children("measurement.measure", "measurement.measure_wide"),
            stats.count("measurement.measure_wide")),
        "dataset.generate_sample_us": stats.mean("dataset.generate_sample") * 1e6,
        "dataset.save_mb_per_s": ratio(run.window_counts["saved_bytes"], stats.total("dataset.save_dataset")) / 1e6,
        "dataset.load_ms": stats.mean("dataset.load_dataset") * 1e3,
        "net.forward_train_ms": stats.mean(fwd) * 1e3,
        "net.backward_ms": stats.mean(bwd) * 1e3,
        "net.adam_step_ms": stats.mean("Adam.step") * 1e3,
        "net.conv1d_ms": train_self("Conv1D"),
        "net.fc_ms": train_self("FullyConnected"),
        "net.batchnorm_ms": train_self("BatchNorm"),
        "net.eval_us_per_sample": ratio(stats.total(eval_fwd, under="training.train_heads"),
                                        stats.rows(eval_fwd, under="training.train_heads")) * 1e6,
        "net.train_mflop_per_sample": mflop,
        "net.train_gflop_per_s": ratio(stats.rows(fwd) * mflop, step_time) / 1e3,
        "net.predict_proba_us": proba * 1e6,
        "net.weight_mb_per_forward": weights / 1e6,
        "net.predict_proba_gb_per_s": ratio(weights, proba) / 1e9,
        "net.forward_calls_per_selection": ratio(
            stats.count(eval_fwd, under="schemes.improved_scheme"),
            stats.count("schemes.improved_scheme")),
        "training.epoch_s": ratio(stats.total("training.train_heads"), run.window_counts["epochs"]),
        "schemes.improved_self_us": stats.mean("schemes.improved_scheme", self_only=True) * 1e6,
        "trace.spans": float(len(stats.spans)),
    }
