"""In-memory spans around calls into the package, and the per-layer metrics.

A span is (id, name, start, end, parent) plus the values recorded at that
boundary (`attrs`, e.g. rows built or pairs selected). Spans live in a list
until the run ends and are then written out as JSON.

A span's children are the calls that account for part of its work. Most
lie inside the parent's interval. Where the package gives no hook inside a
call (``train`` encodes its data, ``evaluate_model`` encodes, runs the
network, decodes and ranks), the replay times those same sub-calls on the
same inputs right after the call and attaches them as children. Self time
is therefore the duration minus the summed durations of the children, which
equals the uncovered part of the interval whenever the children are nested
and sequential.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; the innermost open span is the default parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs: float):
        if parent is None and self._open:
            parent = self._open[-1]
        s = Span(len(self.spans), name, 0.0, 0.0,
                 None if parent is None else parent.id, dict(attrs))
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def as_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


# Every per-layer metric and its unit. A workload that bypasses a layer
# reports 0 for it, which is itself the prediction for that workload.
LAYER_UNITS = {
    "data.generate_synthetic_s": "s",
    "data.load_profiles_s": "s",
    "data.profiles": "count",
    "hashing.build_hash_matrix_s": "s",
    "hashing.rows_built": "count",
    "cbe.count_cooccurrences_s": "s",
    "cbe.threshold_and_order_s": "s",
    "cbe.rebuild_hash_matrix_s": "s",
    "cbe.pairs_counted": "count",
    "cbe.pairs_selected": "count",
    "cbe.pairs_skipped": "count",
    "cbe.applied_ratio": "ratio",
    "codec.encode_batch_s": "s",
    "codec.decode_batch_s": "s",
    "codec.rank_batch_s": "s",
    "codec.items_scored": "count",
    "codec.bit_fill_in": "ratio",
    "codec.bit_fill_out": "ratio",
    "trainer.multi_hot_s": "s",
    "trainer.train_s": "s",
    "trainer.forward_batch_ms": "ms",
    "trainer.gradients_ms": "ms",
    "trainer.step_ms": "ms",
    "trainer.optimizer_ms": "ms",
    "trainer.steps": "count",
    "trainer.final_loss": "nats",
    "experiment.evaluate_model_s": "s",
    "experiment.eval_metric_s": "s",
    "experiment.sweep_serial_s": "s",
    "experiment.parallel_speedup": "ratio",
    "experiment.cell_train_s": "s",
    "experiment.train_time_ratio": "ratio",
    "experiment.eval_time_ratio": "ratio",
    "experiment.cells_nan": "count",
    "bench.tracing_overhead_s": "s",
}

# metric -> span whose summed duration it is
_DURATIONS = {
    "data.generate_synthetic_s": "data.generate_synthetic",
    "data.load_profiles_s": "data.load_profiles",
    "hashing.build_hash_matrix_s": "hashing.build_hash_matrix",
    "cbe.count_cooccurrences_s": "cbe.count_cooccurrences",
    "cbe.threshold_and_order_s": "cbe.threshold_and_order",
    "cbe.rebuild_hash_matrix_s": "cbe.rebuild_hash_matrix",
    "codec.encode_batch_s": "codec.encode_batch",
    "codec.decode_batch_s": "codec.decode_batch",
    "codec.rank_batch_s": "codec.rank_batch",
    "trainer.multi_hot_s": "trainer.multi_hot",
    "experiment.evaluate_model_s": "experiment.evaluate_model",
    "experiment.sweep_serial_s": "experiment.run_sweep",
}

# metric -> (span, attribute) whose values are summed
_COUNTS = {
    "data.profiles": (("data.generate_synthetic", "data.load_profiles"), "profiles"),
    "hashing.rows_built": (("hashing.build_hash_matrix",), "rows"),
    "cbe.pairs_counted": (("cbe.count_cooccurrences",), "pairs"),
    "cbe.pairs_selected": (("cbe.threshold_and_order",), "pairs"),
    "cbe.pairs_skipped": (("cbe.rebuild_hash_matrix",), "skipped"),
    "codec.items_scored": (("codec.decode_batch",), "items"),
    "trainer.steps": (("trainer.train",), "steps"),
    "experiment.cells_nan": (("experiment.run_sweep",), "cells_nan"),
}

# metric -> (span, attribute) whose values' median it is
_MEDIANS = {
    "trainer.final_loss": ("trainer.train", "final_loss"),
    "experiment.cell_train_s": ("experiment.run_sweep", "cell_train_s"),
    "experiment.train_time_ratio": ("experiment.run_sweep", "train_time_ratio"),
    "experiment.eval_time_ratio": ("experiment.run_sweep", "eval_time_ratio"),
}

# metric -> span whose median duration, in ms, it is
_BATCH_MS = {
    "trainer.forward_batch_ms": "trainer.batch.forward_batch",
    "trainer.gradients_ms": "trainer.batch.gradients",
    "trainer.step_ms": "trainer.batch.backward_and_step",
}


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of one traced run except the two that need
    the untraced run too (parallel speed-up and tracing overhead)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, [])]

    def attr_sum(names, key: str) -> float:
        return float(sum(s.attrs.get(key, 0.0) for s in named(*names)))

    out = {}
    for metric, name in _DURATIONS.items():
        out[metric] = sum(s.duration for s in named(name))
    for metric, (names, key) in _COUNTS.items():
        out[metric] = attr_sum(names, key)
    for metric, (name, key) in _MEDIANS.items():
        out[metric] = _median([s.attrs[key] for s in named(name) if key in s.attrs])
    for metric, name in _BATCH_MS.items():
        out[metric] = 1e3 * _median([s.duration for s in named(name)])
    out["trainer.optimizer_ms"] = out["trainer.step_ms"] - out["trainer.gradients_ms"]
    out["trainer.train_s"] = sum(own[s.id] for s in named("trainer.train"))
    out["experiment.eval_metric_s"] = sum(
        own[s.id] for s in named("experiment.evaluate_model"))
    out["cbe.applied_ratio"] = _ratio(
        out["cbe.pairs_selected"] - out["cbe.pairs_skipped"], out["cbe.pairs_selected"])
    encoders = ("codec.encode_batch", "trainer.multi_hot")
    for side in ("in", "out"):
        out[f"codec.bit_fill_{side}"] = _ratio(attr_sum(encoders, f"bits_{side}"),
                                               attr_sum(encoders, f"cells_{side}"))
    return out
