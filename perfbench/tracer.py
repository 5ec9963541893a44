"""Spans and counters around qselftest's public functions, recorded from outside.

`Tracer.install()` replaces each function named in LAYERS with a wrapper that
records one span (id, parent id, layer, start, end) per call, and restores the
originals on `uninstall()`. Spans stay in memory; `metrics()` turns them into
per-layer call counts, total time and self time once the traced pass is over.
A layer that no longer exists is skipped and reports 0 calls, so deleting a
function from the package never breaks the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module under qselftest, attribute path) of every wrapped layer boundary
LAYERS = (
    ("cli", "main"),
    ("devices", "resolve_device"),
    ("devices", "load_circuit"),
    ("devices", "DeviceModel.frame_operator"),
    ("devices", "DeviceModel.gate_operator"),
    ("protocol", "circuit_test"),
    ("protocol", "epr_test"),
    ("protocol", "build_schedule"),
    ("protocol", "evaluate_schedule"),
    ("stats", "record_rng"),
    ("stats", "exact_prob"),
    ("stats", "reference_device"),
    ("hilbert", "apply_operator"),
    ("hilbert", "orthonormalize"),
    ("hilbert", "op_norm_on"),
    ("hilbert", "partial_trace"),
    ("extraction", "certify_state_equivalence"),
    ("extraction", "certify_gate_equivalence"),
    ("extraction", "build_swap_extraction"),
    ("extraction", "tomo_reconstruct"),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)

APPLY = "hilbert.apply_operator"
EVALUATE = "protocol.evaluate_schedule"
OP_KINDS = ("unitary", "projector", "general")
# bytes computed per amplitude per apply: one complex128 read and one written
BYTES_PER_AMP = 32

# unit of every per-layer metric, in report order
PER_LAYER = {}
for _name in LAYER_NAMES:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.total_s"] = "s"
    PER_LAYER[f"{_name}.self_s"] = "s"
for _kind in OP_KINDS:
    PER_LAYER[f"{APPLY}.{_kind}.calls"] = "count"
PER_LAYER.update(
    {
        "hilbert.amps_touched": "count",
        "hilbert.bytes_computed": "B",
        "hilbert.max_state_dim": "count",
        "protocol.records": "count",
        "protocol.applies_per_record": "ratio",
        "cli.report_bytes": "B",
        "trace.overhead_s": "s",
    }
)


def _resolve(mod: str, attr: str):
    """(owner, name, function) for a layer, or None if it is gone."""
    try:
        owner = importlib.import_module(f"qselftest.{mod}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Records spans and counters while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [0]  # ids of the open spans; 0 is the root
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        hooks = {
            APPLY: self._count_apply,
            "protocol.circuit_test": self._count_records,
            "protocol.epr_test": self._count_records,
            EVALUATE: self._count_evaluated,
        }
        for (mod, attr), name in zip(LAYERS, LAYER_NAMES):
            found = _resolve(mod, attr)
            if found is None:
                continue
            owner, attr_name, fn = found
            self._undo.append((owner, attr_name, fn))
            setattr(owner, attr_name, self._wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr_name, fn = self._undo.pop()
            setattr(owner, attr_name, fn)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count_apply(self, args, kwargs, result) -> None:
        op = args[0] if args else kwargs.get("op")
        state = args[1] if len(args) > 1 else kwargs.get("state")
        kind = getattr(op, "kind", "general")
        size = int(getattr(getattr(state, "vec", None), "size", 0))
        counts = self.counts
        counts[f"{APPLY}.{kind}.calls"] += 1
        counts["hilbert.amps_touched"] += size
        counts["hilbert.max_state_dim"] = max(counts["hilbert.max_state_dim"], size)

    def _count_records(self, args, kwargs, result) -> None:
        self.counts["protocol.records"] += len(getattr(result, "records", ()))

    def _count_evaluated(self, args, kwargs, result) -> None:
        self.counts["evaluated_records"] += len(getattr(result, "records", ()))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters; the caller adds
        cli.report_bytes and trace.overhead_s."""
        calls = dict.fromkeys(LAYER_NAMES, 0)
        total = dict.fromkeys(LAYER_NAMES, 0.0)
        own = dict.fromkeys(LAYER_NAMES, 0.0)
        covered: defaultdict[int, float] = defaultdict(float)
        parent_of = {}
        name_of = {}
        for span_id, parent, name, start, end in self.spans:
            covered[parent] += end - start
            parent_of[span_id] = parent
            name_of[span_id] = name
        for span_id, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[span_id]

        inside_evaluate = {0: False}

        def below_evaluate(span_id: int) -> bool:
            chain = []
            while span_id not in inside_evaluate:
                if name_of[span_id] == EVALUATE:
                    inside_evaluate[span_id] = True
                    break
                chain.append(span_id)
                span_id = parent_of[span_id]
            verdict = inside_evaluate[span_id]
            for s in chain:
                inside_evaluate[s] = verdict
            return verdict

        evaluate_applies = sum(
            1
            for span_id, parent, name, _, _ in self.spans
            if name == APPLY and below_evaluate(parent)
        )

        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        counts = self.counts
        for kind in OP_KINDS:
            out[f"{APPLY}.{kind}.calls"] = counts[f"{APPLY}.{kind}.calls"]
        out["hilbert.amps_touched"] = counts["hilbert.amps_touched"]
        out["hilbert.bytes_computed"] = BYTES_PER_AMP * counts["hilbert.amps_touched"]
        out["hilbert.max_state_dim"] = counts["hilbert.max_state_dim"]
        out["protocol.records"] = counts["protocol.records"]
        evaluated = counts["evaluated_records"]
        out["protocol.applies_per_record"] = (
            evaluate_applies / evaluated if evaluated else 0.0
        )
        return out
