"""Per-layer tracing by rebinding the package's public functions.

Each traced function is replaced, for the traced run only, by a wrapper that
records a span (name, start, end, parent span, op index).  The wrapper is
bound wherever the original object is reachable as a module attribute of the
package, so names imported into other modules (principal_series.hyp2f1,
expansion.diagonal_coefficient, lie_group.su2_from_euler, ...) are traced
too; methods are rebound on their class.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
durations of its direct child spans.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "lorentz_harmonics"

# (span name, module, attribute); a dotted attribute is a method on a class.
LAYERS = (
    ("special.hyp2f1", "special", "hyp2f1"),
    ("special.saddle_point_2f1", "special", "saddle_point_2f1"),
    ("special.log_gamma", "special", "log_gamma"),
    ("principal_series.diagonal_coefficient", "principal_series", "diagonal_coefficient"),
    ("principal_series.ratio_test", "principal_series", "ratio_test"),
    ("expansion.partial_sum_diagonal", "expansion", "partial_sum_diagonal"),
    ("expansion.synthesize", "expansion", "synthesize"),
    ("expansion.triple_blocks", "expansion", "triple_blocks"),
    ("expansion.partial_sum_triple", "expansion", "partial_sum_triple"),
    ("logcomplex.to_complex", "logcomplex", "LogComplexValue.to_complex"),
    ("logcomplex.log_sum", "logcomplex", "log_sum"),
    ("reports.cauchy_verdict", "reports", "cauchy_verdict"),
    ("ymap.ymap_convergence_report", "ymap", "ymap_convergence_report"),
    ("ymap.ymap_apply", "ymap", "ymap_apply"),
    ("lie_group.su2_from_euler", "lie_group", "su2_from_euler"),
    ("lie_group.QuadratureGrid.sample", "lie_group", "QuadratureGrid.sample"),
    ("wigner.su2_fourier", "wigner", "su2_fourier"),
    ("wigner.wigner_D", "wigner", "wigner_D"),
    ("wigner.synthesize_su2", "wigner", "synthesize_su2"),
    ("cli.main", "cli", "main"),
    ("config.load_run_config", "config", "load_run_config"),
)

# The span whose calls are also counted by distinct label (j, m, tau, eps).
LABELLED = "principal_series.diagonal_coefficient"

CALLS = ("special.hyp2f1", "special.saddle_point_2f1", "special.log_gamma",
         LABELLED, "logcomplex.to_complex", "lie_group.su2_from_euler", "wigner.wigner_D")

# Per-layer metrics: (name, unit, better).  Calls and self times are per op.
METRICS = tuple(
    [(f"{n}.calls", "count/op", "lower") for n, _, _ in LAYERS if n in CALLS]
    + [(f"{n}.self_s", "s/op", "lower") for n, _, _ in LAYERS]
    + [(f"{LABELLED}.distinct_share", "ratio", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index, op index, label)
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        labelled = name == LABELLED

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                label = (args[:4], tuple(sorted(kwargs.items()))) if labelled else None
                spans[idx] = (name, t0, t1, parent, self.op, label)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = inspect.getattr_static(owner, fn_name)
                self._rebind(owner, fn_name, self._wrap(name, original))
                continue
            original = getattr(module, fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, "__dict__")[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def metrics(self, n_ops: int, scale: float) -> dict[str, float]:
        """Per-op calls and self times of every layer, and the distinct share
        of the labelled layer (distinct labels within an op / calls).  scale
        converts wall times to the reference speed."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        labels: dict[int, set] = defaultdict(set)
        for idx, (name, t0, t1, _, op, label) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += (t1 - t0) - child_ns[idx]
            if label is not None:
                labels[op].add(label)
        out = {}
        for name, unit, _ in METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[layer] / n_ops
            elif kind == "self_s":
                out[name] = self_ns[layer] * 1e-9 * scale / n_ops
        distinct = sum(len(s) for s in labels.values())
        out[f"{LABELLED}.distinct_share"] = distinct / calls[LABELLED] if calls[LABELLED] else 0.0
        return out

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line: name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")
