"""Spans around calls into gapforge's public functions, recorded from outside
the package.

Each traced function is replaced by one wrapper in every gapforge module
namespace that holds it (``gapforge.gapeth.intersection_degree`` as well as
``gapforge.sampler.intersection_degree``), so calls made inside the package
are seen too. Spans stay in memory; self time and counters are computed
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

# layer (module) -> public functions traced in it
TRACED = {
    "csp": ("parse_instance",),
    "sampler": (
        "intersection_degree",
        "second_eigenvalue",
        "build_expander",
        "SamplerFamily.incidence",
        "certify_sampler",
        "adversarial_corpus",
    ),
    "circuit": (
        "build_deterministic",
        "build_randomized",
        "auto_fan_in",
        "evaluate",
        "certify_goodness",
        "serialize_circuit",
        "parse_circuit",
    ),
    "transform": ("transform", "exhaustive_adversary"),
    "gapeth": (
        "reduction_family",
        "sample_list",
        "check_balanced",
        "reduce_one_sided",
        "solve_driver",
        "one_sided_sweep",
    ),
    "oracle": ("is_satisfiable", "clause_sat_matrix", "brute_force_opt", "estimate"),
    "cli": ("main",),
}

NAMESPACES = ("gapforge",) + tuple(f"gapforge.{m}" for m in TRACED)

# deterministic depth at m=1024; the randomized circuits are shallower
CERTIFIED_LAYERS = 10


def _count_return(name: str, out, counts: Counter):
    """Counters read from the return values of traced calls."""
    if name == "gapeth.reduce_one_sided":
        counts["gapeth.trials"] += 1
        counts["gapeth.balanced"] += not out[1].rejected_unbalanced
    elif name == "gapeth.one_sided_sweep":
        counts["gapeth.trials"] += out.trials
        counts["gapeth.balanced"] += out.balanced_trials
    elif name == "oracle.is_satisfiable":
        counts["oracle.is_satisfiable.yes"] += bool(out)
    elif name == "transform.exhaustive_adversary":
        counts["transform.exhaustive_adversary.proofs_enumerated"] += out.proofs_enumerated
    elif name == "circuit.certify_goodness":
        for v in out.layers:
            counts[f"circuit.certify.layer{v.layer}.strings_checked"] += v.strings_checked


class Tracer:
    """Records (name, start, end, parent span, op id) for every traced call.

    ``op`` is None while the workload sets up and the op index while an op
    runs; counters are kept per phase the same way. Nothing is recorded
    while ``paused`` is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.paused = False
        self.counts = {"setup": Counter(), "op": Counter()}

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            _count_return(name, out, self.counts["setup" if self.op is None else "op"])
            return out

        return traced

    def install(self):
        """Replace every traced function in every namespace that holds it."""
        spaces = [importlib.import_module(n) for n in NAMESPACES]
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"gapforge.{layer}")
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(f"{layer}.{qual}", getattr(cls, meth)))
                    continue
                original = getattr(mod, qual)
                wrapper = self._wrap(f"{layer}.{qual}", original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, wrapper)

    def metrics(self, setups: int, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: for each traced function its calls and self
        time, each as (set-up total / set-ups) + (op total / ops); counters
        the same way; the balanced share as a ratio of totals."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {ph: Counter() for ph in ("setup", "op")}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            ph = totals["setup" if op is None else "op"]
            ph[f"{name}.calls"] += 1
            ph[f"{name}.self_s"] += (end - start) - child[i]
            ph["trace.spans"] += 1
        for ph in ("setup", "op"):
            totals[ph].update(self.counts[ph])

        def per_unit(key: str) -> float:
            return totals["setup"][key] / max(setups, 1) + totals["op"][key] / max(ops, 1)

        out = {}
        for layer, names in TRACED.items():
            for qual in names:
                out[f"{layer}.{qual}.calls"] = (per_unit(f"{layer}.{qual}.calls"), "count")
                out[f"{layer}.{qual}.self_s"] = (per_unit(f"{layer}.{qual}.self_s"), "s")
        trials = totals["setup"]["gapeth.trials"] + totals["op"]["gapeth.trials"]
        balanced = totals["setup"]["gapeth.balanced"] + totals["op"]["gapeth.balanced"]
        out["gapeth.balanced_ratio"] = (balanced / trials if trials else 0.0, "ratio")
        out["oracle.is_satisfiable.yes"] = (per_unit("oracle.is_satisfiable.yes"), "count")
        key = "transform.exhaustive_adversary.proofs_enumerated"
        out[key] = (per_unit(key), "count")
        for layer in range(1, CERTIFIED_LAYERS + 1):
            key = f"circuit.certify.layer{layer}.strings_checked"
            out[key] = (per_unit(key), "count")
        out["trace.spans"] = (per_unit("trace.spans"), "count")
        return out

    def write(self, path: Path):
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
