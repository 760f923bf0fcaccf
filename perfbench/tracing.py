"""Spans and counters recorded from the benchmark's side of each eoexact layer.

``Tracer.install()`` replaces the public functions of every ``eoexact`` module
with wrappers, at every name a caller looks them up by (``tractable.validate``
is the same function as ``grids.validate``, and both are wrapped).  A span
holds its name, start, end and parent; spans stay in memory until
``write()``.  Per-layer times are the summed durations of a group's outermost
spans, and self time per module is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span group -> (module, function names).  Group names are the metric stems.
SPAN_GROUPS = {
    "signatures.gadget": ("signatures", ("self_loop", "tensor", "pin_pair", "permute", "dual")),
    "f2.solve": ("f2", ("solve_linear_system",)),
    "f2.span": ("f2", ("f2_affine_span",)),
    "gauss.sum": ("gauss", ("gauss_sum",)),
    "grids.validate": ("grids", ("validate",)),
    "grids.brute": ("grids", ("brute_force_partition",)),
    "grids.gate": ("grids", ("gate_signature",)),
    "tractable.affine": ("tractable", ("eval_affine",)),
    "tractable.product": ("tractable", ("eval_product",)),
    "tractable.prune": ("tractable", ("prune_effective",)),
    "tractable.fpnp": ("tractable", ("eval_fpnp",)),
    "classify.pairings": ("classify", ("membership_all_pairings",)),
    "classify.restrict": ("classify", ("restrict_to_pairing",)),
    "classify.verdict": ("classify", ("dichotomy_verdict", "verdict_extended")),
    "classify.membership": ("classify", ("membership", "membership_affine", "membership_product")),
    "generate.process": ("generate", ("generating_process",)),
    "generate.realize": ("generate", ("delta_realizability",)),
    "transforms.pad": ("transforms", ("pad_to_eo", "grid_pad_single_weighted")),
}

VALUE_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "inverse")

class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [group, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, group: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([group, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def oracle(self, backend):
        """Counting wrapper around a real support-oracle backend object."""
        return CountingOracle(backend, self)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        """Rebind every eoexact module attribute that refers to `original`."""
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "eoexact" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        import eoexact.signatures as signatures
        from eoexact.values import ExactValue
        after = {
            "f2.solve": lambda r, a: self.counts.update({"f2.equations": len(a[0])}),
            "gauss.sum": lambda r, a: self.counts.update({"gauss.free_vars": a[0].nvars}),
            "classify.pairings": lambda r, a: self.counts.update(
                {"classify.pairings_checked": r.pairings_checked, "classify.vacuous": r.vacuous}),
            "generate.process": lambda r, a: self.counts.update(
                {"generate.work": r[1].work, "generate.closure_size": len(r[1].closure())}),
        }
        for group, (module, names) in SPAN_GROUPS.items():
            mod = importlib.import_module(f"eoexact.{module}")
            for name in names:
                original = getattr(mod, name)
                self._patch_everywhere(original, self.span(group, original, after.get(group)))
        for op in VALUE_OPS:
            self._patch(ExactValue, op, self.counter("values.ops", getattr(ExactValue, op)))
        self._patch(signatures.Signature, "support",
                    self.counter("signatures.support_calls", signatures.Signature.support))
        self._patch(signatures.Signature, "__hash__",
                    self.counter("signatures.hash_calls", signatures.Signature.__hash__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- derived numbers --------------------------------------------------

    def group_totals(self) -> tuple[dict[str, float], Counter]:
        """Seconds in each group's outermost spans, and the number of such spans."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for group, start, end, parent in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != group:
                p = self.spans[p][3]
            if p < 0:
                seconds[group] += (end - start) / 1e9
                calls[group] += 1
        return seconds, calls

    def self_seconds(self) -> dict[str, float]:
        """Self time per module: span duration minus the spans it directly caused."""
        child_ns: dict[int, int] = defaultdict(int)
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (group, start, end, _) in enumerate(self.spans):
            out[group.split(".")[0]] += (end - start - child_ns[idx]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (group, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": group, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


class CountingOracle:
    """Support-oracle backend that counts queries and answers and times each one."""

    def __init__(self, backend, tracer: Tracer):
        self.name = getattr(backend, "name", "?")
        self._query = tracer.span("oracle.query", backend.query)
        self.counts = tracer.counts

    def query(self, grid, vertex, mask):
        ok, witness = self._query(grid, vertex, mask)
        self.counts["tractable.oracle_queries"] += 1
        self.counts["tractable.oracle_sat" if ok else "tractable.oracle_unsat"] += 1
        return ok, witness
