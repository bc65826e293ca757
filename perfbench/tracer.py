"""Spans around fairslice's public functions, installed from outside the library.

A :class:`Tracer` wraps each traced function in a span recorder and patches
every name the function is reachable through: the defining module, each
module that bound it with ``from ... import`` (the ``fairslice`` package
included), or the base class for ``Density`` methods.  Spans (name, start,
end, parent, call id) are kept in flat arrays while the workload runs;
:func:`layer_totals` turns them into per-name call counts and self times
afterwards.  Self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.call_id = -1  # index of the benchmark call the next spans belong to
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _opener(self):
        """Bind the recording arrays once; returns open(name_id) -> span index."""
        name, parent, call, start, end, stack = (
            self.name, self.parent, self.call, self.start, self.end, self._stack)

        def open_span(nid: int) -> int:
            idx = len(end)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            return idx

        return open_span

    def _closer(self):
        end, stack = self.end, self._stack

        def close_span(idx: int) -> None:
            end[idx] = perf_counter()
            stack.pop()

        return close_span

    def wrap(self, name: str, fn):
        """fn recorded as a span called ``name``."""
        nid = self.name_id(name)
        open_span, close_span = self._opener(), self._closer()

        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def wrap_by_family(self, name: str, fn):
        """Method fn recorded as ``name.<family>``, the family read from the density."""
        ids: dict[type, int] = {}
        open_span, close_span = self._opener(), self._closer()

        def traced(density, *args, **kwargs):
            kind = type(density)
            nid = ids.get(kind)
            if nid is None:
                nid = ids[kind] = self.name_id(f"{name}.{density.to_dict()['family']}")
            idx = open_span(nid)
            try:
                return fn(density, *args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def patch(self, owners, attr: str, wrapped) -> None:
        """Rebind ``attr`` on every owner to ``wrapped``; :meth:`restore` undoes it."""
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def install(tracer: Tracer) -> None:
    """Trace every layer boundary the benchmark reports on."""
    import fairslice
    from fairslice import audit, cli, density, mlrp, oracle, plef, ripple, welfare

    def span(owners, attr, name=None, before=None, after=None):
        """Trace ``attr`` of owners[0] under every owner, and the package if it exports it."""
        original = owners[0].__dict__[attr]
        if fairslice.__dict__.get(attr) is original:
            owners = [*owners, fairslice]
        fn = original
        if before is not None or after is not None:
            fn = _with_hooks(original, before, after)
        name = name or f"{owners[0].__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer.patch(owners, attr, tracer.wrap(name, fn))

    for attr in ("measure", "value_at"):
        tracer.patch([density.Density], attr,
                     tracer.wrap(f"density.{attr}", density.Density.__dict__[attr]))
    tracer.patch([density.Density], "inverse_measure",
                 tracer.wrap_by_family("density.inverse_measure",
                                       density.Density.__dict__["inverse_measure"]))

    span([oracle, ripple, welfare, plef, mlrp], "eval_query", "oracle.eval")
    span([oracle, ripple, welfare], "cut_query", "oracle.cut")
    from_densities = oracle.Instance.__dict__["from_densities"].__func__
    tracer.patch([oracle.Instance], "from_densities",
                 classmethod(tracer.wrap("oracle.from_densities", from_densities)))

    counters = tracer.counters

    def bin_search_cap(instance, delta, ledger, max_iterations=None):
        cap = max_iterations
        if cap is None and instance.n > 1 and math.isfinite(instance.bounds.lipschitz):
            cap = ripple.iteration_cap(instance.n, instance.bounds.lipschitz, delta)
        counters["ripple.bin_search.cap"] += cap or 0

    def mk_chain_feasible(result, *args, **kwargs):
        counters["welfare.mk_chain.feasible"] += result.feasible

    def pl_ef_stats(result, *args, **kwargs):
        stats = result[1]
        counters["plef.nodes"] += stats.node_count
        counters["plef.recursed_halves"] += stats.recursed_halves
        counters["plef.halves"] += stats.recursed_halves + stats.binsearch_hits

    def nash_evals_before(instance, epsilon, ledger):
        counters["welfare.max_nash.grid_points"] -= ledger.eval_count / instance.n

    def nash_evals_after(result, instance, epsilon, ledger):
        counters["welfare.max_nash.grid_points"] += ledger.eval_count / instance.n

    span([ripple], "rd_chain")
    span([ripple], "envy_free")
    span([ripple, plef], "bin_search", before=bin_search_cap)
    span([welfare], "mk_chain", after=mk_chain_feasible)
    for attr in ("max_egalitarian", "switching_point", "max_social_welfare"):
        span([welfare], attr)
    span([welfare], "max_nash", before=nash_evals_before, after=nash_evals_after)
    span([plef], "pl_ef", after=pl_ef_stats)
    span([mlrp, plef], "detect_order")
    span([mlrp], "verify_instance")
    span([audit], "envy_matrix")
    span([audit], "welfare_metrics")
    span([cli], "run")
    span([cli], "load_instance")


def _with_hooks(fn, before, after):
    def hooked(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return hooked


def layer_totals(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """name -> (span count, summed self time in seconds)."""
    s = tracer.spans()
    own = s["end"] - s["start"]
    nested = s["parent"] >= 0
    own -= np.bincount(s["parent"][nested], weights=own[nested], minlength=len(own))
    k = len(tracer.names)
    counts = np.bincount(s["name"], minlength=k)
    selfs = np.bincount(s["name"], weights=own, minlength=k)
    return {tracer.names[i]: (int(counts[i]), float(selfs[i])) for i in range(k)}


def child_count(tracer: Tracer, child: str, parent: str) -> int:
    """Number of ``child`` spans opened directly inside a ``parent`` span."""
    if child not in tracer._ids or parent not in tracer._ids:
        return 0
    s = tracer.spans()
    nested = s["parent"] >= 0
    parent_names = np.full(len(s["name"]), -1, dtype=np.int32)
    parent_names[nested] = s["name"][s["parent"][nested]]
    return int(np.count_nonzero((s["name"] == tracer._ids[child])
                                & (parent_names == tracer._ids[parent])))
