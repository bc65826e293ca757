"""One workload in one fresh process: set up, warm up, time, audit, optionally trace.

Started by ``run.py``, which sets the thread-count variables; prints one JSON
object on stdout.  With ``--setup-only`` it stops after the timed set-up
(importing fairslice, then generating instances and writing files) and prints
only those two times.

Timing: a pass calls every entry of the workload once, in a seeded order; the
run repeats whole passes, as many as bring it nearest to ``--seconds`` (at
least one, and at least ``MIN_SAMPLES`` timed calls).  One warm-up call per
call kind runs first and is not timed.  Each call is timed alone with
``perf_counter``; bookkeeping and audits happen between or after timed calls.

Machine speed: after every ``REF_EVERY_S`` of timed work the run also times
the fixed kernel of ``speed.py``, and divides each call's time by the speed
factor of the kernel samples taken around that call.  Set-up is timed the
same way, in steps (the import, then each instance made), with kernel samples
between steps and after the last.

Tracing (``--trace 1``): untraced passes for half of ``--seconds``, then one
pass with spans installed (one pass bounds the memory the spans take).
Per-layer counts and self times are for that pass.  The run is marked
incorrect unless oracle span counts equal the ledgers' query totals exactly.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

from speed import local_speeds, speed, time_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What a user of each workload imports; its import time is part of setup_s.
IMPORTS = {"chain-search": "fairslice", "nash-dp": "fairslice", "cli-eval": "fairslice.cli"}

#: Timed calls a run needs at least, so that its p90 has ten samples beyond it.
MIN_SAMPLES = 110
SMALL_MIN_SAMPLES = 20

#: Timed work between two reference-kernel samples.
REF_EVERY_S = 0.05
#: Reference-kernel samples a set-up probe takes after its set-up (and a
#: third as many before it).
REF_PROBE_SAMPLES = 15

INVERSE_FAMILIES = ("binomial_poly", "gaussian_restricted", "linear", "piecewise_linear")
#: Layers reported with both a per-pass call count and self time.
COUNTED = ("density.measure", "density.value_at", "oracle.eval", "oracle.cut",
           "oracle.from_densities", "ripple.rd_chain", "welfare.mk_chain",
           "welfare.switching_point", "mlrp.detect_order", "audit.envy_matrix")
#: Layers reported with self time only.
SELF_ONLY = ("ripple.envy_free", "ripple.bin_search", "welfare.max_egalitarian",
             "welfare.max_nash", "welfare.max_social_welfare", "plef.pl_ef",
             "mlrp.verify_instance", "audit.welfare_metrics", "cli.run", "cli.load_instance")


class Outcomes:
    """Per pass entry: first output, repeats equal to it, and failed calls."""

    def __init__(self, calls):
        self.calls = calls
        self.first = [None] * len(calls)
        self.digest = [None] * len(calls)
        self.equal = [0] * len(calls)
        self.bad = [0] * len(calls)
        self.errors: list[str] = []

    def record(self, i: int, out, ledger) -> tuple[int, int]:
        """Book one output of entry i; returns its (eval, cut) query counts."""
        call = self.calls[i]
        if isinstance(out, Exception):
            return self._fail(i, f"{call.kind}[{i}] raised {out!r}")
        try:
            digest = call.digest(out)
            counts = call.queries(out, ledger)
        except (ValueError, KeyError, TypeError) as exc:
            return self._fail(i, f"{call.kind}[{i}] unreadable output: {exc!r}")
        if self.equal[i] == 0:
            self.first[i], self.digest[i] = out, digest
        elif digest != self.digest[i]:
            return self._fail(i, f"{call.kind}[{i}] output differs from its first run")
        self.equal[i] += 1
        return counts

    def _fail(self, i: int, message: str) -> tuple[int, int]:
        self.bad[i] += 1
        self.errors.append(message)
        return 0, 0

    def audit(self) -> int:
        """Audit each entry's first output; returns the number of failed calls."""
        failed = sum(self.bad)
        for i, call in enumerate(self.calls):
            if self.equal[i] == 0:
                continue
            try:
                message = call.audit(self.first[i])
            except Exception as exc:  # an audit that cannot run fails the output
                message = f"audit raised {exc!r}"
            if message is not None:
                failed += self.equal[i]
                self.errors.append(f"{call.kind}[{i}]: {message}")
        return failed


@dataclass
class Passes:
    starts: list[float]
    durations: list[float]
    passes: int
    wall: float
    evals: int
    cuts: int
    ref_times: list[float]  # when each reference-kernel sample ended
    refs: list[float]  # reference-kernel times taken between calls


def run_passes(calls, outcomes: Outcomes, ledger_type, *, seconds: float = 0.0,
               min_samples: int = 0, passes: int | None = None, tracer=None) -> Passes:
    """``passes`` whole passes, or else the number of them that comes nearest to ``seconds``."""
    starts: list[float] = []
    durations: list[float] = []
    refs = [time_reference()]
    ref_times = [perf_counter()]
    evals = cuts = done = 0
    since_ref = 0.0
    start = perf_counter()
    while True:
        for i, call in enumerate(calls):
            ledger = ledger_type()
            if tracer is not None:
                tracer.call_id = len(durations)
            t0 = perf_counter()
            try:
                out = call.run(ledger)
            except Exception as exc:  # counted as a failed call, the run goes on
                out = exc
            durations.append(perf_counter() - t0)
            starts.append(t0)
            since_ref += durations[-1]
            if since_ref >= REF_EVERY_S:
                refs.append(time_reference())
                ref_times.append(perf_counter())
                since_ref = 0.0
            e, c = outcomes.record(i, out, ledger)
            evals += e
            cuts += c
        done += 1
        elapsed = perf_counter() - start
        if passes is not None:
            if done >= passes:
                break
        # stop unless one more pass would end nearer to ``seconds`` than now
        elif elapsed + elapsed / done / 2.0 >= seconds and len(durations) >= min_samples:
            break
    return Passes(starts, durations, done, perf_counter() - start, evals, cuts, ref_times, refs)


class SetupClock:
    """Set-up timed in steps, with kernel samples between steps as between calls."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.refs = [time_reference() for _ in range(REF_PROBE_SAMPLES // 3)]
        self.ref_times = [perf_counter()] * len(self.refs)
        self._since = 0.0
        self._start = perf_counter()

    def tick(self) -> None:
        """End the current step, sample the kernel when due, start the next step."""
        now = perf_counter()
        self.starts.append(self._start)
        self.durations.append(now - self._start)
        self._since += now - self._start
        if self._since >= REF_EVERY_S:
            self.refs.append(time_reference())
            self.ref_times.append(perf_counter())
            self._since = 0.0
        self._start = perf_counter()

    def finish(self) -> list[float]:
        """Each step's time divided by its local speed factor."""
        for _ in range(REF_PROBE_SAMPLES):
            self.refs.append(time_reference())
            self.ref_times.append(perf_counter())
        factors = local_speeds(self.starts, self.durations, self.ref_times, self.refs)
        return [d / f for d, f in zip(self.durations, factors)]


def warm_up(calls, ledger_type) -> None:
    """One untimed call of each kind, on the first entry of that kind."""
    seen = set()
    for call in calls:
        if call.kind not in seen:
            seen.add(call.kind)
            try:
                call.run(ledger_type())
            except Exception:  # the timed passes count this entry's failure
                pass


def end_to_end(p: Passes, failed: int, peak_rss_mb: float) -> dict:
    factors = local_speeds(p.starts, p.durations, p.ref_times, p.refs)
    d = [t / f for t, f in zip(p.durations, factors)]
    return {
        "solve_ms_p50": statistics.median(d) * 1e3,
        "solve_ms_p90": statistics.quantiles(d, n=10)[-1] * 1e3,
        "solves_per_s": len(d) / sum(d),
        "queries_per_solve": (p.evals + p.cuts) / len(d),
        "solved_frac": 1.0 - failed / len(d),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, totals: dict, untraced: Passes, traced: Passes) -> dict:
    from tracer import child_count

    factor = speed(traced.refs)  # self times are scaled like the end-to-end times

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    inverse = [f"density.inverse_measure.{f}" for f in INVERSE_FAMILIES]
    inverse += [name for name in totals
                if name.startswith("density.inverse_measure.") and name not in inverse]
    m["density.inverse_measure.calls"] = sum(calls(n) for n in inverse)
    m["density.inverse_measure.self_s"] = sum(self_s(n) for n in inverse) / factor
    for fam in INVERSE_FAMILIES:
        name = f"density.inverse_measure.{fam}"
        m[f"{name}.us_per_call"] = ratio(self_s(name) * 1e6 / factor, calls(name))
    for name in COUNTED:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name) / factor
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s(name) / factor

    counters = tracer.counters
    iterations = child_count(tracer, "ripple.rd_chain", "ripple.bin_search")
    m["ripple.bin_search.iters_per_call"] = ratio(iterations, calls("ripple.bin_search"))
    m["ripple.bin_search.cap_use"] = ratio(iterations, counters["ripple.bin_search.cap"])
    m["welfare.mk_chain.feasible_frac"] = ratio(counters["welfare.mk_chain.feasible"],
                                                calls("welfare.mk_chain"))
    m["welfare.max_nash.grid_points"] = ratio(counters["welfare.max_nash.grid_points"],
                                              calls("welfare.max_nash"))
    m["plef.nodes_per_solve"] = ratio(counters["plef.nodes"], calls("plef.pl_ef"))
    m["plef.recursed_frac"] = ratio(counters["plef.recursed_halves"], counters["plef.halves"])
    untraced_pass_s = untraced.wall / speed(untraced.refs) / untraced.passes
    m["trace.overhead_frac"] = traced.wall / factor / untraced_pass_s - 1.0
    m["bench.speed"] = factor
    m["trace.accounted_frac"] = sum(s for _, s in totals.values()) / traced.wall
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", required=True, help="directory for the workload's input files")
    p.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true", help="reduced instance set (self-test)")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    time_reference()  # first use of the kernel's code paths; not a sample
    clock = SetupClock()
    importlib.import_module(IMPORTS[args.workload])
    clock.tick()
    import workloads
    calls = workloads.build(args.workload, args.seed, args.dir, args.small, clock.tick)
    clock.tick()
    steps = clock.finish()
    setup = {"import_s": steps[0], "instances_s": sum(steps[1:])}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    from fairslice import QueryLedger

    outcomes = Outcomes(calls)
    warm_up(calls, QueryLedger)
    gc.collect()
    result = {"setup": setup}
    if not args.trace:
        timed = run_passes(calls, outcomes, QueryLedger, seconds=args.seconds,
                           min_samples=SMALL_MIN_SAMPLES if args.small else MIN_SAMPLES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = outcomes.audit()
        result.update(attempted=len(timed.durations), failed=failed,
                      metrics=end_to_end(timed, failed, peak_rss_mb))
    else:
        from tracer import Tracer, install, layer_totals

        untraced = run_passes(calls, outcomes, QueryLedger, seconds=args.seconds / 2.0)
        tracer = Tracer()
        install(tracer)
        try:
            traced = run_passes(calls, outcomes, QueryLedger, passes=1, tracer=tracer)
        finally:
            tracer.restore()
        failed = outcomes.audit()
        totals = layer_totals(tracer)
        metrics = per_layer(tracer, totals, untraced, traced)
        spans_eval = totals.get("oracle.eval", (0, 0.0))[0]
        spans_cut = totals.get("oracle.cut", (0, 0.0))[0]
        if (spans_eval, spans_cut) != (traced.evals, traced.cuts):
            outcomes.errors.append(
                f"oracle spans (eval {spans_eval}, cut {spans_cut}) != ledger totals "
                f"(eval {traced.evals}, cut {traced.cuts})")
        if args.spans:
            tracer.save(args.spans)
        result.update(attempted=len(untraced.durations) + len(traced.durations), failed=failed,
                      metrics=metrics)
    result["errors"] = outcomes.errors[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
