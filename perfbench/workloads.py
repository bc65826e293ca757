"""Seeded inputs, calls and output audits for the three benchmark workloads.

Instances come from the test suite's generators (``tests/gen.py``), drawn
from one ``numpy`` generator seeded with ``--seed``.  Each workload is a
stratified pass: every cell of its (family, n, parameter) grid gets the same
number of instances on every seed, so seeds change instance parameters but
not the mix.  No instance is dropped or redrawn because of its result; a call
that raises or fails its audit is counted as failed.

Library calls go through the ``fairslice`` package attributes at call time,
as a user's would, so that a traced run sees them.  Every call's output is
audited with ``fairslice.audit`` outside the timed region: the first output
for each pass entry fully, repeats by equality with that first output (the
library is deterministic).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import fairslice
import gen
from fairslice import Allocation, Instance, QueryLedger, audit

#: Precision of the chain-search calls.
CHAIN_ETA = 1e-6
#: CLI flags of the cli-eval commands.
SW_ETA = 1e-8
PLEF_ETA = 1e-2
#: Grid of the brute-force optimum behind the n <= 3 welfare checks.  A grid
#: optimum never exceeds the true one, so the checks are sound at any size.
BRUTE_GRID = 400
#: Tolerance for "reported objective equals audited welfare".
OBJECTIVE_TOL = 1e-9


@dataclass
class Call:
    """One public call of a pass, with how to count and audit its output."""

    kind: str
    run: Callable[[QueryLedger], Any]
    queries: Callable[[Any, QueryLedger], tuple[int, int]]
    digest: Callable[[Any], Any]  # comparable form of an output
    audit: Callable[[Any], str | None]  # error message, None when the output is right


@dataclass(frozen=True)
class Size:
    """Cells of each workload's grid, and instances per cell."""

    chain_n: tuple[int, ...]
    chain_reps: int
    nash_n: tuple[int, ...]
    nash_eps: tuple[float, ...]
    nash_reps: int
    cli_n: tuple[int, ...]
    cli_reps: int
    plef_n: tuple[int, ...]
    plef_k: tuple[int, ...]
    plef_reps: int


#: Passes are sized to take a few seconds each on a 2-core box (about 5 s for
#: chain-search, 16 s for nash-dp, 7 s for cli-eval), so that a run sees many
#: distinct instances and a seed moves the metrics little.  A larger nash-dp
#: pass would make its traced run hold more spans (about 10M, 0.7 GB, at
#: nash_reps=6).
FULL = Size(chain_n=tuple(range(2, 17)), chain_reps=8,
            nash_n=(3, 4, 5, 6), nash_eps=(0.01, 0.02, 0.03), nash_reps=4,
            cli_n=tuple(range(2, 7)), cli_reps=5,
            plef_n=(3, 4, 5), plef_k=tuple(range(4, 11)), plef_reps=14)
SMALL = Size(chain_n=(2, 5, 9), chain_reps=1, nash_n=(3, 4), nash_eps=(0.03,), nash_reps=1,
             cli_n=(2, 3), cli_reps=1, plef_n=(3,), plef_k=(4, 5), plef_reps=1)

MLRP_MAKERS = (gen.gaussian_instance, gen.linear_instance, gen.binomial_instance)
CLOSED_FORM_MAKERS = (gen.gaussian_instance, gen.linear_instance)


def build(workload: str, seed: int, workdir: str, small: bool,
          tick: Callable[[], None]) -> list[Call]:
    """The workload's pass: its calls in a seeded order, inputs drawn from ``seed``.

    ``tick`` is called after each instance is made (and its files written),
    so that the caller can time set-up in steps.
    """
    size = SMALL if small else FULL
    rng = np.random.default_rng(seed)
    if workload == "chain-search":
        calls = _chain_search(rng, size, tick)
    elif workload == "nash-dp":
        calls = _nash_dp(rng, size, tick)
    elif workload == "cli-eval":
        calls = _cli_eval(rng, size, workdir, tick)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Interleave kinds and sizes: the host's speed swings within a second, and
    # a block of similar calls would catch one swing together.
    return [calls[i] for i in rng.permutation(len(calls))]


def _ledger_queries(_output, ledger: QueryLedger) -> tuple[int, int]:
    return ledger.eval_count, ledger.cut_count


def _same(output):
    return output


# -- chain-search: envy_free and max_egalitarian, cut-query heavy ------------


def _chain_search(rng, size: Size, tick) -> list[Call]:
    ef_calls, ew_calls = [], []
    for maker in MLRP_MAKERS:
        for n in size.chain_n:
            for _ in range(size.chain_reps):
                inst = maker(n, rng)
                ef_calls.append(Call(
                    "envy_free", lambda ledger, inst=inst: fairslice.envy_free(inst, CHAIN_ETA, ledger),
                    _ledger_queries, _same, _envy_audit(inst, CHAIN_ETA)))
                ew_calls.append(Call(
                    "max_egalitarian",
                    lambda ledger, inst=inst: fairslice.max_egalitarian(inst, CHAIN_ETA, ledger),
                    _ledger_queries, _same, _egalitarian_audit(inst)))
                tick()
    return ef_calls + ew_calls


def _envy_audit(inst: Instance, eta: float):
    def check(alloc) -> str | None:
        envy = audit.envy_matrix(inst, alloc).max_envy
        return None if envy <= eta else f"max envy {envy:.3g} > eta {eta:g}"
    return check


def _egalitarian_audit(inst: Instance):
    def check(output) -> str | None:
        alloc, value = output
        ew = audit.welfare_metrics(inst, alloc)[1]
        return None if ew >= value - 1e-9 else f"audited min value {ew!r} < reported {value!r}"
    return check


# -- nash-dp: max_nash on closed-form-cut families ---------------------------


def _nash_dp(rng, size: Size, tick) -> list[Call]:
    calls = []
    for maker in CLOSED_FORM_MAKERS:
        for n in size.nash_n:
            for eps in size.nash_eps:
                for _ in range(size.nash_reps):
                    inst = maker(n, rng)
                    calls.append(Call(
                        "max_nash", lambda ledger, inst=inst, eps=eps: fairslice.max_nash(inst, eps, ledger),
                        _ledger_queries, _same, _nash_audit(inst, eps)))
                    tick()
    return calls


def _nash_audit(inst: Instance, eps: float):
    def check(output) -> str | None:
        alloc, value = output
        nsw = audit.welfare_metrics(inst, alloc)[2]
        if abs(nsw - value) > OBJECTIVE_TOL * max(1.0, nsw):
            return f"reported NSW {value!r} != audited {nsw!r}"
        if inst.n <= 3:
            best = audit.brute_force_optimum(inst, "nsw", BRUTE_GRID)
            if nsw < (1.0 - eps) * best:
                return f"NSW {nsw!r} < (1-eps) * grid optimum {best!r}"
        return None
    return check


# -- cli-eval: fairslice.cli.run in process over seeded files ----------------


def _cli_report(output) -> dict:
    code, text = output
    if code != 0:
        raise ValueError(f"exit code {code}")
    report = json.loads(text)
    report.pop("wall_time_s", None)
    return report


def _cli_queries(output, _ledger) -> tuple[int, int]:
    counts = _cli_report(output).get("queries", {"eval": 0, "cut": 0})
    return counts["eval"], counts["cut"]


def _cli_digest(output):
    code, text = output
    try:
        return code, json.dumps(_cli_report(output), sort_keys=True)
    except ValueError:
        return code, text


def _cli_audit(check):
    def audited(output) -> str | None:
        try:
            report = _cli_report(output)
        except ValueError as exc:  # nonzero exit or unparseable JSON
            return f"cli: {exc}"
        return check(report)
    return audited


def _shuffled(inst: Instance, rng) -> Instance:
    """The same agents in a seeded order, so the CLI has an order to detect."""
    perm = rng.permutation(inst.n)
    return Instance.from_densities([inst.agents[i] for i in perm])


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _write_instance(workdir: str, name: str, inst: Instance) -> str:
    return _write_json(os.path.join(workdir, f"{name}.json"),
                       {"agents": [a.to_dict() for a in inst.agents], "ordered": False})


def _random_division(n: int, rng) -> list[list[list[float]]]:
    """2n seeded intervals tiling the cake, each given to a seeded agent."""
    edges = [0.0, *sorted(float(x) for x in rng.uniform(0.0, 1.0, 2 * n - 1)), 1.0]
    owners = rng.integers(0, n, size=2 * n)
    pieces: list[list[list[float]]] = [[] for _ in range(n)]
    for owner, l, r in zip(owners, edges[:-1], edges[1:]):
        pieces[int(owner)].append([l, r])
    return pieces


def _cli_eval(rng, size: Size, workdir: str, tick) -> list[Call]:
    from fairslice import cli

    def run_cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        return code, out.getvalue()

    by_kind: dict[str, list[Call]] = {"sw": [], "plef": [], "mlrp-check": [], "check": []}

    def add(kind, argv, check):
        by_kind[kind].append(Call(kind, lambda _ledger, argv=argv: run_cli(argv),
                                  _cli_queries, _cli_digest, _cli_audit(check)))
        tick()

    for maker in MLRP_MAKERS:
        for n in size.cli_n:
            for rep in range(size.cli_reps):
                tag = f"{maker.__name__}-{n}-{rep}"
                inst = _shuffled(maker(n, rng), rng)
                path = _write_instance(workdir, f"sw-{tag}", inst)
                add("sw", ["sw", "--eta", repr(SW_ETA), path], _sw_check(inst))
                inst = _shuffled(maker(n, rng), rng)
                path = _write_instance(workdir, f"mlrp-{tag}", inst)
                add("mlrp-check", ["mlrp-check", path], _mlrp_check(inst))
                inst = _shuffled(maker(n, rng), rng)
                path = _write_instance(workdir, f"check-{tag}", inst)
                pieces = _random_division(n, rng)
                division = _write_json(os.path.join(workdir, f"division-{tag}.json"),
                                       {"pieces": pieces})
                add("check", ["check", "--eta", repr(SW_ETA), "--division", division, path],
                    _division_check(inst, pieces))
    for n in size.plef_n:
        for k in size.plef_k:
            for rep in range(size.plef_reps):
                inst = gen.piecewise_linear_instance(n, k, rng)
                path = _write_instance(workdir, f"plef-{n}-{k}-{rep}", inst)
                add("plef", ["plef", "--eta", repr(PLEF_ETA), path], _plef_check(inst))
    return [call for calls in by_kind.values() for call in calls]


def _sw_check(inst: Instance):
    def check(report) -> str | None:
        ordered = inst.reordered(report["order"])
        sw = audit.welfare_metrics(ordered, Allocation(tuple(report["cuts"])))[0]
        if abs(sw - report["objective"]) > OBJECTIVE_TOL:
            return f"sw objective {report['objective']!r} != audited {sw!r}"
        if inst.n <= 3:
            best = audit.brute_force_optimum(ordered, "sw", BRUTE_GRID)
            if sw < best - SW_ETA:
                return f"sw {sw!r} < grid optimum {best!r} - eta"
        return None
    return check


def _plef_check(inst: Instance):
    def check(report) -> str | None:
        ordered = inst.reordered(report["order"])
        pieces = [report["pieces"][str(i)] for i in range(inst.n)]
        envy = audit.envy_matrix(ordered, pieces).max_envy
        return None if envy <= PLEF_ETA else f"plef max envy {envy:.3g} > eta {PLEF_ETA:g}"
    return check


def _mlrp_check(inst: Instance):
    def check(report) -> str | None:
        if len(report["verified"]) != inst.n - 1 or not all(report["verified"]):
            return f"MLRP not verified for a generated MLRP instance: {report['verified']}"
        return None
    return check


def _division_check(inst: Instance, pieces):
    def check(report) -> str | None:
        envy = audit.envy_matrix(inst, pieces).max_envy
        if abs(report["max_envy"] - envy) > 1e-12 or report["passes_eta"] != (envy <= SW_ETA):
            return f"check reported max envy {report['max_envy']!r}, audit gives {envy!r}"
        return None
    return check
