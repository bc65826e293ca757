"""Command-line entry point.

Subcommands: ef, sw, ew, nsw, plef, reorder, mlrp-order, mlrp-check, perturb,
check.  All consume a UTF-8 JSON instance file {"agents": [...], "ordered":
bool} and emit a machine-readable report on stdout (stable key order; the
wall-time field is the only nondeterministic one).

Exit codes: 0 success, 2 invalid input, 3 a computed result failed its own
post-hoc audit (an implementation bug, not user error), which ``run`` logs as
one "<command> audit failed: <reason>" line.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time

from . import audit, mlrp, plef, ripple, welfare
from .density import density_from_dict
from .errors import FairsliceError
from .oracle import Instance, QueryLedger

log = logging.getLogger("fairslice")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_AUDIT_FAILED = 3

#: Grid cells of the brute-force Nash optimum that the ``nsw`` audit compares against.
NSW_AUDIT_GRID = 400

#: Float slack of the ``sw`` audit per agent and per unit of max(1, U) (see _sw_failure).
SW_AUDIT_TOL = 8.0 * 2.0 ** -52


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct; a repeated key is malformed."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def _read_json(path: str):
    """Parsed JSON of a UTF-8 file; an unreadable file or malformed JSON is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise FairsliceError(f"cannot read JSON from {path}: {exc}") from exc


def load_instance(path: str) -> tuple[Instance, bool]:
    raw = _read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("agents"), list):
        raise FairsliceError(f"{path}: instance file needs an 'agents' list")
    ordered = raw.get("ordered", False)
    if not isinstance(ordered, bool):
        raise FairsliceError(f"{path}: 'ordered' must be true or false, got {json.dumps(ordered)}")
    densities = [density_from_dict(d) for d in raw["agents"]]
    return Instance.from_densities(densities), ordered


def _ordered_instance(path: str, ledger: QueryLedger) -> tuple[Instance, list[int]]:
    """The instance in its MLRP order, and that order: identity if marked ordered, else detected."""
    instance, ordered = load_instance(path)
    order = list(range(instance.n)) if ordered else mlrp.detect_order(instance, ledger)
    return instance.reordered(order), order


def _division_pieces_from_file(path: str, n: int) -> list[list[tuple[float, float]]]:
    """Per-agent pieces: a list of n piece lists, or a ``{"pieces": {...}}`` object keyed
    by agent index in canonical decimal ("0", "1", ...), each key at most once."""
    raw = _read_json(path)
    payload = raw.get("pieces", raw) if isinstance(raw, dict) else raw
    try:
        if isinstance(payload, dict):
            agents = {str(i): i for i in range(n)}
            pieces = [[] for _ in range(n)]
            for key, plist in payload.items():
                if key not in agents:
                    raise FairsliceError(f"{path}: key {key!r} is not an agent index 0..{n - 1} "
                                         f"in canonical decimal")
                pieces[agents[key]] = plist
            payload = pieces
        elif len(payload) != n:
            raise FairsliceError(f"{path}: division has {len(payload)} agents, instance has {n}")
        return audit.as_piece_lists(payload)
    except (LookupError, TypeError, ValueError) as exc:
        raise FairsliceError(f"{path}: malformed division ({exc})") from None


def _audited(instance: Instance, division) -> dict:
    """Value matrix, max envy and welfare metrics of a division, read off the densities."""
    matrix = audit.envy_matrix(instance, division)
    sw, ew, nsw = audit.welfare_from_values(matrix.values)
    return {"values": matrix.values.tolist(), "max_envy": matrix.max_envy,
            "metrics": {"sw": sw, "ew": ew, "nsw": nsw}}


def _allocation(param: str, solve, failure_of):
    """Handler for ef, sw, ew and nsw: ``solve(instance, value, ledger) -> (allocation,
    objective or None)`` on the MLRP-ordered instance, with ``value`` the subcommand's
    ``--<param>``; the audit failure is ``failure_of(instance, value, report)``."""
    def handler(args, ledger):
        instance, order = _ordered_instance(args.instance, ledger)
        value = getattr(args, param)
        alloc, objective = solve(instance, value, ledger)
        report = {"parameters": {param: value}, "order": order, "cuts": list(alloc.cuts),
                  **_audited(instance, alloc)}
        if objective is not None:
            report["objective"] = objective
        return report, failure_of(instance, value, report)
    return handler


def _mlrp_failure(instance: Instance, failure: str) -> str:
    """The audit ``failure``, which is a bug on an instance that keeps the MLRP promise it
    rests on; raise FairsliceError (bad input) with the same text if the instance breaks it."""
    check = mlrp.verify_instance(instance)
    if not check.all_verified:
        raise FairsliceError(
            "instance violates the MLRP promise "
            f"(likelihood ratio decreases for adjacent pair {check.violation[:2]}); {failure}")
    return failure


def _ef_failure(instance: Instance, eta: float, report: dict) -> str | None:
    if report["max_envy"] <= eta:
        return None
    return _mlrp_failure(instance, f"max envy {report['max_envy']:.3g} > eta")


def _sw_failure(instance: Instance, eta: float, report: dict) -> str | None:
    """The allocation is worth other than the reported objective, or its social welfare is
    below ``audit.social_optimum`` - eta - SW_AUDIT_TOL * n * max(1, U).

    Both the optimum and the report's welfare are sums of measures within
    4n * 2^-52 * max(1, U) of their exact values, so a correct answer never exits 3.
    """
    sw = report["metrics"]["sw"]
    if abs(sw - report["objective"]) > 1e-6:
        return f"SW {sw:.17g} != reported objective {report['objective']:.17g}"
    best = audit.social_optimum(instance)
    if sw >= best - eta - SW_AUDIT_TOL * instance.n * max(1.0, instance.bounds.upper):
        return None
    return _mlrp_failure(instance, f"SW {sw:.17g} < optimum {best:.17g} - eta")


def _nsw_failure(instance: Instance, eps: float, report: dict) -> str | None:
    """Some agent is below the (1-eps)/(4n) own-value floor, or NSW is below (1-eps) times
    the grid optimum (never above the true optimum, so a correct answer always passes).

    ``max_nash``'s certificate rests on the MLRP promise, so either miss is bad
    input on an instance that breaks it.
    """
    n = instance.n
    own = min(report["values"][i][i] for i in range(n))
    if own < (1.0 - eps) / (4.0 * n) - 1e-9:
        return _mlrp_failure(instance, f"an agent's own value {own:.6g} < (1-eps)/(4n)")
    best, nsw = audit.brute_force_optimum(instance, "nsw", NSW_AUDIT_GRID), report["metrics"]["nsw"]
    if nsw >= (1.0 - eps) * best:
        return None
    return _mlrp_failure(instance, f"NSW {nsw:.6g} < (1-eps) * grid optimum {best:.6g}")


def _ew_failure(instance: Instance, eta: float, report: dict) -> str | None:
    """The allocation is worth less than the reported objective, or its egalitarian welfare
    is more than eta below the optimum that the moving-knife bisection reads off the densities."""
    ew = report["metrics"]["ew"]
    if ew < report["objective"] - 1e-9:
        return f"EW {ew:.17g} < reported objective {report['objective']:.17g}"
    best = audit.egalitarian_optimum(instance)
    if ew >= best - eta:
        return None
    return f"EW {ew:.17g} < optimum {best:.17g} - eta"


def _plef(args, ledger):
    instance, _ = load_instance(args.instance)  # PL-EF needs no order: agents as listed
    division, stats = plef.pl_ef(instance, args.eta, ledger)
    max_envy = audit.envy_matrix(instance, division).max_envy
    report = {
        "parameters": {"eta": args.eta},
        "order": list(range(instance.n)),
        "pieces": {str(i): [list(p) for p in division.pieces[i]] for i in range(instance.n)},
        "max_envy": max_envy,
        "recursion": {"nodes": stats.node_count, "depth": stats.max_depth},
    }
    return report, None if max_envy <= args.eta else f"max envy {max_envy:.3g} > eta"


def _reorder(args, ledger):
    """Fail the audit when an agent's value of its interval drops by more than 1e-9, read off
    the densities; on an instance that breaks the MLRP promise the drop is bad input."""
    instance, order = _ordered_instance(args.instance, ledger)
    pieces = _division_pieces_from_file(args.division, instance.n)
    if any(len(plist) != 1 for plist in pieces):
        raise FairsliceError(f"{args.division}: reorder needs exactly one interval per agent, "
                             f"got {[len(plist) for plist in pieces]}")
    # follow the applied agent order
    before = [pieces[i][0] for i in order]
    result = welfare.reorder_to_mlrp(instance, before, ledger)
    report = {
        "order": order,
        "pieces": {str(i): [list(result[i])] for i in range(instance.n)},
        "values": audit.envy_matrix(instance, [[iv] for iv in result]).values.tolist(),
    }
    drop, k = max((agent.measure(*old) - agent.measure(*new), k)
                  for k, (agent, old, new) in enumerate(zip(instance.agents, before, result)))
    failure = f"the value of agent {order[k]} (rank {k}) drops by {drop:.3g}"
    return report, None if drop <= 1e-9 else _mlrp_failure(instance, failure)


def _mlrp_order(args, ledger):
    instance, _ = load_instance(args.instance)
    return {"order": mlrp.detect_order(instance, ledger)}, None


def _mlrp_check(args, ledger):
    instance, ordered = load_instance(args.instance)
    order = None if ordered else mlrp.detect_order(instance, ledger)
    result = mlrp.verify_instance(instance, args.grid, order)
    return {
        "order": list(result.order),
        "verified": list(result.verified),
        "grid_size": result.grid_size,
        "violation": None if result.violation is None else {
            "pair": [result.violation[0], result.violation[1]],
            "points": [result.violation[2], result.violation[3]],
        },
    }, None


def _perturb(args, ledger):
    raw = _read_json(args.instance)
    try:
        intervals = mlrp.IntervalInstance(tuple((d["l"], d["r"]) for d in raw["intervals"]))
        eta = float(raw.get("eta", args.eta))
    except (LookupError, TypeError, ValueError) as exc:
        raise FairsliceError(f"{args.instance}: perturb needs "
                             f"{{'intervals': [{{'l': .., 'r': ..}}, ...]}} ({exc!r})") from None
    return {
        "parameters": {"eta": eta},
        "order": intervals.sorted_order(),
        "agents": [a.to_dict() for a in mlrp.perturb(intervals, eta).agents],
        "ordered": True,
    }, None


def _check(args, ledger):
    instance, _ = load_instance(args.instance)
    pieces = _division_pieces_from_file(args.division, instance.n)
    fields = _audited(instance, pieces)
    return {"parameters": {"eta": args.eta}, **fields,
            "passes_eta": bool(fields["max_envy"] <= args.eta)}, None


FLAGS = {
    "--eta": {"type": float, "default": 1e-6},
    "--epsilon": {"type": float, "default": 0.01},
    "--grid": {"type": int, "default": mlrp.DEFAULT_GRID},
    "--division": {"required": True, "help": "division JSON file"},
    # taken exactly by the subcommands whose report carries the query ledger
    "--queries": {"action": "store_true", "help": "print ledger to stderr"},
}


# subcommand -> (help text, the flags it reads, handler (args, ledger) -> (report fields, audit
# failure or None)).  Library functions are looked up at run time, so patched attributes apply.
COMMANDS = {
    "ef": ("envy-free allocation via ripple-division chain search", ("--eta", "--queries"),
           _allocation("eta", lambda inst, eta, ledger: (ripple.envy_free(inst, eta, ledger), None),
                       _ef_failure)),
    "sw": ("social-welfare maximizing allocation", ("--eta", "--queries"), _allocation(
        "eta", lambda inst, eta, ledger: welfare.max_social_welfare(inst, eta, ledger),
        _sw_failure)),
    "ew": ("egalitarian-welfare maximizing allocation", ("--eta", "--queries"), _allocation(
        "eta", lambda inst, eta, ledger: welfare.max_egalitarian(inst, eta, ledger),
        _ew_failure)),
    "nsw": ("Nash-social-welfare FPTAS allocation", ("--epsilon", "--queries"), _allocation(
        "epsilon", lambda inst, eps, ledger: welfare.max_nash(inst, eps, ledger),
        _nsw_failure)),
    "plef": ("envy-free division for piecewise-linear densities", ("--eta", "--queries"), _plef),
    "reorder": ("repair a division into the MLRP order", ("--division", "--queries"), _reorder),
    "mlrp-order": ("detect the MLRP order", ("--queries",), _mlrp_order),
    "mlrp-check": ("grid-verify MLRP for the (detected) order", ("--grid", "--queries"),
                   _mlrp_check),
    "perturb": ("manufacture a full-support MLRP instance from interval values", ("--eta",),
                _perturb),
    "check": ("audit a division against an instance and eta", ("--eta", "--division"), _check),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` of a process and reused after it.

    Not built at import, which the process pays even when it runs nothing.
    Reuse is safe: ``parse_args`` fills a fresh namespace on every call.
    """
    parser = argparse.ArgumentParser(prog="fairslice", description="Fair cake division under MLRP")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance JSON file")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
    return parser


def run(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    level = os.environ.get("FAIRSLICE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    started = time.perf_counter()
    ledger = QueryLedger()
    _, flags, handler = COMMANDS[args.command]
    fields, failure = handler(args, ledger)
    report = {"algorithm": args.command, **fields,
              "wall_time_s": time.perf_counter() - started}
    if "--queries" in flags:
        report["queries"] = ledger.as_dict()
        if args.queries:
            print(f"queries: eval={ledger.eval_count} cut={ledger.cut_count}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True, indent=2 if args.pretty else None))
    if failure is None:
        return EXIT_OK
    log.error("%s audit failed: %s", args.command, failure)
    return EXIT_AUDIT_FAILED


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except FairsliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)


if __name__ == "__main__":
    main()
