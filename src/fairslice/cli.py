"""Command-line entry point.

Subcommands: ef, sw, ew, nsw, plef, reorder, mlrp-order, mlrp-check, perturb,
check.  All consume a UTF-8 JSON instance file {"agents": [...], "ordered":
bool} and emit a machine-readable report on stdout (stable key order; the
wall-time field is the only nondeterministic one).

Exit codes: 0 success, 2 invalid input, 3 a computed result failed its own
post-hoc audit (an implementation bug, not user error).
"""

from __future__ import annotations

import argparse
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


def _read_json(path: str):
    """Parsed JSON of a UTF-8 file; an unreadable file or malformed JSON is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise FairsliceError(f"cannot read JSON from {path}: {exc}") from exc


def load_instance(path: str) -> tuple[Instance, bool]:
    raw = _read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("agents"), list):
        raise FairsliceError(f"{path}: instance file needs an 'agents' list")
    densities = [density_from_dict(d) for d in raw["agents"]]
    return Instance.from_densities(densities), bool(raw.get("ordered", False))


def _prepare(path: str, ledger: QueryLedger) -> tuple[Instance, list[int]]:
    """Load the instance; detect and apply the MLRP order unless marked ordered."""
    instance, ordered = load_instance(path)
    if ordered:
        return instance, list(range(instance.n))
    order = mlrp.detect_order(instance, ledger)
    return instance.reordered(order), order


def _allocation_report(instance: Instance, alloc: ripple.Allocation) -> dict:
    matrix = audit.envy_matrix(instance, alloc)
    sw, ew, nsw = audit.welfare_metrics(instance, alloc)
    return {
        "cuts": list(alloc.cuts),
        "values": matrix.values.tolist(),
        "max_envy": matrix.max_envy,
        "metrics": {"sw": sw, "ew": ew, "nsw": nsw},
    }


def _emit(report: dict, args) -> None:
    counts = report.get("queries")
    if args.queries and counts is not None:
        print(f"queries: eval={counts['eval']} cut={counts['cut']}", file=sys.stderr)
    indent = 2 if args.pretty else None
    print(json.dumps(report, sort_keys=True, indent=indent))


def _division_pieces_from_file(path: str, n: int) -> list[list[tuple[float, float]]]:
    raw = _read_json(path)
    payload = raw.get("pieces", raw) if isinstance(raw, dict) else raw
    try:
        if isinstance(payload, dict):
            pieces = [[] for _ in range(n)]
            for key, plist in payload.items():
                if not 0 <= int(key) < n:
                    raise FairsliceError(f"{path}: agent {key} out of range for n={n}")
                pieces[int(key)] = [(float(l), float(r)) for l, r in plist]
            return pieces
        if len(payload) != n:
            raise FairsliceError(f"{path}: division has {len(payload)} agents, instance has {n}")
        return [[(float(l), float(r)) for l, r in plist] for plist in payload]
    except (LookupError, TypeError, ValueError) as exc:
        raise FairsliceError(f"{path}: malformed division ({exc})") from None


def _load_intervals(path: str, default_eta: float) -> tuple[mlrp.IntervalInstance, float]:
    raw = _read_json(path)
    try:
        intervals = mlrp.IntervalInstance(tuple((d["l"], d["r"]) for d in raw["intervals"]))
        return intervals, float(raw.get("eta", default_eta))
    except (LookupError, TypeError, ValueError) as exc:
        raise FairsliceError(
            f"{path}: perturb needs {{'intervals': [{{'l': .., 'r': ..}}, ...]}} ({exc!r})") from None


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fairslice",
                                     description="Fair cake division under MLRP")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--eta", type=float, default=1e-6)
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--grid", type=int, default=4096)
        p.add_argument("--queries", action="store_true", help="print ledger to stderr")
        p.add_argument("--json", dest="pretty", action="store_false", default=False,
                       help="compact JSON output (default)")
        p.add_argument("--pretty", dest="pretty", action="store_true")
        for flag, kw in extra_flags.items():
            p.add_argument(flag, **kw)
        return p

    add("ef", "envy-free allocation via ripple-division binary search")
    add("sw", "social-welfare maximizing allocation")
    add("ew", "egalitarian-welfare maximizing allocation")
    add("nsw", "Nash-social-welfare FPTAS allocation")
    add("plef", "envy-free division for piecewise-linear densities")
    add("reorder", "repair a division into the MLRP order",
        **{"--division": {"required": True, "help": "division JSON file"}})
    add("mlrp-order", "detect the MLRP order")
    add("mlrp-check", "grid-verify MLRP for the (detected) order")
    add("perturb", "manufacture a full-support MLRP instance from interval values")
    add("check", "audit a division against an instance and eta",
        **{"--division": {"required": True, "help": "division JSON file"}})

    args = parser.parse_args(argv)
    level = os.environ.get("FAIRSLICE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    started = time.perf_counter()
    ledger = QueryLedger()
    report: dict = {"algorithm": args.command}
    exit_code = EXIT_OK

    if args.command == "perturb":
        intervals, eta = _load_intervals(args.instance, args.eta)
        instance = mlrp.perturb(intervals, eta)
        report.update({
            "parameters": {"eta": eta},
            "order": intervals.sorted_order(),
            "agents": [a.to_dict() for a in instance.agents],
            "ordered": True,
        })
    elif args.command == "check":
        instance, _ = load_instance(args.instance)
        pieces = _division_pieces_from_file(args.division, instance.n)
        matrix = audit.envy_matrix(instance, pieces)
        sw, ew, nsw = audit.welfare_metrics(instance, pieces)
        report.update({
            "parameters": {"eta": args.eta},
            "values": matrix.values.tolist(),
            "max_envy": matrix.max_envy,
            "metrics": {"sw": sw, "ew": ew, "nsw": nsw},
            "passes_eta": bool(matrix.max_envy <= args.eta),
        })
    elif args.command == "mlrp-order":
        instance, _ = load_instance(args.instance)
        order = mlrp.detect_order(instance, ledger)
        report.update({"order": order, "queries": ledger.as_dict()})
    elif args.command == "mlrp-check":
        instance, ordered = load_instance(args.instance)
        order = list(range(instance.n)) if ordered else mlrp.detect_order(instance, ledger)
        result = mlrp.verify_instance(instance, args.grid, order)
        report.update({
            "order": list(result.order),
            "verified": list(result.verified),
            "grid_size": result.grid_size,
            "violation": None if result.violation is None else {
                "pair": [result.violation[0], result.violation[1]],
                "points": [result.violation[2], result.violation[3]],
            },
            "queries": ledger.as_dict(),
        })
    elif args.command == "reorder":
        instance, order = _prepare(args.instance, ledger)
        pieces = _division_pieces_from_file(args.division, instance.n)
        reordered_pieces = [pieces[i] for i in order]  # follow the applied agent order
        result = welfare.reorder_to_mlrp(instance, reordered_pieces, ledger)
        matrix = audit.envy_matrix(instance, [[iv] for iv in result])
        report.update({
            "order": order,
            "pieces": {str(i): [list(result[i])] for i in range(instance.n)},
            "values": matrix.values.tolist(),
            "queries": ledger.as_dict(),
        })
    else:
        instance, order = _prepare(args.instance, ledger)
        if args.command == "ef":
            alloc = ripple.envy_free(instance, args.eta, ledger)
            report.update(parameters={"eta": args.eta}, order=order,
                          **_allocation_report(instance, alloc))
            if report["max_envy"] > args.eta:
                # distinguish a violated MLRP promise (user error) from a bug
                check = mlrp.verify_instance(instance, args.grid)
                if not check.all_verified:
                    raise FairsliceError(
                        "instance violates the MLRP promise "
                        f"(likelihood ratio decreases for adjacent pair {check.violation[:2]}); "
                        f"allocation envy {report['max_envy']:.3g} > eta")
                log.error("ef audit failed: max envy %.3g > eta", report["max_envy"])
                exit_code = EXIT_AUDIT_FAILED
        elif args.command == "sw":
            alloc, value = welfare.max_social_welfare(instance, args.eta, ledger)
            report.update(parameters={"eta": args.eta}, order=order, objective=value,
                          **_allocation_report(instance, alloc))
            if abs(report["metrics"]["sw"] - value) > 1e-6:
                exit_code = EXIT_AUDIT_FAILED
        elif args.command == "ew":
            alloc, value = welfare.max_egalitarian(instance, args.eta, ledger)
            report.update(parameters={"eta": args.eta}, order=order, objective=value,
                          **_allocation_report(instance, alloc))
            if report["metrics"]["ew"] < value - 1e-9:
                exit_code = EXIT_AUDIT_FAILED
        elif args.command == "nsw":
            alloc, value = welfare.max_nash(instance, args.epsilon, ledger)
            report.update(parameters={"epsilon": args.epsilon}, order=order, objective=value,
                          **_allocation_report(instance, alloc))
            floor = (1.0 - args.epsilon) / (4.0 * instance.n) - 1e-9
            if min(report["values"][i][i] for i in range(instance.n)) < floor:
                exit_code = EXIT_AUDIT_FAILED
        elif args.command == "plef":
            division, stats = plef.pl_ef(instance, args.eta, ledger)
            matrix = audit.envy_matrix(instance, division)
            report.update({
                "parameters": {"eta": args.eta},
                "order": order,
                "pieces": {str(i): [list(p) for p in division.pieces[i]]
                           for i in range(instance.n)},
                "max_envy": matrix.max_envy,
                "recursion": {"nodes": stats.node_count, "depth": stats.max_depth},
            })
            if matrix.max_envy > args.eta:
                log.error("plef audit failed: max envy %.3g > eta", matrix.max_envy)
                exit_code = EXIT_AUDIT_FAILED
        report["queries"] = ledger.as_dict()

    report["wall_time_s"] = time.perf_counter() - started
    _emit(report, args)
    return exit_code


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except FairsliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)


if __name__ == "__main__":
    main()
