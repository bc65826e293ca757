import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fairslice
import gen
from fairslice import Allocation, Division, RecursionStats, audit, cli, plef, ripple, welfare
from fairslice.cli import main, run

TWO_UNIFORM = {"agents": [{"family": "uniform"}, {"family": "uniform"}], "ordered": True}
UNIF_QUAD = {
    "agents": [{"family": "uniform"},
               {"family": "binomial_poly", "a": 3, "b": 0, "s": 2, "t": 0}],
    "ordered": True,
}
TWO_AGENTS = {"agents": [{"family": "linear", "a": -1, "b": 1.5}, {"family": "uniform"}]}
GAUSS_TRIO = {
    "agents": [{"family": "gaussian_restricted", "mu": 0.8, "sigma": 0.2},
               {"family": "gaussian_restricted", "mu": 0.2, "sigma": 0.2},
               {"family": "gaussian_restricted", "mu": 0.5, "sigma": 0.2}],
    "ordered": False,
}


def write(tmp_path, name, payload):
    """The payload as a JSON file; a string is written as it is."""
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(p)


def run_process(argv):
    """The CLI in a fresh interpreter that imports the same fairslice package as the tests."""
    src = os.path.dirname(os.path.dirname(fairslice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fairslice.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ef_two_uniform(tmp_path, capsys):
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    code, report = invoke(capsys, ["ef", "--eta", "1e-6", path])
    assert code == 0
    assert report["cuts"][1] == pytest.approx(0.5, abs=1e-6)
    assert report["max_envy"] <= 1e-6
    assert report["queries"]["cut"] > 0


def test_ef_envy_above_eta_exits_3(tmp_path, capsys, monkeypatch):
    # two uniform agents are in MLRP order, so agent 0's envy of 0.8 is a bug
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    monkeypatch.setattr(ripple, "envy_free", lambda inst, eta, ledger: Allocation((0.0, 0.1, 1.0)))
    code, report = invoke(capsys, ["ef", "--eta", "1e-6", path])
    assert code == 3
    assert report["max_envy"] == pytest.approx(0.8, abs=1e-12)


def test_sw_cut_near_analytic(tmp_path, capsys):
    path = write(tmp_path, "inst.json", UNIF_QUAD)
    code, report = invoke(capsys, ["sw", "--eta", "1e-4", path])
    assert code == 0
    assert report["cuts"][1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)


def test_sw_below_optimum_exits_3(tmp_path, capsys, monkeypatch):
    # the reported objective is the allocation's own SW, so only the optimum audit fails
    path = write(tmp_path, "inst.json", UNIF_QUAD)
    monkeypatch.setattr(welfare, "max_social_welfare",
                        lambda inst, eta, ledger: (Allocation((0.0, 0.5, 1.0)), 0.5 + 0.875))
    code, report = invoke(capsys, ["sw", "--eta", "1e-4", path])
    assert code == 3
    assert report["metrics"]["sw"] == pytest.approx(1.375, abs=1e-12)


def test_sw_objective_other_than_the_allocations_sw_exits_3(tmp_path, capsys, monkeypatch):
    # the cut is the optimum 1/sqrt(3), but the reported objective is not its SW of 1.3849
    path = write(tmp_path, "inst.json", UNIF_QUAD)
    monkeypatch.setattr(welfare, "max_social_welfare",
                        lambda inst, eta, ledger: (Allocation((0.0, 3.0 ** -0.5, 1.0)), 1.5))
    code, report = invoke(capsys, ["sw", "--eta", "1e-4", path])
    assert code == 3
    assert report["objective"] == 1.5
    assert report["metrics"]["sw"] == pytest.approx(1.0 + 2.0 * 3.0 ** -1.5, abs=1e-12)


def test_sw_miss_off_mlrp_order_exits_2(tmp_path, capsys, monkeypatch):
    # the uniform agent sits between the linear ones against the MLRP order
    path = write(tmp_path, "inst.json", {"agents": [
        {"family": "uniform"}, {"family": "linear", "a": 1, "b": 1}, {"family": "uniform"}],
        "ordered": True})
    alloc = Allocation((0.0, 0.1, 0.2, 1.0))  # SW 0.1 + 0.115 / 1.5 + 0.8 < 1
    monkeypatch.setattr(welfare, "max_social_welfare", lambda inst, eta, ledger: (
        alloc, audit.welfare_metrics(inst, alloc)[0]))
    monkeypatch.setattr(sys, "argv", ["fairslice", "sw", "--eta", "1e-4", path])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert "violates the MLRP promise" in capsys.readouterr().err


def test_sw_at_fine_eta_passes_the_optimum_audit(tmp_path, capsys):
    inst = gen.gaussian_instance(3, np.random.default_rng(0))
    path = write(tmp_path, "inst.json", {"agents": [a.to_dict() for a in inst.agents]})
    code, report = invoke(capsys, ["sw", "--eta", "1e-12", path])
    assert code == 0
    assert report["metrics"]["sw"] >= audit.social_optimum(inst.reordered(report["order"])) - 1e-12


def test_sw_eta_below_float_resolution_exits_2(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "inst.json", UNIF_QUAD)
    monkeypatch.setattr(sys, "argv", ["fairslice", "sw", "--eta", "1e-300", path])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: switching-point width gamma=")


def test_mlrp_order_gaussian_trio(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GAUSS_TRIO)
    code, report = invoke(capsys, ["mlrp-order", path])
    assert code == 0
    assert report["order"] == [1, 2, 0]


def test_mlrp_check(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GAUSS_TRIO)
    code, report = invoke(capsys, ["mlrp-check", "--grid", "512", path])
    assert code == 0
    assert all(report["verified"]) and report["violation"] is None


def test_determinism_excluding_wall_time(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GAUSS_TRIO)
    reports = []
    for _ in range(2):
        code, report = invoke(capsys, ["ef", "--eta", "1e-6", path])
        assert code == 0
        report.pop("wall_time_s")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


LINEAR_PAIR = {
    "agents": [{"family": "linear", "a": 1.0, "b": 0.5},
               {"family": "linear", "a": 2.0, "b": 0.2}],
    "ordered": True,
}


def test_emitted_allocation_revalidates_through_check(tmp_path, capsys):
    path = write(tmp_path, "inst.json", LINEAR_PAIR)
    code, report = invoke(capsys, ["ef", "--eta", "1e-5", path])
    assert code == 0
    cuts = report["cuts"]
    division = {"pieces": {str(i): [[cuts[i], cuts[i + 1]]] for i in range(2)}}
    dpath = write(tmp_path, "div.json", division)
    code, check_report = invoke(capsys, ["check", "--division", dpath, "--eta", "1e-5", path])
    assert code == 0
    assert check_report["passes_eta"]
    assert check_report["max_envy"] == pytest.approx(report["max_envy"], abs=1e-12)


def test_plef_report(tmp_path, capsys):
    inst = {
        "agents": [
            {"family": "piecewise_linear", "breakpoints": [0.5],
             "segments": [{"slope": 1.0, "intercept": 0.5},
                          {"slope": -1.0, "intercept": 1.5}]},
            {"family": "linear", "a": 1.0, "b": 0.5},
        ],
        "ordered": False,
    }
    path = write(tmp_path, "inst.json", inst)
    code, report = invoke(capsys, ["plef", "--eta", "1e-3", path])
    assert code == 0
    assert report["max_envy"] <= 1e-3
    assert report["recursion"]["nodes"] >= 1
    assert set(report["pieces"]) == {"0", "1"}


def test_plef_divides_the_agents_as_listed(tmp_path, capsys):
    # PL-EF needs no MLRP order: a permuted file gives the same ledger and recursion, each
    # input agent the same pieces, and the identity as its order
    rng = np.random.default_rng(53)
    for n, k in ((3, 4), (4, 6), (5, 8)):
        inst = gen.piecewise_linear_instance(n, k, rng)
        perm = list(range(n))
        while perm == list(range(n)):
            perm = [int(i) for i in rng.permutation(n)]
        reports = []
        for name, agents in (("orig.json", inst.agents), ("perm.json", [inst.agents[i] for i in perm])):
            path = write(tmp_path, name, {"agents": [a.to_dict() for a in agents], "ordered": False})
            code, report = invoke(capsys, ["plef", "--eta", "1e-2", path])
            assert code == 0 and report["order"] == list(range(n))
            reports.append(report)
        orig, permuted = reports
        assert (permuted["queries"], permuted["recursion"]) == (orig["queries"], orig["recursion"])
        assert [permuted["pieces"][str(j)] for j in range(n)] == [orig["pieces"][str(i)] for i in perm]


def test_plef_report_of_an_unordered_file_passes_check(tmp_path, capsys):
    # the densities 2x and 2 - 2x are listed against the MLRP order; keyed by rank, the
    # report's pieces read as the input agents' would give each the other's, envy 0.577
    path = write(tmp_path, "up_down.json", {"agents": [{"family": "linear", "a": 2, "b": 0},
                                                       {"family": "linear", "a": -2, "b": 2}]})
    code, report = invoke(capsys, ["plef", "--eta", "1e-2", path])
    assert code == 0
    dpath = write(tmp_path, "plef.json", report)
    code, check_report = invoke(capsys, ["check", "--eta", "1e-2", "--division", dpath, path])
    assert code == 0 and check_report["passes_eta"]
    assert check_report["max_envy"] == report["max_envy"]
    assert report["order"] == [0, 1]


def test_plef_envy_above_eta_exits_3(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    division = Division((((0.0, 0.1), (0.9, 1.0)), ((0.1, 0.9),)))
    monkeypatch.setattr(plef, "pl_ef",
                        lambda inst, eta, ledger: (division, RecursionStats(node_count=1)))
    code, report = invoke(capsys, ["plef", "--eta", "1e-2", path])
    assert code == 3
    assert report["max_envy"] == pytest.approx(0.6, abs=1e-12)
    assert report["pieces"] == {"0": [[0.0, 0.1], [0.9, 1.0]], "1": [[0.1, 0.9]]}
    assert report["recursion"] == {"nodes": 1, "depth": 0}


def test_plef_steep_segment_to_zero_exits_0(tmp_path, capsys):
    # the first segment falls to exactly 0 at the breakpoint; a half's restriction
    # rounds that end below -1e-15, and the half still settles
    inst = {"agents": [{"family": "piecewise_linear", "breakpoints": [0.53],
                        "segments": [{"slope": -1000, "intercept": 530},
                                     {"slope": 0, "intercept": 1}]},
                       {"family": "linear", "a": 1, "b": 1}]}
    code, report = invoke(capsys, ["plef", "--eta", "1e-2", write(tmp_path, "inst.json", inst)])
    assert code == 0
    assert report["max_envy"] <= 1e-2


def test_ew_objective_is_achieved(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GAUSS_TRIO)
    code, report = invoke(capsys, ["ew", "--eta", "1e-4", path])
    assert code == 0
    assert report["objective"] <= report["metrics"]["ew"]


def test_ew_below_optimum_exits_3(tmp_path, capsys, monkeypatch):
    # the allocation is worth the reported 0.4 to both agents, but EW* = 0.5
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    monkeypatch.setattr(welfare, "max_egalitarian",
                        lambda inst, eta, ledger: (Allocation((0.0, 0.4, 1.0)), 0.4))
    code, report = invoke(capsys, ["ew", "--eta", "1e-6", path])
    assert code == 3
    assert report["metrics"]["ew"] == pytest.approx(0.4, abs=1e-12)


def test_ew_objective_above_the_allocations_ew_exits_3(tmp_path, capsys, monkeypatch):
    # the even split is the optimum EW 0.5, but the reported objective claims 0.6
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    monkeypatch.setattr(welfare, "max_egalitarian",
                        lambda inst, eta, ledger: (Allocation((0.0, 0.5, 1.0)), 0.6))
    code, report = invoke(capsys, ["ew", "--eta", "1e-6", path])
    assert code == 3
    assert report["objective"] == 0.6
    assert report["metrics"]["ew"] == pytest.approx(0.5, abs=1e-12)


def test_ew_at_fine_eta_passes_the_optimum_audit(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GAUSS_TRIO)
    code, report = invoke(capsys, ["ew", "--eta", "1e-12", path])
    assert code == 0


def test_nsw_own_value_floor(tmp_path, capsys):
    path = write(tmp_path, "inst.json", LINEAR_PAIR)
    eps = 0.05
    code, report = invoke(capsys, ["nsw", "--epsilon", str(eps), path])
    assert code == 0
    assert report["parameters"] == {"epsilon": eps}
    n = len(report["values"])
    assert min(report["values"][i][i] for i in range(n)) >= (1.0 - eps) / (4.0 * n)


def test_nsw_below_grid_optimum_exits_3(tmp_path, capsys, monkeypatch):
    # both agents keep the (1-eps)/(4n) floor, but NSW 0.4 < (1-eps) * 0.5
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    monkeypatch.setattr(welfare, "max_nash",
                        lambda inst, eps, ledger: (Allocation((0.0, 0.2, 1.0)), 0.4))
    code, report = invoke(capsys, ["nsw", "--epsilon", "0.01", path])
    assert code == 3
    assert report["metrics"]["nsw"] == pytest.approx(0.4, abs=1e-12)


def test_nsw_below_own_value_floor_exits_3(tmp_path, capsys, monkeypatch):
    # agent 0 values its piece at 0.01 < (1 - 0.01) / 8, the FPTAS floor
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    monkeypatch.setattr(welfare, "max_nash",
                        lambda inst, eps, ledger: (Allocation((0.0, 0.01, 1.0)), 0.0099))
    code, report = invoke(capsys, ["nsw", "--epsilon", "0.01", path])
    assert code == 3
    assert report["values"][0][0] == pytest.approx(0.01, abs=1e-12)


def test_nsw_false_certificate_off_mlrp_exits_2(tmp_path, capsys, monkeypatch):
    # a bimodal Nash product out of MLRP order: max_nash certifies the inferior peak,
    # NSW 0.696 < 0.99 * 0.723, and the audit reports that as bad input, not a bug
    path = write(tmp_path, "inst.json", {"agents": [
        {"family": "piecewise_constant", "breakpoints": [0.24], "heights": [4.0, 0.5]},
        {"family": "piecewise_constant", "breakpoints": [0.31, 0.77], "heights": [2.0, 0.5, 4.0]}],
        "ordered": True})
    monkeypatch.setattr(sys, "argv", ["fairslice", "nsw", "--epsilon", "0.01", path])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert "violates the MLRP promise" in capsys.readouterr().err


def test_nsw_grid_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    monkeypatch.setattr(sys, "argv", ["fairslice", "nsw", "--epsilon", "1e-5", path])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: epsilon=1e-05")


def test_ef_window_below_float_resolution_exits_2(tmp_path, capsys, monkeypatch):
    # eta / U = 6.7e-15 < 1e-13: rejected before the search, not failed by the audit
    path = write(tmp_path, "inst.json", TWO_AGENTS)
    monkeypatch.setattr(sys, "argv", ["fairslice", "ef", "--eta", "1e-14", path])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: eta / U = 6.67e-15 is below 1e-13")


def test_perturb_roundtrip(tmp_path, capsys):
    payload = {"intervals": [{"l": 0.0, "r": 0.5}, {"l": 0.5, "r": 1.0}], "eta": 0.1}
    path = write(tmp_path, "ii.json", payload)
    code, report = invoke(capsys, ["perturb", path])
    assert code == 0
    inst_path = write(tmp_path, "pert.json",
                      {"agents": report["agents"], "ordered": True})
    code, check = invoke(capsys, ["mlrp-check", "--grid", "256", inst_path])
    assert code == 0 and all(check["verified"])


def test_reorder_subcommand(tmp_path, capsys):
    path = write(tmp_path, "inst.json", UNIF_QUAD)
    dpath = write(tmp_path, "div.json",
                  {"pieces": {"0": [[0.5, 1.0]], "1": [[0.0, 0.5]]}})
    code, report = invoke(capsys, ["reorder", "--division", dpath, path])
    assert code == 0
    assert report["pieces"]["0"][0][1] == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-9)
    # the uniform agent held 0.5 and the quadratic one 0.125: neither value is lower after
    assert report["values"][0][0] >= 0.5 and report["values"][1][1] >= 0.125


#: Two Gaussians about 0.5, the narrow one first: their likelihood ratio is not monotone.
GAUSS_NON_MLRP = {"agents": [{"family": "gaussian_restricted", "mu": 0.5, "sigma": 0.05},
                             {"family": "gaussian_restricted", "mu": 0.5, "sigma": 0.5}]}


def test_reorder_value_drop_off_mlrp_exits_2(tmp_path, capsys, monkeypatch):
    # the repair is only guaranteed under MLRP: agent 0's value falls from 0.977 to 0.616
    path = write(tmp_path, "inst.json", GAUSS_NON_MLRP)
    dpath = write(tmp_path, "div.json", [[[0.0, 0.6]], [[0.6, 1.0]]])
    monkeypatch.setattr(sys, "argv", ["fairslice", "reorder", "--division", dpath, path])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance violates the MLRP promise")
    assert "the value of agent 0 (rank 1) drops by 0.361" in err


def test_reorder_value_drop_under_mlrp_exits_3(tmp_path, capsys, monkeypatch):
    # a repair that hands agent 1 less than it held is a bug on an MLRP instance
    path = write(tmp_path, "inst.json", UNIF_QUAD)
    dpath = write(tmp_path, "div.json", [[[0.0, 0.5]], [[0.5, 1.0]]])
    monkeypatch.setattr(welfare, "reorder_to_mlrp",
                        lambda inst, pieces, ledger: [(0.0, 0.9), (0.9, 1.0)])
    code, report = invoke(capsys, ["reorder", "--division", dpath, path])
    assert code == 3
    assert report["pieces"] == {"0": [[0.0, 0.9]], "1": [[0.9, 1.0]]}


#: Every path to exit 3: (instance, argv, division file or None, patched module, attribute,
#: stand-in that returns a wrong result, the start of the logged reason).
AUDIT_FAILURES = {
    "ef": (TWO_UNIFORM, ["ef", "--eta", "1e-6"], None, ripple, "envy_free",
           lambda inst, eta, ledger: Allocation((0.0, 0.1, 1.0)), "max envy 0.8 > eta"),
    "sw-objective": (UNIF_QUAD, ["sw", "--eta", "1e-4"], None, welfare, "max_social_welfare",
                     lambda inst, eta, ledger: (Allocation((0.0, 3.0 ** -0.5, 1.0)), 1.5),
                     "SW 1.38490017945975"),
    "sw-optimum": (UNIF_QUAD, ["sw", "--eta", "1e-4"], None, welfare, "max_social_welfare",
                   lambda inst, eta, ledger: (Allocation((0.0, 0.5, 1.0)), 1.375),
                   "SW 1.375 < optimum"),
    "ew-objective": (TWO_UNIFORM, ["ew", "--eta", "1e-6"], None, welfare, "max_egalitarian",
                     lambda inst, eta, ledger: (Allocation((0.0, 0.5, 1.0)), 0.6),
                     "EW 0.5 < reported objective 0.59999999999999998"),
    "ew-optimum": (TWO_UNIFORM, ["ew", "--eta", "1e-6"], None, welfare, "max_egalitarian",
                   lambda inst, eta, ledger: (Allocation((0.0, 0.4, 1.0)), 0.4),
                   "EW 0.40000000000000002 < optimum"),
    "nsw-floor": (TWO_UNIFORM, ["nsw", "--epsilon", "0.01"], None, welfare, "max_nash",
                  lambda inst, eps, ledger: (Allocation((0.0, 0.01, 1.0)), 0.0099),
                  "an agent's own value 0.01 < (1-eps)/(4n)"),
    "nsw-optimum": (TWO_UNIFORM, ["nsw", "--epsilon", "0.01"], None, welfare, "max_nash",
                    lambda inst, eps, ledger: (Allocation((0.0, 0.2, 1.0)), 0.4),
                    "NSW 0.4 < (1-eps) * grid optimum"),
    "plef": (TWO_UNIFORM, ["plef", "--eta", "1e-2"], None, plef, "pl_ef",
             lambda inst, eta, ledger: (Division((((0.0, 0.1), (0.9, 1.0)), ((0.1, 0.9),))),
                                        RecursionStats(node_count=1)),
             "max envy 0.6 > eta"),
    "reorder": (UNIF_QUAD, ["reorder"], [[[0.0, 0.5]], [[0.5, 1.0]]], welfare, "reorder_to_mlrp",
                lambda inst, pieces, ledger: [(0.0, 0.9), (0.9, 1.0)],
                "the value of agent 1 (rank 1) drops by 0.604"),
}


@pytest.mark.parametrize("case", sorted(AUDIT_FAILURES))
def test_failed_audit_logs_one_verdict_line(tmp_path, capsys, caplog, monkeypatch, case):
    instance, argv, division, module, name, stand_in, reason = AUDIT_FAILURES[case]
    monkeypatch.setattr(module, name, stand_in)
    argv = [*argv, write(tmp_path, "inst.json", instance)]
    if division is not None:
        argv += ["--division", write(tmp_path, "div.json", division)]
    code, _ = invoke(capsys, argv)
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 3
    assert len(errors) == 1
    assert errors[0].startswith(f"{argv[0]} audit failed: {reason}")


def test_invalid_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = run_process(["ef", str(bad)])
    assert proc.returncode == 2

    unknown = write(tmp_path, "unk.json", {"agents": [{"family": "cauchy"}]})
    proc = run_process(["ef", unknown])
    assert proc.returncode == 2


def test_ef_rejects_non_mlrp_instance(tmp_path, capsys):
    # mixed families whose likelihood ratios are not monotone: the promise is
    # violated, the audit catches it, and the CLI reports invalid input
    inst = {
        "agents": [{"family": "linear", "a": 1.0, "b": 0.5},
                   {"family": "gaussian_restricted", "mu": 0.7, "sigma": 0.3},
                   {"family": "linear", "a": 3.0, "b": 0.2}],
        "ordered": False,
    }
    path = write(tmp_path, "inst.json", inst)
    proc = run_process(["ef", path])
    assert proc.returncode == 2
    assert "MLRP promise" in proc.stderr


def test_queries_flag_prints_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    code = run(["ef", "--eta", "1e-6", "--queries", path])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("queries: eval=")


def test_parser_reuse_changes_no_output(tmp_path, capsys):
    # the parser is built once per process; every report and error must be what a fresh one gives
    inst = write(tmp_path, "inst.json", TWO_AGENTS)
    division = write(tmp_path, "div.json", {"pieces": [[[0.0, 0.4]], [[0.4, 1.0]]]})
    argvs = [["sw", "--eta", "1e-8", inst], ["mlrp-check", inst],
             ["check", "--division", division, inst], ["sw", "--json", inst]]

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        report = json.loads(out) if out else None
        if report:
            del report["wall_time_s"]
        return code, report, err

    first = []
    for argv in argvs:
        cli._parser.cache_clear()
        first.append(outcome(argv))
    for _ in range(2):
        assert [outcome(argv) for argv in argvs] == first
    assert [code for code, _, _ in first] == [0, 0, 0, 2]
    assert first[1][1]["verified"] == [True]
    assert first[-1][2].startswith("usage: fairslice [-h]")
    assert "unrecognized arguments: --json" in first[-1][2]


UNREAD_FLAGS = [
    ["nsw", "--eta", "1e-6"],
    ["ef", "--epsilon", "0.01"],
    ["mlrp-order", "--grid", "512"],
    ["perturb", "--queries"],
    ["ef", "--json"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=lambda argv: " ".join(argv[:2]))
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    path = write(tmp_path, "inst.json", TWO_UNIFORM)
    with pytest.raises(SystemExit) as exit_info:
        run([*argv, path])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


MALFORMED = [
    # (case, subcommand, instance file content, division file content or None)
    ("density missing a key", "ef", {"agents": [{"family": "linear", "a": 1}]}, None),
    ("density value not a number", "ef", {"agents": [{"family": "linear", "a": "nan", "b": 1}]}, None),
    ("density value not finite", "ef", {"agents": [{"family": "uniform", "scale": math.inf}]}, None),
    ("binomial exponent not integral", "ef",
     {"agents": [{"family": "binomial_poly", "a": 1, "b": 1, "s": 2.5, "t": 0}]}, None),
    ("segments not a list", "plef",
     {"agents": [{"family": "piecewise_linear", "breakpoints": [], "segments": 3}]}, None),
    ("agents not a list", "mlrp-order", {"agents": 5}, None),
    # only a JSON boolean marks the agents as ordered; the string "false" is not false
    ("ordered a string", "mlrp-check", {**TWO_AGENTS, "ordered": "false"}, None),
    ("ordered a number", "sw", {**TWO_AGENTS, "ordered": 1}, None),
    ("perturb without intervals", "perturb", {"eta": 0.1}, None),
    ("perturb interval without r", "perturb", {"intervals": [{"l": 0.0}]}, None),
    ("perturb eta not a number", "perturb", {"intervals": [{"l": 0.0, "r": 1.0}], "eta": "x"}, None),
    # a later repeat of a key would silently replace the earlier value
    ("instance agents repeated", "mlrp-order",
     '{"agents": [{"family": "uniform"}, {"family": "uniform"}], "agents": [{"family": "uniform"}]}',
     None),
    ("density field repeated", "mlrp-order",
     '{"agents": [{"family": "linear", "a": 1, "b": 1, "a": 3}, {"family": "uniform"}]}', None),
    ("perturb intervals repeated", "perturb",
     '{"intervals": [{"l": 0.0, "r": 0.6}], "intervals": [{"l": 0.0, "r": 0.6}, {"l": 0.3, "r": 1.0}]}',
     None),
    ("division not JSON", "check", TWO_UNIFORM, "{not json"),
    ("division agent out of range", "check", TWO_UNIFORM, {"pieces": {"7": [[0.0, 1.0]]}}),
    ("division agent negative", "check", TWO_UNIFORM, {"pieces": {"-1": [[0.0, 1.0]]}}),
    # "0" and "00" would both name agent 0, and the later would replace the earlier
    ("division agent key not canonical", "check", TWO_UNIFORM,
     {"pieces": {"0": [[0.0, 0.5]], "00": [[0.5, 1.0]], "1": [[0.0, 0.5]]}}),
    ("division agent key with a sign", "check", TWO_UNIFORM, {"pieces": {"+0": [[0.0, 0.5]]}}),
    ("division agent key repeated", "check", TWO_UNIFORM,
     '{"pieces": {"0": [[0.0, 0.5]], "0": [[0.5, 1.0]], "1": [[0.0, 0.5]]}}'),
    ("division piece not a pair", "check", TWO_UNIFORM, {"pieces": [[[0.0, 0.5, 1.0]], []]}),
    ("division too short", "check", TWO_UNIFORM, [[[0.0, 1.0]]]),
    ("reorder agent with no piece", "reorder", TWO_AGENTS, {"pieces": {"1": [[0.0, 1.0]]}}),
    ("reorder agent with two pieces", "reorder", TWO_AGENTS,
     {"pieces": {"0": [[0.0, 0.2], [0.6, 1.0]], "1": [[0.2, 0.6]]}}),
]


def test_malformed_input_exits_2_with_error_line(tmp_path, capsys, monkeypatch):
    for case, command, instance, division in MALFORMED:
        argv = [command, write(tmp_path, "inst.json", instance)]
        if division is not None:
            argv += ["--division", write(tmp_path, "div.json", division)]
        monkeypatch.setattr(sys, "argv", ["fairslice", *argv])
        with pytest.raises(SystemExit) as exit_info:
            main()
        err = capsys.readouterr().err
        assert exit_info.value.code == 2, case
        assert err.startswith("error: "), case
