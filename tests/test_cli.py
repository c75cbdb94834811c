"""End-to-end command-line runs: payload shape, exit codes, determinism."""

import json

import click
import numpy as np
import pytest

from hjparisi import QuadratureSpec, ising_measure, onebody, psi_grad
from hjparisi.cli import cli, main
from hjparisi.paths import path_new


def run_cli(args, capsys):
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def files(tmp_path):
    paths = {}
    specs = {
        "sk.json": {"D": 1, "terms": [{"family": "sk", "beta": 1.0}]},
        "sk03.json": {"D": 1, "terms": [{"family": "sk", "beta": 0.3}]},
        "bip.json": {"D": 2, "terms": [{"family": "bipartite", "beta": 1.0}]},
        "zero.json": {"zetas": [0.0], "values": [[[0.0]]]},
        "q2.json": {"zetas": [0.0, 0.5], "values": [[[0.1]], [[0.3]]]},
        "diag.json": {"zetas": [0.0], "values": [[[0.3, 0.0], [0.0, 0.02]]]},
    }
    for name, payload in specs.items():
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_psi_eval_zero_path(files, capsys):
    code, out, _ = run_cli(["psi", "eval", "--model", files["sk.json"],
                            "--path", files["zero.json"]], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["result"]["value"] == 0.0
    assert "-0.0" not in out
    assert payload["result"]["method"] == "quadrature"
    assert payload["config"]["model"] == files["sk.json"]


def test_psi_grad_payload(files, capsys):
    code, out, _ = run_cli(["psi", "grad", "--model", files["sk.json"],
                            "--path", files["q2.json"], "--nodes", "24"],
                           capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["method"] == "quadrature"
    assert result["error_estimate"] == 0.0
    grad = result["gradient"]
    assert grad["zetas"] == [0.0, 0.5]
    assert grad["values"][0][0][0] < grad["values"][1][0][0]


def test_psi_grad_budget_fallback(files, capsys):
    # a D=2, K=2 path at 32 nodes exceeds the quadrature budget; the
    # fallback options run psi_eval's sampled levels, as in psi eval
    fr = files["dir"] / "fr.json"
    fr.write_text(json.dumps({"D": 2, "terms": [{"family": "frobenius",
                                                 "beta": 1.0}]}))
    zetas = [0.0, 0.3, 0.6]
    values = [[[0.1, 0.0], [0.0, 0.08]], [[0.25, 0.05], [0.05, 0.3]],
              [[0.4, 0.05], [0.05, 0.45]]]
    q22 = files["dir"] / "q22.json"
    q22.write_text(json.dumps({"zetas": zetas, "values": values}))
    args = ["psi", "grad", "--model", str(fr), "--path", str(q22)]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "budget" in err
    code, out, _ = run_cli(args + ["--mc-samples", "50", "--mc-seed", "3"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mc_samples"] == 50
    assert payload["config"]["mc_seed"] == 3
    assert payload["result"]["method"] == "mc"
    assert payload["result"]["error_estimate"] > 0.0
    ref = psi_grad(ising_measure(2), path_new(zetas, values), QuadratureSpec(
        nodes_per_dim=32, mc_fallback={"samples": 50, "seed": 3}))
    np.testing.assert_allclose(payload["result"]["gradient"]["values"],
                               np.asarray(ref.values), rtol=0, atol=1e-12)


def test_crit_solve_zero_fixed_point(files, capsys):
    code, out, _ = run_cli(["crit", "solve", "--model", files["sk.json"],
                            "--path", files["zero.json"], "--t", "0.02"],
                           capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["converged"] is True
    assert abs(result["p"]["values"][0][0][0]) < 1e-7
    assert abs(result["j_value"]) < 1e-8
    history = result["residual_history"]
    assert len(history) == result["iterations"]
    assert history[-1] == result["residual_l2"]


def test_crit_solve_is_thread_invariant(files, capsys):
    args = ["crit", "solve", "--model", files["bip.json"], "--path",
            files["diag.json"], "--t", "0.5", "--nodes", "12"]
    code1, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    code2, out2, _ = run_cli(args + ["--threads", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["result"]["residual_history"]) > 1


@pytest.mark.parametrize("command", [["crit", "solve", "--t", "0.1"],
                                     ["crit", "sweep", "--t-grid", "0.1"]])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_crit_rejects_a_non_finite_tol(files, capsys, command, tol):
    argv = command + ["--model", files["sk.json"], "--path",
                      files["q2.json"], "--tol", tol]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "error: tol must be finite" in err


def test_crit_solve_nonconvergence_exit_code(files, capsys):
    code, out, err = run_cli(
        ["crit", "solve", "--model", files["sk.json"], "--path",
         files["q2.json"], "--t", "0.1", "--tol", "1e-15",
         "--max-iters", "2"], capsys)
    assert code == 2
    assert "non-convergence" in err
    # the payload is still emitted for inspection
    assert json.loads(out)["result"]["converged"] is False


def test_crit_solve_refine_splits_blocks(files, capsys):
    code, out, _ = run_cli(["crit", "solve", "--model", files["sk.json"],
                            "--path", files["zero.json"], "--t", "0.01",
                            "--refine", "1"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["p"]["zetas"] == [0.0, 0.5]


def test_crit_solve_rejects_a_negative_refine(files, capsys):
    code, out, err = run_cli(["crit", "solve", "--model", files["sk.json"],
                              "--path", files["zero.json"], "--t", "0.01",
                              "--refine", "-3"], capsys)
    assert code == 64
    assert out == ""
    assert "--refine" in err


@pytest.mark.parametrize("command", [
    ["finiteN", "fe", "--n", "2", "--samples", "20", "--t", "nan"],
    ["finiteN", "fe", "--n", "2", "--samples", "20", "--t", "0.1",
     "--that", "inf"],
    ["finiteN", "overlap", "--n", "2", "--samples", "20", "--t", "-0.1"],
    ["finiteN", "check", "--n", "2", "--samples", "20", "--t", "nan"],
    ["crit", "solve", "--t", "nan"],
    ["crit", "sweep", "--t-grid", "0.01,nan"],
    ["parisi", "sup", "--t", "nan"],
    ["parisi", "hopflax", "--t", "inf"],
])
def test_non_finite_or_negative_times_are_validation_errors(files, capsys,
                                                            command):
    argv = command + ["--model", files["sk.json"], "--path", files["q2.json"]]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "must be finite and nonnegative" in err
    name = "t_hat" if "--that" in command else "t"
    assert f"error: {name} must be" in err


@pytest.mark.parametrize("command", [
    ["psi", "eval"], ["psi", "grad"], ["crit", "solve", "--t", "0.1"],
    ["crit", "sweep", "--t-grid", "0.1,0.2"], ["parisi", "sup", "--t", "0.1"],
    ["parisi", "hopflax", "--t", "0.1"],
], ids=lambda c: " ".join(c[:2]))
def test_a_path_of_another_dimension_is_a_validation_error(files, capsys,
                                                           command):
    argv = command + ["--model", files["sk.json"],
                      "--path", files["diag.json"]]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "error: dimensions differ: the model has D=1, the path D=2" in err


def test_crit_sweep_csv(files, capsys):
    code, out, _ = run_cli(["crit", "sweep", "--model", files["sk.json"],
                            "--path", files["zero.json"],
                            "--t-grid", "0.005,0.01,0.02"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# hjparisi-csv schema_version=1 config=")
    config = json.loads(lines[0].split("config=", 1)[1])
    assert config["t_grid"] == [0.005, 0.01, 0.02]
    assert lines[1] == "t,j_value,residual_l2,iterations,converged,jump_from_prev"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [float(r[0]) for r in rows] == [0.005, 0.01, 0.02]
    assert all(r[4] == "True" for r in rows)
    assert rows[0][5] == "" and float(rows[1][5]) < 1e-6


def test_model_check_reports_convexity(files, capsys):
    code, out, _ = run_cli(["model", "check", "--model", files["sk.json"]],
                           capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["convex_on_psd"] is True
    assert res["grad_lipschitz"] == pytest.approx(2.0)
    assert res["t_critical"] == pytest.approx(1.0 / 32.0)

    code, out, _ = run_cli(["model", "check", "--model", files["bip.json"]],
                           capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["convex_on_psd"] is False
    assert res["convexity_witness"] is not None
    assert res["t_critical"] == pytest.approx(1.0 / 16.0)


def test_parisi_sup_with_partition(files, capsys):
    code, out, _ = run_cli(["parisi", "sup", "--model", files["sk.json"],
                            "--path", files["zero.json"], "--t", "0.5",
                            "--partition", "0.5"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["argmax"]["zetas"] == [0.0, 0.5]
    # value from tools/derive_expected.py for the single-block search; a
    # one-cut partition can only do better
    assert res["value"] >= 0.009961506493 - 1e-7


def test_parisi_sup_rejects_a_partition_outside_the_unit_interval(
        files, capsys):
    code, out, err = run_cli(["parisi", "sup", "--model", files["sk.json"],
                              "--path", files["zero.json"], "--t", "0.5",
                              "--partition", "0.5,1.5"], capsys)
    assert code == 1
    assert out == ""
    assert "(0, 1)" in err


@pytest.mark.parametrize("command, option", [
    (["crit", "sweep", "--model", "sk.json", "--path", "q2.json"],
     "--t-grid"),
    (["parisi", "sup", "--model", "sk.json", "--path", "q2.json",
      "--t", "0.5"], "--partition"),
    (["cascade", "diag"], "--zetas"),
])
def test_malformed_number_lists_are_usage_errors(files, capsys, command,
                                                 option):
    argv = [files.get(a, a) for a in command] + [option, "0.1,abc"]
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == ""
    assert option in err


def test_cascade_diag(files, capsys):
    code, out, _ = run_cli(["cascade", "diag", "--zetas", "0.3,0.6",
                            "--nmax", "16", "--draws", "2000",
                            "--gg-draws", "400", "--gg-functions",
                            "one,r12sq"], capsys)
    assert code == 0
    payload = json.loads(out)
    res = payload["result"]
    assert sum(res["level_freqs"]) == pytest.approx(1.0)
    assert set(res["gg"]) == {"one", "r12sq"}
    # 400 requested draws sample 20 groups of 2 cascades with 8 tuples each
    assert payload["config"]["gg_draws"] == 400
    assert all(entry["draws"] == 320 for entry in res["gg"].values())

    code, _, err = run_cli(["cascade", "diag", "--zetas", "0.5",
                            "--gg-functions", "nope"], capsys)
    assert code == 1
    assert "unknown gg function" in err


def test_finiten_fe_csv_and_thread_invariance(files, capsys):
    args = ["finiteN", "fe", "--model", files["sk.json"], "--path",
            files["q2.json"], "--t", "0.1", "--n", "3", "--samples", "200",
            "--nmax", "16", "--seed", "3"]
    code1, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    code4, out4, _ = run_cli(args + ["--threads", "4"], capsys)
    assert code1 == code4 == 0
    assert out1 == out4
    lines = out1.strip().splitlines()
    assert lines[1] == "estimate,stderr,n_samples,truncation_ratio"
    est, stderr, n, ratio = lines[2].split(",")
    assert float(stderr) > 0.0
    assert int(n) == 200
    assert float(ratio) > 0.0


def test_finiten_overlap_histogram(files, capsys):
    code, out, _ = run_cli(
        ["finiteN", "overlap", "--model", files["sk.json"], "--path",
         files["q2.json"], "--t", "0.1", "--n", "4", "--samples", "100",
         "--nmax", "8", "--histogram"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert sum(res["level_mass"]) == pytest.approx(1.0)
    assert "overlap_values" in res and "joint_mass" in res
    assert len(res["joint_mass"]) == len(res["level_mass"])
    assert res["truncation_ratio"] > 0.0


def test_finiten_check_passes(files, capsys):
    code, out, _ = run_cli(
        ["finiteN", "check", "--model", files["sk.json"], "--path",
         files["q2.json"], "--t", "0.1", "--n", "4", "--samples", "400",
         "--seed", "13"], capsys)
    assert code == 0
    payload = json.loads(out)
    res = payload["result"]
    assert res["all_passed"] is True
    assert res["initial"]["passed"] is True
    # every key of `result` but all_passed is an identity check, so the
    # truncation ratio goes in its own section
    assert set(res) == {"lipschitz", "dt_identity", "monotone", "initial",
                        "all_passed"}
    assert payload["diagnostics"]["truncation_ratio"] > 0.0


def test_finiten_check_uses_nmax_and_rejects_that(files, capsys):
    args = ["finiteN", "check", "--model", files["sk.json"], "--path",
            files["q2.json"], "--t", "0.1", "--n", "3", "--samples", "60",
            "--seed", "13"]
    outs = {}
    for nmax in ("4", "64"):
        code, out, _ = run_cli(args + ["--nmax", nmax], capsys)
        payload = json.loads(out)
        assert payload["config"]["nmax"] == int(nmax)
        outs[nmax] = payload["result"]
    # the truncation level changes the cascades, so the estimates move
    assert outs["4"]["lipschitz"]["lhs"] != outs["64"]["lipschitz"]["lhs"]

    code, out, err = run_cli(args + ["--that", "0.1"], capsys)
    assert code == 1
    assert "--that" in err
    assert out == ""


def test_out_flag_mirrors_stdout(files, capsys):
    target = files["dir"] / "payload.json"
    code, out, _ = run_cli(["psi", "eval", "--model", files["sk.json"],
                            "--path", files["q2.json"], "--out",
                            str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


def test_an_unwritable_out_stops_before_any_work(files, capsys,
                                                monkeypatch):
    calls = []
    work = onebody._psi_pass

    def recorded(*args, **kwargs):
        calls.append(args)
        return work(*args, **kwargs)

    monkeypatch.setattr(onebody, "_psi_pass", recorded)
    args = ["psi", "eval", "--model", files["sk.json"], "--path",
            files["q2.json"], "--out"]
    code, _, _ = run_cli(args + [str(files["dir"] / "x.json")], capsys)
    assert code == 0 and len(calls) == 1
    for target in (files["dir"] / "missing" / "x.json", files["dir"]):
        code, out, err = run_cli(args + [str(target)], capsys)
        assert code == 64
        assert out == ""
        assert "Invalid value for '--out'" in err
        assert "Traceback" not in err
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["cascade diag", "psi eval"])
def test_non_finite_inputs_are_validation_errors(files, capsys, case):
    nan_path = files["dir"] / "nan.json"
    nan_path.write_text('{"zetas": [0.0, NaN], "values": [[[0.1]], [[0.3]]]}')
    argv = {"cascade diag": ["cascade", "diag", "--zetas", "nan"],
            "psi eval": ["psi", "eval", "--model", files["sk.json"],
                         "--path", str(nan_path)]}[case]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_error_exit_codes(files, capsys):
    code, _, err = run_cli(["psi", "eval", "--model", "/does/not/exist.json",
                            "--path", files["zero.json"]], capsys)
    assert code == 1
    assert "error:" in err

    bad = files["dir"] / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["psi", "eval", "--model", str(bad),
                            "--path", files["zero.json"]], capsys)
    assert code == 1

    code, _, _ = run_cli(["psi", "eval", "--bogus-flag", "x"], capsys)
    assert code == 64

    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 64


# one cheap run per command: (argv, the options its `config` must echo,
# defaults included); --threads and --out never appear in `config`
CONFIG_CASES = {
    "model check": (
        ["--model", "sk.json", "--samples", "20"],
        {"model": "sk.json", "samples": 20, "seed": 0}),
    "psi eval": (
        ["--model", "sk.json", "--path", "zero.json"],
        {"model": "sk.json", "path": "zero.json", "nodes": 32,
         "mc_samples": None, "mc_seed": 0}),
    "psi grad": (
        ["--model", "sk.json", "--path", "q2.json", "--nodes", "8",
         "--mc-samples", "50", "--mc-seed", "2", "--threads", "2"],
        {"model": "sk.json", "path": "q2.json", "nodes": 8,
         "mc_samples": 50, "mc_seed": 2}),
    "crit solve": (
        ["--model", "sk.json", "--path", "zero.json", "--t", "0.02",
         "--nodes", "8"],
        {"model": "sk.json", "path": "zero.json", "t": 0.02, "that": 0.0,
         "tol": 1e-8, "damping": 0.5, "max_iters": 500, "refine": 0,
         "nodes": 8}),
    "crit sweep": (
        ["--model", "sk.json", "--path", "zero.json", "--t-grid",
         "0.01,0.02", "--nodes", "8", "--damping", "0.7"],
        {"model": "sk.json", "path": "zero.json", "t_grid": [0.01, 0.02],
         "that": 0.0, "tol": 1e-8, "damping": 0.7, "max_iters": 500,
         "nodes": 8}),
    "parisi sup": (
        ["--model", "sk.json", "--path", "zero.json", "--t", "0.5",
         "--nodes", "8"],
        {"model": "sk.json", "path": "zero.json", "t": 0.5,
         "partition": None, "nodes": 8}),
    "parisi hopflax": (
        ["--model", "sk.json", "--path", "zero.json", "--t", "0.5",
         "--nodes", "8"],
        {"model": "sk.json", "path": "zero.json", "t": 0.5, "nodes": 8}),
    "parisi std": (
        ["--model", "sk03.json"],
        {"model": "sk03.json", "nodes": 16}),
    "cascade diag": (
        ["--zetas", "0.5", "--nmax", "8", "--draws", "100", "--gg-draws",
         "40"],
        {"zetas": [0.5], "nmax": 8, "draws": 100, "gg_draws": 40, "gg_n": 3,
         "gg_functions": "one,r12", "seed": 0}),
    "finiteN fe": (
        ["--model", "sk.json", "--path", "q2.json", "--t", "0.1", "--n", "2",
         "--samples", "10", "--nmax", "4"],
        {"model": "sk.json", "path": "q2.json", "t": 0.1, "that": 0.0,
         "N": 2, "samples": 10, "nmax": 4, "seed": 0}),
    "finiteN overlap": (
        ["--model", "sk.json", "--path", "q2.json", "--t", "0.1", "--n", "2",
         "--samples", "10", "--nmax", "4", "--seed", "5"],
        {"model": "sk.json", "path": "q2.json", "t": 0.1, "that": 0.0,
         "N": 2, "samples": 10, "nmax": 4, "seed": 5, "histogram": False}),
    "finiteN check": (
        ["--model", "sk.json", "--path", "q2.json", "--t", "0.1", "--n", "2",
         "--samples", "20", "--nmax", "4"],
        {"model": "sk.json", "path": "q2.json", "t": 0.1, "that": 0.0,
         "N": 2, "samples": 20, "nmax": 4, "seed": 0}),
}


def _leaf_commands(group, prefix=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, prefix + (name,))
        else:
            yield " ".join(prefix + (name,)), command


def test_every_command_echoes_exactly_its_options(files, capsys):
    commands = dict(_leaf_commands(cli))
    # a command added without a case here fails this test
    assert set(commands) == set(CONFIG_CASES)
    for name, (argv, expected) in CONFIG_CASES.items():
        out_file = files["dir"] / "out.txt"
        code, out, _ = run_cli(name.split() + [files.get(a, a) for a in argv]
                               + ["--out", str(out_file)], capsys)
        assert code in (0, 1) and out, name   # finiteN check may exit 1
        if out.startswith("# hjparisi-csv"):
            config = json.loads(out.splitlines()[0].split("config=", 1)[1])
        else:
            config = json.loads(out)["config"]
        expected = {k: files.get(v, v) if isinstance(v, str) else v
                    for k, v in expected.items()}
        assert config == expected, name
        assert set(config) == {p.name for p in commands[name].params} - {
            "threads", "out"}, name


SEEDED = [
    ["model", "check", "--model", "sk.json"],
    ["psi", "eval", "--model", "sk.json", "--path", "q2.json",
     "--mc-samples", "50"],
    ["psi", "grad", "--model", "sk.json", "--path", "q2.json",
     "--mc-samples", "50"],
    ["cascade", "diag", "--zetas", "0.3"],
    ["finiteN", "fe", "--model", "sk.json", "--path", "q2.json", "--t", "0.1",
     "--n", "2"],
    ["finiteN", "overlap", "--model", "sk.json", "--path", "q2.json", "--t",
     "0.1", "--n", "2"],
    ["finiteN", "check", "--model", "sk.json", "--path", "q2.json", "--t",
     "0.1", "--n", "2"],
]


@pytest.mark.parametrize("command", SEEDED, ids=lambda c: " ".join(c[:2]))
def test_negative_seeds_are_usage_errors(files, capsys, command):
    option = "--mc-seed" if command[0] == "psi" else "--seed"
    argv = [files.get(a, a) for a in command] + [option, "-1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == ""
    assert option in err


@pytest.mark.parametrize("nmax", ["-2", "0", "1"])
def test_finiten_rejects_a_truncation_it_cannot_run(files, capsys, nmax):
    code, out, err = run_cli(
        ["finiteN", "fe", "--model", files["sk.json"], "--path",
         files["q2.json"], "--t", "0.1", "--n", "2", "--samples", "10",
         "--nmax", nmax], capsys)
    assert code == 1
    assert out == ""
    assert "error: n_max must be at least 2" in err


def test_psi_rejects_fewer_than_eight_mc_samples(files, capsys):
    args = ["psi", "eval", "--model", files["sk.json"], "--path",
            files["q2.json"], "--mc-samples"]
    code, out, err = run_cli(args + ["3"], capsys)
    assert code == 1
    assert out == ""
    assert "error: mc_fallback samples must be >= 8, got 3" in err
    code, out, _ = run_cli(args + ["8"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["mc_samples"] == 8


BAD_MODELS = {
    "D NaN": {"D": float("nan"), "terms": [{"family": "sk"}]},
    "p NaN": {"D": 1, "terms": [{"p": float("nan"), "C": [[1.0]]}]},
    "beta text": {"D": 1, "terms": [{"family": "sk", "beta": "x"}]},
    "term without C": {"D": 1, "terms": [{"p": 2}]},
    "atoms without weights": {"D": 1, "terms": [{"family": "sk"}],
                              "P1": {"atoms": [[1.0], [-1.0]]}},
    "terms not a list": {"D": 1, "terms": 5},
}


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_bad_model_specs_are_validation_errors(tmp_path, capsys, name):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(BAD_MODELS[name]))
    code, out, err = run_cli(["model", "check", "--model", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
