import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from gridcert import certify, cli, gridmodel
from gridcert.data import three_bus_path

UNSTABLE_DOC = {
    "base_frequency_hz": 60,
    "generators": [
        {"bus": 1, "M": 8.0, "D": 1.0, "T_T": 0.9, "control": [-0.5, -1.0, -1.5]},
        {"bus": 2, "M": 8.0, "D": 1.0, "T_T": 1.0, "control": [-0.5, -1.0, -1.5]},
    ],
    "lines": [{"from": 1, "to": 2, "X": 0.01}],
    "disturbances": [{"bus": 1, "delta_PL": 0.1, "t_step": 0.1}],
}


def three_bus_doc():
    with open(three_bus_path(), encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SIM_ARTIFACTS = ["sim_summary.json", "sim.csv"]
KRYLOV_OVERFLOW = "controllability matrix overflows: A_hat or B is too large"


def count_eigvals(monkeypatch):
    """The shapes of every ``np.linalg.eigvals`` argument from now on."""
    eigvals = np.linalg.eigvals
    orders = []

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a))
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return orders


def assert_same_files(want_dir, got_dir, names):
    for name in names:
        assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), name


def _edited(change, block="full_system"):
    """A damage of ``assess.json`` that replaces its block ``block`` (by
    default ``full_system``, ``fs`` below) by ``change(block)``."""
    def damage(text):
        doc = json.loads(text)
        doc[block] = change(doc[block])
        return json.dumps(doc)
    return damage


# ways an assess.json in --out can fail to hold the spectrum of simulate's loop
SPECTRUM_DAMAGE = {
    "not-json": lambda text: text[:len(text) // 2],
    "full-system-a-list": _edited(lambda fs: [fs]),
    "too-few-eigenvalues": _edited(lambda fs: {**fs, "eigenvalues": fs["eigenvalues"][1:]}),
    "nan-eigenvalue": _edited(
        lambda fs: {**fs, "eigenvalues": [[math.nan, 0.0], *fs["eigenvalues"][1:]]}),
    "string-eigenvalue": _edited(
        lambda fs: {**fs, "eigenvalues": [["-1.0", "0.0"], *fs["eigenvalues"][1:]]}),
    "hash-missing": _edited(lambda fs: {k: v for k, v in fs.items() if k != "matrix_sha256"}),
    "hash-different": _edited(lambda fs: {**fs, "matrix_sha256": "0" * 64}),
    # written by another release, whose spectrum need not have these bits
    "another-toolkit-version": _edited(lambda m: {**m, "toolkit_version": "0.0.0"}, "manifest"),
    "manifest-a-string": _edited(lambda m: "manifest", "manifest"),
}


@pytest.fixture
def unstable_grid(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(UNSTABLE_DOC))
    return str(path)


class TestAssess:
    def test_local_only_inconclusive(self, capsys, tmp_path):
        code, out, _ = run(capsys, "assess", three_bus_path(),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        agents = doc["variants"]["transformed"]["agents"]
        assert [a["met"] for a in agents] == [False, False, False]

    def test_global_stable(self, capsys, tmp_path):
        code, out, _ = run(capsys, "assess", three_bus_path(), "--global",
                           "--out", str(tmp_path / "o"))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "stable"
        assert doc["full_system"]["hurwitz"] is True
        assert doc["full_system"]["max_real_part"] < 0.0
        assert len(doc["full_system"]["eigenvalues"]) == 9

    def test_single_bus_stable(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "base_frequency_hz": 60,
            "generators": [{"bus": 1, "M": 5.0, "D": 1.0, "T_T": 0.8,
                            "control": [-3, -4, -5]}],
        }))
        code, out, _ = run(capsys, "assess", str(path), "--out", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(out)["verdict"] == "stable"

    def test_manifest_digest_and_options(self, capsys, tmp_path):
        code, out, _ = run(capsys, "assess", three_bus_path(),
                           "--out", str(tmp_path / "o"))
        manifest = json.loads(out)["manifest"]
        with open(three_bus_path(), "rb") as fh:
            assert manifest["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()
        assert manifest["command"] == "assess"
        assert set(manifest["options"]) == {"global", "variant", "poles_scale", "poles"}
        assert (tmp_path / "o" / "assess.json").exists()

    @pytest.mark.parametrize("argv,options", [
        (["protocol", "--max-retries", "2"],
         {"global": True, "max_retries": 2, "trace_full": False}),
        (["simulate", "--t-end", "0.5", "--no-global"],
         {"global": False, "poles_scale": 1.0, "dt": 1e-3,
          "t_end": 0.5, "step_pu": None, "force": False}),
    ])
    def test_manifest_options_are_parsed_options(self, capsys, tmp_path, argv, options):
        _, out, _ = run(capsys, argv[0], three_bus_path(), *argv[1:],
                        "--out", str(tmp_path / "o"))
        got = json.loads(out)["manifest"]["options"]
        assert got.pop("poles") == {
            str(g["bus"]): [[float(p), 0.0] for p in g["control"]]
            for g in three_bus_doc()["generators"]}
        if argv[0] == "simulate":
            assert got.pop("disturbances") == three_bus_doc()["disturbances"]
        assert got == options

    def test_variant_both_union(self, capsys, tmp_path, monkeypatch):
        # every --variant designs once; both's blocks are those of the single runs
        calls = []
        design = certify.design_agents
        monkeypatch.setattr(certify, "design_agents",
                            lambda *args: calls.append(1) or design(*args))
        docs, codes = {}, {}
        for variant in ("both", "original", "transformed"):
            calls.clear()
            codes[variant], out, _ = run(capsys, "assess", three_bus_path(), "--global",
                                         "--variant", variant, "--out", str(tmp_path / variant))
            assert len(calls) == 1
            docs[variant] = json.loads(out)
        doc = docs["both"]
        assert set(doc["variants"]) == {"original", "transformed"}
        assert doc["variants"]["transformed"]["verdict"] == "stable"
        assert codes == {"both": 0, "original": 2, "transformed": 0}   # either suffices
        for variant in ("original", "transformed"):
            single = docs[variant]
            assert doc["variants"][variant] == single["variants"][variant]
            assert (doc["gains"], doc["full_system"]) == (single["gains"], single["full_system"])

    def test_poles_scale_changes_diagonal(self, capsys, tmp_path):
        _, out, _ = run(capsys, "assess", three_bus_path(), "--poles-scale", "1.5",
                        "--out", str(tmp_path / "o"))
        agents = json.loads(out)["variants"]["transformed"]["agents"]
        assert agents[0]["diagonal"] == pytest.approx(33.0)

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_poles_scale_rejected(self, capsys, tmp_path, scale):
        code, out, err = run(capsys, "assess", three_bus_path(), "--poles-scale", scale,
                             "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert err == f"error: poles_scale must be finite and > 0, got {float(scale)}\n"

    def test_design_failure_names_agent(self, capsys, tmp_path):
        code, _, err = run(capsys, "assess", three_bus_path(), "--poles-scale", "1e6",
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: agent 1: eigenvector matrix condition number ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["1e103", "1e200"])
    def test_pole_overflow_names_agent(self, capsys, tmp_path, scale):
        # warnings are errors under pytest, so a numpy overflow warning fails here
        code, out, err = run(capsys, "assess", three_bus_path(), "--poles-scale", scale,
                             "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert err == ("error: agent 1: desired characteristic polynomial "
                       "overflows at these poles\n")


    @pytest.mark.parametrize("scale", ["3e-6", "1e-7", "1e-8", "1e-9", "1e-10", "1e-20",
                                       "1e-50", "1e-100", "1e-200", "5e-324"])
    def test_unresolvable_poles_named(self, capsys, tmp_path, scale):
        # every requested pole is stable, but the placed loop cannot resolve
        # poles this small against A_hat: the error says so, naming the pole
        code, out, err = run(capsys, "assess", three_bus_path(), "--poles-scale", scale,
                             "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        pole = f"{-22.0 * float(scale):.6g}"
        assert err.startswith(f"error: agent 1: pole {pole} cannot be placed: it is not "
                              "resolved against ||A_hat|| = 217.231 (the placed loop misses it by ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["1e-3", "1e-5", "5e-6"])
    def test_small_resolvable_poles_still_assessed(self, capsys, tmp_path, scale):
        code, _, _ = run(capsys, "assess", three_bus_path(), "--poles-scale", scale,
                         "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize("scale, warned", [("1", False), ("1e-5", True)])
    def test_misplaced_pole_warned(self, capsys, tmp_path, scale, warned):
        # at 1e-5 the placed loop stays stable and well-conditioned, but its
        # poles sit about 12% off the request: one warning line, same exit code
        code, out, err = run(capsys, "assess", three_bus_path(), "--poles-scale", scale,
                             "--out", str(tmp_path / "o"))
        assert code == 2 and json.loads(out)["verdict"] == "inconclusive"
        if not warned:
            assert err == ""
            return
        assert err.count("\n") == 1
        assert re.fullmatch(r"warning: agent [123]: pole -\S+ placed at -\S+ \(3 of 3 buses "
                            r"miss a requested pole by more than 1%\)\n", err), err

    def test_misplaced_pole_tie_names_the_upper_pair_member(self, capsys, tmp_path):
        # the real pole -0.00011 is equally near both members of a placed
        # conjugate pair: the warning names the +iw member, which comes first
        code, _, err = run(capsys, "assess", three_bus_path(), "--poles-scale", "5e-6",
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == ("warning: agent 1: pole -0.00011 placed at -0.000125505+6.12709e-05j "
                       "(3 of 3 buses miss a requested pole by more than 1%)\n")

    @pytest.mark.parametrize("argv", [["assess", "--global", "--variant", "both"],
                                      ["simulate", "--t-end", "0.1"]])
    def test_closed_loop_assembled_once(self, capsys, tmp_path, monkeypatch, argv):
        calls = []
        assemble = gridmodel.assemble_full
        monkeypatch.setattr(gridmodel, "assemble_full",
                            lambda *args: calls.append(1) or assemble(*args))
        code, _, _ = run(capsys, argv[0], three_bus_path(), *argv[1:],
                         "--out", str(tmp_path / "o"))
        assert code == 0
        assert len(calls) == 1


class TestProtocol:
    def test_stable_run(self, capsys, tmp_path):
        code, out, _ = run(capsys, "protocol", three_bus_path(),
                           "--out", str(tmp_path / "o"))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "stable"
        with open(tmp_path / "o" / "trace.jsonl") as fh:
            lines = [json.loads(ln) for ln in fh.read().splitlines()]
        assert len(lines) == doc["messages"]
        assert lines[-1]["kind"] == "OperatorVerdict"

    @pytest.mark.parametrize("argv", [[], ["--no-global", "--max-retries", "10"],
                                      ["--trace-full"]])
    def test_per_round_counts_the_trace(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, "protocol", three_bus_path(), *argv,
                           "--out", str(tmp_path / "o"))
        assert code == (2 if "--no-global" in argv else 0)
        doc = json.loads(out)
        with open(tmp_path / "o" / "trace.jsonl") as fh:
            lines = [json.loads(ln) for ln in fh.read().splitlines()]
        counts = {}
        for m in lines:
            kinds = counts.setdefault(m["round"], {})
            kinds[m["kind"]] = kinds.get(m["kind"], 0) + 1
        assert doc["per_round"] == [{"round": r, "messages": counts[r]} for r in sorted(counts)]
        assert sum(sum(e["messages"].values()) for e in doc["per_round"]) == doc["messages"]

    def test_no_options_inconclusive(self, capsys, tmp_path):
        code, _, _ = run(capsys, "protocol", three_bus_path(),
                         "--max-retries", "0", "--no-global",
                         "--out", str(tmp_path / "o"))
        assert code == 2

    def test_isolated_bus_zero_shares(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "base_frequency_hz": 60,
            "generators": [{"bus": 1, "M": 5.0, "D": 1.0, "T_T": 0.8,
                            "control": [-3, -4, -5]}],
        }))
        code, _, _ = run(capsys, "protocol", str(path), "--out", str(tmp_path / "o"))
        assert code == 0
        with open(tmp_path / "o" / "trace.jsonl") as fh:
            kinds = [json.loads(ln)["kind"] for ln in fh.read().splitlines()]
        assert kinds == ["ConditionStatus", "OperatorVerdict"]


    @pytest.mark.parametrize("retries", [0, 10, 40])
    @pytest.mark.parametrize("flag", ["--global", "--no-global"])
    def test_rounds_follow_retry_budget(self, capsys, tmp_path, flag, retries):
        # each retry costs a design round and an evaluation round on three-bus
        code, out, err = run(capsys, "protocol", three_bus_path(), flag,
                             "--max-retries", str(retries),
                             "--out", str(tmp_path / "o"))
        assert code == (0 if flag == "--global" else 2), err
        assert json.loads(out)["rounds"] == 2 * retries + 4

    def test_negative_retries_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "protocol", three_bus_path(),
                           "--max-retries", "-1", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "max_retries" in err

    def test_design_failure_names_agent(self, capsys, tmp_path):
        # poles scaled by 1.15 per retry end up with an ill-conditioned modal form
        code, _, err = run(capsys, "protocol", three_bus_path(), "--no-global",
                           "--max-retries", "200", "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: agent 3: eigenvector matrix condition number ")
        assert err.count("\n") == 1


class TestSimulate:
    def test_summary_and_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", three_bus_path(),
                           "--out", str(tmp_path / "o"))
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_omega_end"] < 1e-6
        assert doc["steady_state"]["power_balance_residual"] < 1e-6
        with open(tmp_path / "o" / "sim.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 10001
        assert set(rows[0]) == {"t", "bus", "delta_rad", "omega_rad_s",
                                "Pm_pu", "ul_pu", "ug_pu", "d_pu"}

    def test_zero_disturbance_all_zero_columns(self, capsys, tmp_path):
        path = tmp_path / "quiet.json"
        doc = three_bus_doc()
        doc["disturbances"] = []
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "simulate", str(path), "--t-end", "0.5",
                         "--out", str(tmp_path / "o"))
        assert code == 0
        with open(tmp_path / "o" / "sim.csv") as fh:
            for row in csv.DictReader(fh):
                for col in ("delta_rad", "omega_rad_s", "Pm_pu", "ul_pu", "ug_pu", "d_pu"):
                    assert float(row[col]) == 0.0

    def test_doubled_step_linearity(self, capsys, tmp_path):
        _, out1, _ = run(capsys, "simulate", three_bus_path(), "--t-end", "5",
                         "--out", str(tmp_path / "a"))
        _, out2, _ = run(capsys, "simulate", three_bus_path(), "--t-end", "5",
                         "--step-pu", "0.2", "--out", str(tmp_path / "b"))
        pm1 = json.loads(out1)["steady_state"]["pm_sum"]
        pm2 = json.loads(out2)["steady_state"]["pm_sum"]
        assert pm2 / pm1 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_nonfinite_step_rejected(self, capsys, tmp_path, step):
        code, _, err = run(capsys, "simulate", three_bus_path(), "--step-pu", step,
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: --step-pu must be finite, got {step}\n"
        assert not (tmp_path / "o").exists()

    def test_overflowing_step_fails_without_artifacts(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", three_bus_path(), "--step-pu", "1e308",
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == "error: non-finite control input at t=0.501 s\n"
        assert not (tmp_path / "o").exists()

    def test_nonfinite_summary_value_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.sim, "settling_time", lambda result: float("nan"))
        code, out, err = run(capsys, "simulate", three_bus_path(), "--t-end", "0.5",
                             "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: sim_summary.json: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o" / "sim_summary.json").exists()

    def test_unstable_requires_force(self, capsys, tmp_path, unstable_grid):
        code, _, err = run(capsys, "simulate", unstable_grid, "--no-global",
                           "--t-end", "0.2", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "not Hurwitz" in err
        code, out, err = run(capsys, "simulate", unstable_grid, "--no-global",
                             "--t-end", "0.2", "--force", "--out", str(tmp_path / "o2"))
        assert code == 0
        assert err == "warning: assembled closed loop is not Hurwitz\n"

    def test_diverged_exit_code(self, capsys, tmp_path, unstable_grid):
        code, _, err = run(capsys, "simulate", unstable_grid, "--no-global",
                           "--t-end", "12", "--force", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "non-finite" in err

    def test_unstable_dt_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", three_bus_path(), "--dt", "0.3",
                             "--t-end", "3", "--out", str(tmp_path / "o"))
        assert code == 1
        assert out == ""
        assert err == ("error: dt=0.3 s is outside the RK4 stability region of this "
                       "system: the one-step propagator has spectral radius 1386 > 1; "
                       "dt=0.001 s passes\n")
        assert not (tmp_path / "o" / "sim.csv").exists()

    def test_overflowing_rk4_radius_fails_the_step_check(self, tmp_path):
        # dt * lambda overflows: the radius reads inf, and the check names a
        # step; in a child process, so a numpy warning under the default
        # filters would show on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "gridcert", "simulate", three_bus_path(), "--t-end", "1e307",
             "--dt", "1e306", "--out", str(tmp_path / "o")],
            env=child_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: dt=1e+306 s is outside the RK4 stability region of this system: "
            "the one-step propagator has spectral radius inf > 1; dt=0.05562684646268004 s "
            "passes but needs 1.798e+308 samples, more than can be allocated\n")
        assert not (tmp_path / "o" / "sim.csv").exists()

    def test_failing_default_step_is_halved(self, capsys, tmp_path):
        doc = three_bus_doc()
        for gen in doc["generators"]:
            gen["control"] = [-1000, -2000, -6000]   # RK4 limit near 2.79 / 6000 = 4.6e-4 s
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(path), "--t-end", "0.1",
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err.startswith("error: dt=0.001 s is outside the RK4 stability region")
        assert err.endswith("; dt=0.00025 s passes\n")
        code, _, err = run(capsys, "simulate", str(path), "--t-end", "0.1", "--dt", "0.00025",
                           "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert (tmp_path / "o" / "sim.csv").exists()

    def test_one_spectrum_per_simulate(self, capsys, tmp_path, monkeypatch):
        # (what ran in --out before, simulate's options, spectra simulate computes)
        for case, (before, argv, spectra) in enumerate([
            (None, [], 1),
            (["--global"], [], 0),
            ([], [], 1),                             # local gains alone: another loop
            (["--global"], ["--poles-scale", "1.1"], 1),
        ]):
            sim_argv = ["simulate", three_bus_path(), "--t-end", "0.5", *argv]
            fresh, out_dir = tmp_path / f"fresh{case}", tmp_path / f"o{case}"
            want = run(capsys, *sim_argv, "--out", str(fresh))
            if before is not None:
                run(capsys, "assess", three_bus_path(), *before, "--out", str(out_dir))
            orders = count_eigvals(monkeypatch)
            assert run(capsys, *sim_argv, "--out", str(out_dir)) == want, case
            assert want[0] == 0
            assert orders.count((9, 9)) == spectra, case
            assert_same_files(fresh, out_dir, SIM_ARTIFACTS)
            monkeypatch.undo()

    @pytest.mark.parametrize("damage", SPECTRUM_DAMAGE.values(), ids=SPECTRUM_DAMAGE.keys())
    def test_damaged_spectrum_is_computed_again(self, capsys, tmp_path, monkeypatch, damage):
        sim_argv = ["simulate", three_bus_path(), "--t-end", "0.5"]
        run(capsys, *sim_argv, "--out", str(tmp_path / "fresh"))
        out_dir = tmp_path / "o"
        run(capsys, "assess", three_bus_path(), "--global", "--out", str(out_dir))
        path = out_dir / "assess.json"
        path.write_text(damage(path.read_text()))
        orders = count_eigvals(monkeypatch)
        code, _, err = run(capsys, *sim_argv, "--out", str(out_dir))
        assert (code, err) == (0, "")
        assert orders.count((9, 9)) == 1
        assert_same_files(tmp_path / "fresh", out_dir, SIM_ARTIFACTS)

    def test_stored_spectrum_round_trips_signed_zeros_and_ties(self, tmp_path):
        # exact ties, and real eigenvalues whose zero imaginary part has either sign
        lam = np.array([complex(-2.0, 0.0), complex(-1.0, -0.0), complex(-2.0, -0.0),
                        complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-3.0, 1.5),
                        complex(-3.0, -1.5), complex(-3.0, 1.5)])
        assert (np.signbit(lam.imag) & (lam.imag == 0.0)).sum() == 3
        doc = {"manifest": {"toolkit_version": cli.__version__},
               "full_system": cli._eig_doc(lam, "key")}
        path = tmp_path / "assess.json"
        path.write_text(json.dumps(doc))
        got = cli._stored_spectrum(str(path), "key", lam.size)
        assert json.dumps(cli._eig_doc(got, "key")) == json.dumps(doc["full_system"])
        # a spectrum built as re + 1j*im loses the -0.0 parts, so the check can fail
        pairs = np.array(doc["full_system"]["eigenvalues"])
        summed = pairs[:, 0] + 1j * pairs[:, 1]
        assert json.dumps(cli._eig_doc(summed, "key")) != json.dumps(doc["full_system"])
        assert cli._stored_spectrum(str(path), "other", lam.size) is None
        assert cli._stored_spectrum(str(path), "key", lam.size + 1) is None

    def test_assess_reuses_the_simulate_spectrum(self, capsys, tmp_path, monkeypatch):
        assess_argv = ["assess", three_bus_path(), "--global", "--variant", "both"]
        want = run(capsys, *assess_argv, "--out", str(tmp_path / "fresh"))
        out_dir = tmp_path / "o"
        run(capsys, "simulate", three_bus_path(), "--t-end", "0.5", "--out", str(out_dir))
        orders = count_eigvals(monkeypatch)
        assert run(capsys, *assess_argv, "--out", str(out_dir)) == want
        assert orders.count((9, 9)) == 0
        assert_same_files(tmp_path / "fresh", out_dir, ["assess.json"])

    def test_unstable_dt_message_through_the_reused_spectrum(self, capsys, tmp_path,
                                                             monkeypatch):
        sim_argv = ["simulate", three_bus_path(), "--dt", "0.3", "--t-end", "3"]
        want = run(capsys, *sim_argv, "--out", str(tmp_path / "fresh"))
        out_dir = tmp_path / "o"
        run(capsys, "assess", three_bus_path(), "--global", "--out", str(out_dir))
        orders = count_eigvals(monkeypatch)
        assert run(capsys, *sim_argv, "--out", str(out_dir)) == want
        assert orders.count((9, 9)) == 0
        assert "dt=0.001 s passes" in want[2]
        assert not (out_dir / "sim.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--dt", "0.04", "--t-end", "0.1"],
         "t_end=0.1 s is 2.5 steps of dt=0.04 s, not a whole number: use t_end=0.08 or 0.12"),
        (["--dt", "0.04", "--t-end", "0.14"],
         "t_end=0.14 s is 3.5000000000000004 steps of dt=0.04 s, not a whole number: "
         "use t_end=0.12 or 0.16"),
        (["--dt", "1e-3", "--t-end", "0.0025"],
         "t_end=0.0025 s is 2.5 steps of dt=0.001 s, not a whole number: "
         "use t_end=0.002 or 0.003"),
    ], ids=["ends-early", "runs-over", "below-the-step"])
    def test_horizon_of_a_fraction_of_a_step_rejected(self, capsys, tmp_path, monkeypatch,
                                                      argv, message):
        # rejected before the design and the spectrum: nothing is computed
        monkeypatch.setattr(cli.certify, "assess_grid", None)
        code, out, err = run(capsys, "simulate", three_bus_path(), *argv,
                             "--out", str(tmp_path / "o"))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_infinite_horizon_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", three_bus_path(), "--t-end", "inf",
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == "error: need 0 < dt <= t_end < inf, got dt=0.001, t_end=inf\n"

    @pytest.mark.parametrize("argv,message", [
        # each history would need far more memory than exists: the first
        # allocation fails at once, before anything is written
        (["--t-end", "1e9"], "t_end=1e+09 s at dt=0.001 s needs 1e+12 samples"),
        (["--dt", "1e-300"], "t_end=10 s at dt=1e-300 s needs 1e+301 samples"),
        (["--dt", "5e-324"], "t_end=10 s at dt=4.94066e-324 s needs inf samples"),
    ])
    def test_horizon_too_long_to_allocate_rejected(self, capsys, tmp_path, monkeypatch,
                                                  argv, message):
        # rejected before the design and the spectrum: nothing is computed
        monkeypatch.setattr(cli.certify, "assess_grid", None)
        orders = count_eigvals(monkeypatch)
        code, out, err = run(capsys, "simulate", three_bus_path(), *argv,
                             "--out", str(tmp_path / "o"))
        assert orders == []
        assert code == 1 and out == ""
        assert err == f"error: {message}, more than can be allocated\n"
        assert not (tmp_path / "o" / "sim.csv").exists()


class TestReport:
    def test_renders_all_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "o")
        run(capsys, "assess", three_bus_path(), "--global", "--out", out_dir)
        run(capsys, "protocol", three_bus_path(), "--out", out_dir)
        run(capsys, "simulate", three_bus_path(), "--t-end", "3", "--out", out_dir)
        code, out, _ = run(capsys, "report", "--out", out_dir)
        assert code == 0
        assert "## Certification" in out
        assert "## Closed-loop eigenvalues" in out
        assert "## Protocol" in out
        assert "## Simulation" in out
        assert "settling time" in out
        assert (tmp_path / "o" / "report.md").exists()

    def test_peak_table_matches_csv_scan(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        run(capsys, "simulate", three_bus_path(), "--t-end", "1", "--out", str(out_dir))
        # reference: the per-bus scan of sim.csv that report used to make
        peaks = {}
        with open(out_dir / "sim.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                bus = row["bus"]
                peaks[bus] = max(peaks.get(bus, 0.0), abs(float(row["omega_rad_s"])))
        summary = json.loads((out_dir / "sim_summary.json").read_text())
        assert summary["peak_abs_omega"] == peaks
        code, out, _ = run(capsys, "report", "--out", str(out_dir))
        assert code == 0
        table = ["| bus | peak |d_omega| (rad/s) |", "|---|---|"]
        table += [f"| {bus} | {peaks[bus]:.4e} |" for bus in sorted(peaks)]
        assert out.endswith("\n".join(table) + "\n")

    def test_null_settling_time_renders_not_settled(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        run(capsys, "simulate", three_bus_path(), "--t-end", "1", "--out", str(out_dir))
        path = out_dir / "sim_summary.json"
        summary = json.loads(path.read_text())
        summary["settling_time_s"] = None
        path.write_text(json.dumps(summary))
        code, out, _ = run(capsys, "report", "--out", str(out_dir))
        assert code == 0
        assert "settling time (||x - x_end|| < 1e-4): not settled\n" in out
        assert "| bus | peak |d_omega| (rad/s) |" in out

    def test_empty_dir_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--out", str(tmp_path / "nothing"))
        assert code == 1
        assert "no run artifacts" in err

    @pytest.mark.parametrize("name, text, message", [
        ("assess.json", "", "assess.json: Expecting value"),
        ("assess.json", '{"variants": {"transformed": {"verdict": "stable"}}}',
         "assess.json: missing key 'agents'"),
        ("assess.json", "{}", "assess.json: missing key 'variants'"),
        ("assess.json", '{"variants": {}}', "assess.json: missing key 'full_system'"),
        ("assess.json", '{"variants": {}, "full_system": {}}', "assess.json: 'variants' is empty"),
        ("assess.json", '{"variants": {"transformed": {"verdict": "stable", "agents": []}}, '
         '"full_system": {}}', "assess.json: missing key 'eigenvalues'"),
        ("assess.json", '{"variants": {"transformed": {"verdict": "stable", "agents": []}}, '
         '"full_system": {"eigenvalues": [], "max_real_part": -1.0, "hurwitz": true}}',
         "assess.json: 'eigenvalues' is empty"),
        ("protocol.json", None, "protocol.json: missing key 'per_round'"),
        ("sim_summary.json", '{"max_abs_omega_end": 0.0, "steady_state": '
         '{"power_balance_residual": 0.0}, "peak_abs_omega": {"1": 0.1}}',
         "sim_summary.json: missing key 'settling_time_s'"),
        ("sim_summary.json", '{"max_abs_omega_end": 0.0, "steady_state": '
         '{"power_balance_residual": 0.0}, "settling_time_s": null}',
         "sim_summary.json: missing key 'peak_abs_omega'"),
    ], ids=["empty-assess", "assess-without-agents", "assess-without-variants",
            "assess-without-full-system", "assess-with-empty-variants",
            "assess-without-eigenvalues", "assess-with-empty-eigenvalues",
            "protocol-without-per-round", "sim-without-settling-time", "sim-without-peaks"])
    def test_damaged_artifact_is_one_error_line(self, capsys, tmp_path, name, text, message):
        out_dir = tmp_path / "o"
        _, out, _ = run(capsys, "protocol", three_bus_path(), "--out", str(out_dir))
        if text is None:    # protocol.json as written before it had per_round
            doc = json.loads(out)
            del doc["per_round"]
            text = json.dumps(doc)
        (out_dir / name).write_text(text)
        code, out, err = run(capsys, "report", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (out_dir / "report.md").exists()

    def test_protocol_section_does_not_read_the_trace(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        run(capsys, "protocol", three_bus_path(), "--out", str(out_dir))
        code, with_trace, _ = run(capsys, "report", "--out", str(out_dir))
        assert code == 0 and "| round | kind | count |" in with_trace
        (out_dir / "trace.jsonl").unlink()
        (out_dir / "report.md").unlink()
        code, without_trace, _ = run(capsys, "report", "--out", str(out_dir))
        assert code == 0
        assert without_trace == with_trace == (out_dir / "report.md").read_text()


class TestErrorPaths:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "assess", str(tmp_path / "absent.json"),
                           "--out", str(tmp_path / "o"))
        assert code == 1

    def test_invalid_json_path_message(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"base_frequency_hz": 60, "generators": [{"bus": 1, '
                       '"M": -1, "D": 1, "T_T": 1}]}')
        code, _, err = run(capsys, "assess", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "$.generators[0].M" in err

    @pytest.mark.parametrize("key,value,kind", [
        ("lines", {}, "dict"), ("lines", 5, "int"), ("lines", None, "NoneType"),
        ("disturbances", {}, "dict"), ("disturbances", 5, "int"),
        ("disturbances", None, "NoneType"),
    ])
    def test_section_not_a_list(self, capsys, tmp_path, key, value, kind):
        doc = three_bus_doc()
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "assess", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: $.{key}: expected list, got {kind}\n"

    def test_control_of_wrong_length(self, capsys, tmp_path):
        doc = three_bus_doc()
        doc["generators"][1]["control"] = [-24.0, -43.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "assess", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == "error: $.generators[1].control: expected 3 poles, got 2\n"

    @pytest.mark.parametrize("data", [b"\xff\xfe{", b"\xff", b'{"base_frequency_hz": \x80}'])
    def test_undecodable_bytes(self, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "gridcert", "assess", str(bad), "--out", str(tmp_path / "o")],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: $: invalid JSON: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field,value,argv,message", [
        # the controllability matrix overflows: caught before its rank test,
        # with no numpy warning and no LAPACK message
        ("T_T", 1e-300, ["assess"], KRYLOV_OVERFLOW),
        ("T_T", 1e-300, ["protocol"], KRYLOV_OVERFLOW),
        ("T_T", 1e-300, ["simulate"], KRYLOV_OVERFLOW),
        ("M", 1e-300, ["assess"], KRYLOV_OVERFLOW),
        ("M", 1e-300, ["simulate"], KRYLOV_OVERFLOW),
        # B^T B underflows to zero in the global gain of the row pass
        ("T_T", 1e300, ["assess", "--global"], "input column is zero"),
        ("T_T", 1e300, ["protocol"], "input column is zero"),
    ], ids=["tiny-T_T-assess", "tiny-T_T-protocol", "tiny-T_T-simulate", "tiny-M-assess",
            "tiny-M-simulate", "huge-T_T-assess-global", "huge-T_T-protocol"])
    def test_extreme_generator_constant_is_one_located_line(self, tmp_path, field, value,
                                                            argv, message):
        # in a child process: LAPACK prints to the process's own stdout
        doc = three_bus_doc()
        doc["generators"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "gridcert", argv[0], str(bad), *argv[1:],
             "--out", str(tmp_path / "o")],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: agent 1: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        # 1/T_T is subnormal: the gain that places the poles overflows
        ("T_T", 1.7e308, r"entry \(1, 1\) of the closed loop A_hat - B K\^T is not finite: "
                         r"placing these poles takes the gain K = \[.+\] "
                         r"at B = \[0, 0, 5\.88e-309\]"),
        # D/M = 1.25e299 swamps the Krylov columns of a plant controllable for any finite D
        ("D", 1e300, r"controllability matrix is rank deficient to working precision: its least "
                     r"singular value \S+ is within 3 eps of its largest, \S+, with A_hat's "
                     r"largest entry -1\.25e\+299 at \(2, 2\) and B = \[0, 0, 1\.11\]"),
    ], ids=["largest-T_T", "huge-D"])
    @pytest.mark.parametrize("argv", [["assess"], ["protocol"], ["simulate", "--t-end", "0.1"]],
                             ids=["assess", "protocol", "simulate"])
    def test_design_failure_names_the_entry(self, capsys, tmp_path, field, value, message, argv):
        # one located line and no numpy warning (which the test run turns
        # into an error); the singular values and gains are left to LAPACK
        doc = three_bus_doc()
        doc["generators"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:], "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert re.fullmatch(f"error: agent 1: {message}\n", err)

    @pytest.mark.parametrize("section, field, value, message", [
        ("generators", "M", 5e-324, "bus 1: wb/M overflows"),
        ("generators", "T_T", 5e-324, "bus 1: 1/T_T overflows"),
        ("lines", "X", 5e-324, "bus 1: (wb/M) sum_j(1/X_ij) overflows"),
        (None, "base_frequency_hz", sys.float_info.max, "bus 1: wb/M overflows"),
    ], ids=["subnormal-M", "subnormal-T_T", "subnormal-X", "largest-base-frequency"])
    @pytest.mark.parametrize("argv", [["assess", "--global"], ["protocol"],
                                      ["simulate", "--t-end", "0.1"]],
                             ids=["assess", "protocol", "simulate"])
    def test_overflowing_model_entry_is_one_located_line(self, capsys, tmp_path, section,
                                                         field, value, message, argv):
        # the entry is named by the fields it reads, with no numpy warning
        # (which the test run turns into an error)
        doc = three_bus_doc()
        (doc[section][0] if section else doc)[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:], "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(capsys, "assess")   # missing grid argument
        assert code == 1
        # --variant is assess's alone: the protocol evaluates transformed rows
        code, _, err = run(capsys, "protocol", three_bus_path(), "--variant", "original")
        assert code == 1
        assert "unrecognized arguments: --variant original" in err

    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gridcert", "assess", three_bus_path(),
             "--global", "--out", str(tmp_path / "o")],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "stable"

    def test_cli_module_runs_the_cli(self, tmp_path):
        # `python -m gridcert.cli` is the same command as `python -m gridcert`
        out = {}
        for module in ("gridcert", "gridcert.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "assess", three_bus_path(),
                 "--out", str(tmp_path / module)],
                env=child_env(), capture_output=True)
            assert proc.returncode == 2
            out[module] = (tmp_path / module / "assess.json").read_bytes()
        assert out["gridcert.cli"] == out["gridcert"]


# run under -W error, so a warning while the package loads its submodules, or
# runpy's warning that gridcert.cli was imported before it ran, fails the test
PACKAGE_SURFACE = """
import sys
import gridcert
from gridcert import sim
assert sim is sys.modules["gridcert.sim"]
names = ("certify", "control", "gridmodel", "linalg", "protocol", "sim")
for name in names:
    assert getattr(gridcert, name) is sys.modules["gridcert." + name], name
assert set(names) <= set(dir(gridcert))
try:
    gridcert.nope
except AttributeError as exc:
    assert "nope" in str(exc), exc
else:
    raise AssertionError("gridcert.nope resolved")
assert gridcert.__version__ == "0.1.0"
assert gridcert.GridcertError is sys.modules["gridcert.errors"].GridcertError
"""


class TestPackage:
    @pytest.mark.parametrize("command", ["assess", "protocol", "simulate", "report"])
    def test_help(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: gridcert {command} ")
        if command == "simulate":
            assert "halved until RK4 is stable" in " ".join(out.split())

    def test_submodules_are_package_attributes(self):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", PACKAGE_SURFACE],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_cli_module_runs_without_warnings(self):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "gridcert.cli", "--version"],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == (f"{cli.__version__}\n", "")


class TestReproducibility:
    def test_hash_seed_independence(self, tmp_path):
        # trace bytes must not depend on interpreter hash randomization
        outs = []
        for seed in ("0", "424242"):
            env = child_env(PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "gridcert", "protocol", three_bus_path(),
                 "--trace-full", "--out", str(tmp_path / seed)],
                env=env, capture_output=True)
            assert proc.returncode == 0
            outs.append((tmp_path / seed / "trace.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_identical_bytes_across_runs(self, capsys, tmp_path):
        for cmd in (["assess", three_bus_path(), "--global"],
                    ["protocol", three_bus_path()],
                    ["simulate", three_bus_path(), "--t-end", "1"]):
            outs = []
            for d in ("x", "y"):
                _, out, _ = run(capsys, *cmd, "--out", str(tmp_path / cmd[0] / d))
                outs.append(out)
            assert outs[0] == outs[1]
        for name in ("trace.jsonl", "protocol.json"):
            a = (tmp_path / "protocol" / "x" / name).read_bytes()
            b = (tmp_path / "protocol" / "y" / name).read_bytes()
            assert a == b
        a = (tmp_path / "simulate" / "x" / "sim.csv").read_bytes()
        b = (tmp_path / "simulate" / "y" / "sim.csv").read_bytes()
        assert a == b

    def test_artifacts_independent_of_input_path(self, capsys, tmp_path):
        # the manifest identifies the grid by its digest, not by its path
        with open(three_bus_path(), "rb") as fh:
            data = fh.read()
        artifacts = []
        for rel in ("a/grid.json", "b/c/copy.json"):
            grid = tmp_path / rel
            grid.parent.mkdir(parents=True)
            grid.write_bytes(data)
            out = grid.parent / "out"
            for cmd in (["assess", "--global"], ["protocol"],
                        ["simulate", "--t-end", "1"]):
                run(capsys, cmd[0], str(grid), *cmd[1:], "--out", str(out))
            artifacts.append({name: (out / name).read_bytes()
                              for name in sorted(os.listdir(out))})
        assert len(artifacts[0]) == 5
        assert artifacts[0] == artifacts[1]
