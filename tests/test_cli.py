import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridcert
from gridcert import cli
from gridcert.data import three_bus_path

# child interpreters import the same gridcert as this one, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(gridcert.__file__))


def child_env(**extra):
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)

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
         {"global": True, "variant": "transformed", "max_retries": 2,
          "trace_full": False}),
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

    def test_variant_both_union(self, capsys, tmp_path):
        code, out, _ = run(capsys, "assess", three_bus_path(), "--global",
                           "--variant", "both", "--out", str(tmp_path / "o"))
        doc = json.loads(out)
        assert set(doc["variants"]) == {"original", "transformed"}
        assert doc["variants"]["transformed"]["verdict"] == "stable"
        assert code == 0   # certified by at least one variant

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
        assert "warning" in err

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
                       "dt=0.058 s passes\n")
        assert not (tmp_path / "o" / "sim.csv").exists()

    def test_one_spectrum_per_simulate(self, capsys, tmp_path, monkeypatch):
        eigvals = np.linalg.eigvals
        orders = []

        def counting(a, *args, **kwargs):
            orders.append(np.shape(a))
            return eigvals(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        code, _, _ = run(capsys, "simulate", three_bus_path(), "--t-end", "0.5",
                         "--out", str(tmp_path / "o"))
        assert code == 0
        assert orders.count((9, 9)) == 1

    def test_infinite_horizon_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", three_bus_path(), "--t-end", "inf",
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == "error: need 0 < dt <= t_end < inf, got dt=0.001, t_end=inf\n"


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

    def test_summary_without_peaks_has_no_peak_table(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        run(capsys, "simulate", three_bus_path(), "--t-end", "1", "--out", str(out_dir))
        path = out_dir / "sim_summary.json"
        summary = json.loads(path.read_text())
        del summary["peak_abs_omega"]
        path.write_text(json.dumps(summary))
        code, out, _ = run(capsys, "report", "--out", str(out_dir))
        assert code == 0
        assert "## Simulation" in out
        assert "peak |d_omega|" not in out

    def test_empty_dir_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--out", str(tmp_path / "nothing"))
        assert code == 1
        assert "no run artifacts" in err


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

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(capsys, "assess")   # missing grid argument
        assert code == 1

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
