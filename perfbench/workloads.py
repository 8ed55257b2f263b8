"""The benchmark's workloads: inputs, the steps of one pass, output checks.

A workload prepares its grid file once per run, then ``steps`` lists the
steps of one pass as ``(name, kind, call)``.  ``call()`` runs the step and
returns its exit code (0 stable or success, 2 inconclusive, 1 error, as the
CLI defines them) with the in-memory result of a library call, if any.
``inspect`` then reads what the step produced: its verdict, the sha256 of
each artifact, the oracle's largest real part where the step reports it,
and the counts the per-layer metrics need.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

import gridgen

ASSESS, PROTOCOL, SIMULATE, REPORT = "assess", "protocol", "simulate", "report"
KIND_METRIC = {ASSESS: "assess_s", PROTOCOL: "protocol_s",
               SIMULATE: "simulate_s", REPORT: "report_s"}
ARTIFACTS = {ASSESS: ("assess.json",), PROTOCOL: ("protocol.json", "trace.jsonl"),
             SIMULATE: ("sim.csv", "sim_summary.json"), REPORT: ("report.md",)}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _cli(gc, argv):
    return lambda: (gc.cli.main(argv), None)


class CliWorkload:
    """Steps that go through ``gridcert.cli.main`` and write artifacts."""

    def __init__(self, gc, work_dir):
        self.gc = gc
        self.out = os.path.join(work_dir, "out")
        self.grid_path = None

    def clean(self):
        """Remove the previous pass's artifacts."""
        shutil.rmtree(self.out, ignore_errors=True)

    def inspect(self, kind, code, result):
        info = {"verdict": None, "artifacts": {}}
        docs = {}
        for name in ARTIFACTS[kind]:
            with open(os.path.join(self.out, name), "rb") as fh:
                data = fh.read()
            info["artifacts"][name] = sha256(data)
            info[f"bytes.{name}"] = len(data)
            if name.endswith(".json"):
                docs[name] = json.loads(data)
            elif name == "sim.csv":
                info["csv_rows"] = data.count(b"\n") - 1
            elif name == "trace.jsonl":
                info["trace_bytes"] = len(data)
                info["evaluations"] = data.count(b'"kind": "ConditionStatus"')
        if kind == ASSESS:
            doc = docs["assess.json"]
            info["verdict"] = doc["verdict"]
            info["oracle_max_real"] = doc["full_system"]["max_real_part"]
            agents = [a for v in doc["variants"].values() for a in v["agents"]]
            info["rows"] = len(agents)
            info["rows_met"] = sum(a["met"] for a in agents)
        elif kind == PROTOCOL:
            doc = docs["protocol.json"]
            info["verdict"] = doc["verdict"]
            info["rounds"] = doc["rounds"]
            info["messages"] = doc["messages"]
            info["agents"] = len(doc["agents"])
            info["_gains"] = doc["gains"]
        elif kind == SIMULATE:
            doc = docs["sim_summary.json"]
            info["verdict"] = doc["certification_verdict"]
            info["oracle_max_real"] = doc["full_system"]["max_real_part"]
        return info

    def oracle(self, kind, info):
        """Largest real part of the closed loop behind a protocol verdict."""
        if kind != PROTOCOL:
            return None
        gc = self.gc
        gains = {}
        for bus, entry in info["_gains"].items():
            gains[int(bus)] = gc.control.GainSet(
                local=entry["local"],
                global_={int(j): k for j, k in entry["global"].items()})
        subs = gc.gridmodel.build_subsystems(gc.gridmodel.load_grid(self.grid_path))
        return _max_real(gc.gridmodel.assemble_full(subs, gains))


def _max_real(A):
    return float(np.linalg.eigvals(A).real.max())


class ThreeBusCli(CliWorkload):
    name = "three_bus_cli"

    def prepare(self, seed):
        self.grid_path = os.path.join(os.path.dirname(self.gc.__file__), "data", "three_bus.json")
        with open(self.grid_path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        return {"generator": "bundled three_bus.json", "seed": seed,
                "buses": len(doc["generators"]), "lines": len(doc["lines"]),
                "sha256": sha256(data)}

    def steps(self):
        g, out = self.grid_path, ["--out", self.out]
        return [
            ("assess", ASSESS, _cli(self.gc, ["assess", g, *out, "--global", "--variant", "both"])),
            ("protocol", PROTOCOL, _cli(self.gc, ["protocol", g, *out])),
            ("protocol_retry", PROTOCOL, _cli(self.gc, [
                "protocol", g, *out, "--no-global", "--max-retries", "10"])),
            ("simulate", SIMULATE, _cli(self.gc, ["simulate", g, *out])),
            ("report", REPORT, _cli(self.gc, ["report", *out])),
        ]


class Ring300Verify(CliWorkload):
    name = "ring300_verify"
    buses, lines = 300, 390

    def prepare(self, seed):
        self.grid_path = os.path.join(os.path.dirname(self.out), "grid.json")
        info = gridgen.write_grid(self.grid_path, self.buses, self.lines, seed)
        gm = self.gc.gridmodel
        closed = self.gc.certify.assess_grid(gm.load_grid(self.grid_path), use_global=True)
        if not closed.hurwitz:
            raise RuntimeError(f"generated grid (seed {seed}) has a non-Hurwitz closed loop")
        info["closed_loop_hurwitz"] = True
        return info

    def steps(self):
        g, out = self.grid_path, ["--out", self.out]
        return [
            ("assess", ASSESS, _cli(self.gc, ["assess", g, *out, "--global", "--variant", "both"])),
            ("simulate", SIMULATE, _cli(self.gc, ["simulate", g, *out, "--t-end", "1"])),
            ("report", REPORT, _cli(self.gc, ["report", *out])),
        ]


class Ring1000Certify:
    """Library calls on the certificate path; writes no artifacts."""

    name = "ring1000_certify"
    buses, lines = 1000, 1300

    def __init__(self, gc, work_dir):
        self.gc = gc
        self.grid_path = os.path.join(work_dir, "grid.json")

    def prepare(self, seed):
        return gridgen.write_grid(self.grid_path, self.buses, self.lines, seed)

    def clean(self):
        pass

    def _assess(self, variant):
        gc = self.gc

        def call():
            grid = gc.gridmodel.load_grid(self.grid_path)
            result = gc.certify.assess_grid(grid, use_global=True, variant=variant)
            return (0 if result.verdict == gc.certify.STABLE else 2), result
        return call

    def _protocol(self):
        gc = self.gc

        def call():
            grid = gc.gridmodel.load_grid(self.grid_path)
            result = gc.protocol.run_dsa(grid)
            lines = result.trace_lines()
            return (0 if result.verdict == gc.certify.STABLE else 2), (result, lines)
        return call

    def steps(self):
        cert = self.gc.certify
        return [
            ("assess_transformed", ASSESS, self._assess(cert.VARIANT_TRANSFORMED)),
            ("assess_original", ASSESS, self._assess(cert.VARIANT_ORIGINAL)),
            ("protocol", PROTOCOL, self._protocol()),
        ]

    def inspect(self, kind, code, result):
        info = {"artifacts": {}}
        if kind == ASSESS:
            rows = [r.to_dict() for r in result.reports]
            doc = {"verdict": result.verdict, "agents": rows}
            info["artifacts"]["rows"] = sha256(json.dumps(doc, sort_keys=True).encode())
            info["verdict"] = result.verdict
            info["rows"] = len(rows)
            info["rows_met"] = sum(r["met"] for r in rows)
            info["_result"] = result
        else:
            result, lines = result
            text = ("\n".join(lines) + "\n").encode()
            rows = json.dumps([r.to_dict() for r in result.reports], sort_keys=True)
            info["artifacts"]["trace.jsonl"] = sha256(text)
            info["artifacts"]["rows"] = sha256(rows.encode())
            info["verdict"] = result.verdict
            info["rounds"] = result.rounds
            info["messages"] = len(result.trace)
            info["trace_bytes"] = len(text)
            info["evaluations"] = sum(m.kind == "ConditionStatus" for m in result.trace)
            info["agents"] = len(result.agents)
            info["_result"] = result
        return info

    def oracle(self, kind, info):
        """Largest real part of the closed loop behind the step's verdict."""
        result = info["_result"]
        if kind == ASSESS:
            return _max_real(result.A_full)
        return _max_real(self.gc.gridmodel.assemble_full(result.subsystems, result.gains))


WORKLOADS = {w.name: w for w in (ThreeBusCli, Ring1000Certify, Ring300Verify)}
