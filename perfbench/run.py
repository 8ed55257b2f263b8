"""gridcert benchmark: one workload, one seed, one process.

Run from the root of a checkout (the directory holding ``src/gridcert`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload ring300_verify --seed 1 --seconds 20 --trace 0

A run prepares the workload's input from ``--seed``, times a fresh
interpreter importing gridcert and parsing that input (``setup_s``), runs
one untimed warm-up pass, then measured passes until ``--seconds`` have
elapsed.  Every step of every pass is checked against the warm-up pass.
With ``--trace 1`` the measured passes alternate between untraced and
traced, and the per-layer metrics come from the traced ones.  Every time
is divided by the CPU's slowdown, as ``calib.py`` measures it around and
during the timed block, and each metric is the median over its samples.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json,
or its ``per_layer`` metrics with ``--trace 1``).  The full run record
(environment, input, each step's exit code, verdict and artifact sha256)
is written to ``perfbench/_work/<workload>-seed<n>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 4     # before the warm-up pass; more follow during the measured passes
SETUP_GAP_S = 2.0
SETUP_CODE = "import sys, gridcert.gridmodel as gm; gm.load_grid(sys.argv[1])"

# layers whose self time is reported (every workload runs them)
SELF_TIMES = (
    "gridmodel.parse_grid", "gridmodel.build_subsystems", "gridmodel.assemble_full",
    "control.pole_place", "linalg.modal_decompose", "control.transform_subsystem",
    "control.convert_global_gain", "control.close_loop",
    "certify.build_S_tilde", "certify.build_S", "certify.certify_decoupled",
    "linalg.solve_lyapunov", "linalg.spectral_norm",
    # layers some workloads skip: printed and recorded, not in the JSON line
    "oracle", "protocol.agent_step", "protocol.Message.digest",
    "sim.integrate", "sim.SimResult.to_csv", "sim.steady_state_check",
    "sim.settling_time", "cli.cmd_report",
)
CALLS = ("control.transform_subsystem", "control.optimal_global_gain",
         "linalg.spectral_norm", "oracle", "protocol.agent_step",
         "protocol.Message.digest")
UNITS = {"peak_rss_mb": "MB", "fail_ratio": "ratio"}
CLI_ARTIFACTS = ("assess.json", "protocol.json", "trace.jsonl", "sim_summary.json", "report.md")


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def pin_cpu():
    """Pin this process, and the set-up interpreters it starts, to the CPU
    it runs on, so the speed probe and the timed work share a core.
    Returns the CPU count before pinning (what ``nproc`` prints)."""
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(cpus)
    os.sched_setaffinity(0, {cpu if cpu in cpus else min(cpus)})
    return len(cpus)


def environment(nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup_timer(root, grid_path):
    """Return a function that times one fresh interpreter importing gridcert
    and parsing the grid, as every CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE, grid_path]
    from calib import probe, slowdown

    def sample():
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, check=False)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up interpreter exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        return dt

    def normalised():
        before = probe()
        dt = sample()
        return dt / slowdown(before, probe())

    sample()    # fills the bytecode cache
    return normalised


def run_pass(workload, meter, tracer=None):
    """Run every step of one pass under ``meter``; return the step records."""
    import io
    from contextlib import nullcontext, redirect_stderr, redirect_stdout

    records = []
    workload.clean()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for name, kind, call in workload.steps():
            err = io.StringIO()
            error = None
            with meter.block() as timing, redirect_stdout(sink), redirect_stderr(err), \
                    (tracer.step(name) if tracer else nullcontext()):
                try:
                    code, result = call()
                except Exception as exc:    # a failed step is counted, not fatal
                    code, result, error = 1, None, f"{type(exc).__name__}: {exc}"
            seconds, slow = timing["wall_s"], timing["slowdown"]
            rec = {"step": name, "kind": kind, "wall_s": seconds, "slowdown": slow,
                   "seconds": seconds / slow, "exit": code}
            if error is None and code == 1:
                error = err.getvalue().strip()[-500:] or "exit 1"
            if error is None:
                try:
                    rec.update(workload.inspect(kind, code, result))
                except (OSError, ValueError, KeyError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            rec["error"] = error
            records.append(rec)
    return records


def outcome(rec):
    return {k: rec.get(k) for k in ("exit", "verdict", "artifacts")}


def check_pass(records, reference, workload, stable):
    """Mark failed steps; ``reference`` is None for the warm-up pass itself."""
    for k, rec in enumerate(records):
        reason = rec.pop("error")
        if reason is None and reference is not None and outcome(rec) != outcome(reference[k]):
            reason = f"differs from the first pass: {outcome(rec)} != {outcome(reference[k])}"
        if reason is None and reference is None and rec.get("verdict") == stable:
            if "oracle_max_real" not in rec:
                rec["oracle_max_real"] = workload.oracle(rec["kind"], rec)
            if rec["oracle_max_real"] is not None and rec["oracle_max_real"] >= 0.0:
                reason = f"stable verdict, oracle max real part {rec['oracle_max_real']}"
        rec["failed"] = reason
        for key in [key for key in rec if key.startswith("_")]:
            del rec[key]


def pass_times(records):
    """{pass_s, assess_s, ...} of one pass: normalised step times summed by
    kind, and ``wall_s``, the pass's raw wall time."""
    from workloads import KIND_METRIC
    out = {"pass_s": sum(r["seconds"] for r in records),
           "wall_s": sum(r["wall_s"] for r in records)}
    for r in records:
        key = KIND_METRIC[r["kind"]]
        out[key] = out.get(key, 0.0) + r["seconds"]
    return out


def summarize(samples):
    """(reported value, fastest, slowest, n): the reported value is the median."""
    if not samples:
        return (None, None, None, 0)
    return (statistics.median(samples), min(samples), max(samples), len(samples))


def layer_metrics(stats, reference, buses):
    """Per-layer metrics of one traced pass (counts from the checked outputs)."""
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = stats.get(name, (0, 0.0, 0.0))[2]
    for name in CALLS:
        m[f"{name}.calls"] = stats.get(name, (0,))[0]
    m["oracle.order"] = 3 * buses if m["oracle.calls"] else 0

    def total(key):
        return sum(r.get(key, 0) for r in reference)

    rows = total("rows")
    m["certify.rows_met_ratio"] = total("rows_met") / rows if rows else 0.0
    m["protocol.rounds"] = total("rounds")
    m["protocol.messages"] = total("messages")
    m["protocol.trace_bytes"] = total("trace_bytes")
    agents = total("agents")
    m["protocol.evaluations_per_agent"] = total("evaluations") / agents if agents else 0.0
    csv_rows = total("csv_rows")
    m["sim.SimResult.to_csv.rows"] = csv_rows
    m["sim.SimResult.to_csv.bytes"] = total("bytes.sim.csv")
    m["sim.integrate.steps"] = csv_rows // buses - 1 if csv_rows else 0
    steps = m["sim.integrate.steps"]
    m["sim.integrate.us_per_step"] = 1e6 * m["sim.integrate.self_s"] / steps if steps else 0.0
    for name in CLI_ARTIFACTS:
        m[f"cli.bytes.{name}"] = total(f"bytes.{name}")
    return m


def measure(args, workload, meter, tracer, setup_sample):
    """Warm-up pass, then measured passes with set-up samples between them.

    Returns ``(reference, peak_rss_mb, setup, untraced, traced)``.  The peak
    RSS is read after the warm-up pass, so it does not grow with the pass
    count.  Set-up samples are spread over the run, one after the first pass
    that ends ``SETUP_GAP_S`` after the previous sample, so that their
    median does not depend on the machine's speed at one moment.
    """
    import resource
    stable = workload.gc.certify.STABLE
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    reference = run_pass(workload, meter)
    check_pass(reference, None, workload, stable)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced, traced = [], []
    t0 = last_setup = perf_counter()
    while (perf_counter() - t0 < args.seconds or not untraced
           or (tracer is not None and not traced)):
        on = tracer is not None and len(traced) < len(untraced)
        records = run_pass(workload, meter, tracer if on else None)
        check_pass(records, reference, workload, stable)
        if on:
            traced.append((records, *tracer.take()))
        else:
            untraced.append(records)
        if perf_counter() - last_setup >= SETUP_GAP_S:
            setup.append(setup_sample())
            last_setup = perf_counter()
    return reference, peak_rss_mb, setup, untraced, traced


def normalised(records, steps):
    """A traced pass's layer stats with times divided by their step's slowdown."""
    slow = {r["step"]: r["slowdown"] for r in records}
    return {name: {layer: [calls, total / slow[name], self_s / slow[name]]
                   for layer, (calls, total, self_s) in stats.items()}
            for name, stats in steps.items()}


def per_layer(reference, untraced, traced, buses, notes):
    """Per-layer metrics: normalised self times, medians over the traced passes."""
    from tracer import totals
    per_pass = [layer_metrics(totals(normalised(records, steps)), reference, buses)
                for records, steps, _ in traced]
    layers = {}
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        if isinstance(vals[0], int):
            if len(set(vals)) > 1:
                notes.append(f"count {key} differs between traced passes: {vals}")
            layers[key] = vals[0]
        else:
            layers[key] = statistics.median(vals)
    medians = [statistics.median(pass_times(p)["pass_s"] for p in passes)
               for passes in ([p for p, _, _ in traced], untraced)]
    layers["trace.overhead_ratio"] = medians[0] / medians[1]
    return layers


def print_summary(out, args, env, grid_info, reference, failures, notes, e2e,
                  layers, traced):
    out.write(f"gridcert benchmark: workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}, {args.seconds:g} s\n")
    out.write("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()) + "\n")
    out.write("input: " + ", ".join(f"{k} {v}" for k, v in grid_info.items()) + "\n")
    out.write(f"passes: 1 warm-up + {e2e['pass_s'][3]} untraced + {len(traced)} traced\n")
    out.write("steps (first pass):\n")
    for r in reference:
        arts = " ".join(f"{k}={v}" for k, v in sorted(r.get("artifacts", {}).items()))
        out.write(f"  {r['step']:<18} exit {r['exit']}  verdict {r.get('verdict')}  {arts}\n")
    for r in failures[:10]:
        out.write(f"  FAILED {r['step']}: {r['failed']}\n")
    for note in notes:
        out.write(f"  FAILED {note}\n")
    out.write("end-to-end (reported = median; times normalised to reference CPU speed):\n")
    for key, (value, low, top, n) in e2e.items():
        unit = UNITS.get(key, "s")
        if value is None:
            out.write(f"  {key:<12} n/a\n")
        elif low is None:
            out.write(f"  {key:<12} {value:.6g} {unit}  (n={n})\n")
        else:
            out.write(f"  {key:<12} {value:.6g} {unit}  fastest {low:.6g}  "
                      f"slowest {top:.6g}  n={n}\n")
    if not traced:
        return
    out.write(f"per-layer (self times: median over {len(traced)} traced passes):\n")
    for key, value in layers.items():
        out.write(f"  {key:<40} {value:.6g}\n")
    out.write("steps of the last traced pass: wall, summed self time, largest self times\n")
    for name, (wall, self_sum, top) in step_breakdown(traced[-1]).items():
        largest = ", ".join(f"{layer} {t:.4f}" for layer, t in top)
        out.write(f"  {name:<18} wall {wall:.4f} s  self sum {self_sum:.4f} s  "
                  f"gap {wall - self_sum:.2e} s  largest: {largest}\n")


def main():
    args = parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gridcert", "__init__.py")):
        fail(f"no gridcert sources under {src}; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    nproc = pin_cpu()
    sys.path.insert(0, src)
    import gridcert
    import gridcert.cli
    if not os.path.abspath(gridcert.__file__).startswith(src + os.sep):
        fail(f"imported gridcert from {gridcert.__file__}, not from {src}")
    from calib import Meter
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = os.path.join(root, "perfbench", "_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](gridcert, work)
    grid_info = workload.prepare(args.seed)
    setup_sample = setup_timer(root, workload.grid_path)
    meter = Meter()
    tracer = None
    if args.trace:
        tracer = Tracer(3 * grid_info["buses"], meter.clock)
        tracer.install(gridcert)
    try:
        reference, peak_rss_mb, setup, untraced, traced = measure(
            args, workload, meter, tracer, setup_sample)
    finally:
        if tracer is not None:
            tracer.uninstall()

    all_steps = reference + [r for p in untraced for r in p] + [r for p, _, _ in traced for r in p]
    failures = [r for r in all_steps if r["failed"]]
    times = [pass_times(p) for p in untraced]
    e2e = {key: summarize([t[key] for t in times if key in t])
           for key in ("pass_s", "assess_s", "protocol_s", "simulate_s", "report_s", "wall_s")}
    e2e["setup_s"] = summarize(setup)
    e2e["peak_rss_mb"] = (peak_rss_mb, None, None, 1)
    e2e["fail_ratio"] = (len(failures) / len(all_steps), None, None, len(all_steps))
    notes = []
    layers = per_layer(reference, untraced, traced, grid_info["buses"], notes) if traced else {}
    env = environment(nproc)
    print_summary(sys.stdout, args, env, grid_info, reference, failures, notes, e2e,
                  layers, traced)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "input": grid_info,
              "steps": reference, "failures": [r["failed"] for r in failures] + notes,
              "end_to_end": {k: dict(zip(("value", "fastest", "slowest", "samples"), v))
                             for k, v in e2e.items()},
              "setup_samples_s": setup, "pass_samples": times,
              "step_samples": [{r["step"]: [r["wall_s"], r["slowdown"]] for r in p}
                               for p in untraced],
              "per_layer": layers}
    record_path = os.path.join(work, "record.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    if workload.grid_path.startswith(work) and os.path.exists(workload.grid_path):
        os.remove(workload.grid_path)
    sys.stdout.write(f"record: {os.path.relpath(record_path, root)}\n")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else {k: v[0] for k, v in e2e.items()}
    metrics = {}
    for m in section:
        if values.get(m["name"]) is None:
            fail(f"metric {m['name']} not measured on {args.workload}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    sys.stdout.write(json.dumps({"correct": not failures and not notes,
                                 "attempted": len(all_steps), "failed": len(failures),
                                 "metrics": metrics}) + "\n")
    return 0


def step_breakdown(traced_pass):
    """Per step: wall time, summed layer self time, the three largest self times."""
    _, steps, walls = traced_pass
    out = {}
    for name, wall in walls.items():
        selfs = {layer: s[2] for layer, s in steps[name].items()}
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        out[name] = (wall, sum(selfs.values()), top)
    return out


if __name__ == "__main__":
    sys.exit(main())
