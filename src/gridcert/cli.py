"""Command-line interface.

Subcommands bind ingestion, design, certification, the distributed
protocol and simulation into reproducible runs: identical inputs and
options produce identical output bytes.  Exit codes: 0 = certified
stable / success, 2 = inconclusive, 1 = error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__, certify, gridmodel, protocol, sim
from .errors import GridcertError

OUT_DEFAULT = "gridcert-out"

ASSESS_JSON = "assess.json"
TRACE_JSONL = "trace.jsonl"
PROTOCOL_JSON = "protocol.json"
SIM_CSV = "sim.csv"
SIM_JSON = "sim_summary.json"
REPORT_MD = "report.md"


def _manifest(args, data, grid, **resolved):
    """Run manifest.  Its options are the parsed command-line options, with
    ``use_global`` recorded as ``global``, plus the resolved desired poles
    and whatever else the command resolved (``resolved``)."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "func", "grid", "out")}
    options["global"] = options.pop("use_global")
    specs = certify.resolve_pole_specs(grid, getattr(args, "poles_scale", 1.0))
    options["poles"] = {str(b): [[p.real, p.imag] for p in specs[b]] for b in grid.bus_ids}
    options.update(resolved)
    return {
        "command": args.command,
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "toolkit_version": __version__,
        "options": options,
    }


def _read_grid(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return gridmodel.parse_grid(data), data


def _open_artifact(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, name), "w", encoding="utf-8")


def _write(out_dir, name, text):
    with _open_artifact(out_dir, name) as fh:
        fh.write(text)


def _emit(out_dir, name, doc):
    """Write the JSON artifact ``name`` and echo it to stdout; a NaN or
    infinity in ``doc`` is an error, since JSON has no such numbers."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GridcertError(f"{name}: {exc}") from None
    _write(out_dir, name, text)
    sys.stdout.write(text)


def _gains_doc(gains):
    doc = {}
    for bus, gs in sorted(gains.items()):
        entry = {"local": list(map(float, gs.local))}
        entry["global"] = {
            str(j): list(map(float, k)) for j, k in sorted(gs.global_.items())
        }
        doc[str(bus)] = entry
    return doc


def _eig_doc(lam):
    order = np.lexsort((lam.imag, lam.real))
    return {
        "eigenvalues": [[float(z.real), float(z.imag)] for z in lam[order]],
        "max_real_part": float(lam.real.max()),
        "hurwitz": bool(lam.real.max() < 0.0),
    }


def _apply_step_override(grid, step_pu):
    if step_pu is None:
        return grid
    if not math.isfinite(step_pu):
        raise GridcertError(f"--step-pu must be finite, got {step_pu}")
    if not grid.disturbances:
        raise GridcertError("--step-pu given but the grid has no disturbances")
    for d in grid.disturbances:
        d.delta_PL = step_pu
    return grid


def cmd_assess(args):
    grid, data = _read_grid(args.grid)
    variants = ([args.variant] if args.variant != "both"
                else [certify.VARIANT_ORIGINAL, certify.VARIANT_TRANSFORMED])
    results = [
        certify.assess_grid(grid, use_global=args.use_global, variant=v,
                            poles_scale=args.poles_scale)
        for v in variants
    ]
    # with --variant both, certification by either condition suffices
    stable = any(r.verdict == certify.STABLE for r in results)
    doc = {
        "manifest": _manifest(args, data, grid),
        "variants": {
            r.variant: {
                "agents": [rep.to_dict() for rep in r.reports],
                "verdict": r.verdict,
            } for r in results
        },
        "verdict": certify.STABLE if stable else certify.INCONCLUSIVE,
        "full_system": _eig_doc(np.linalg.eigvals(results[-1].A_full)),
        "gains": _gains_doc(results[-1].gains),
    }
    _emit(args.out, ASSESS_JSON, doc)
    return 0 if stable else 2


def cmd_protocol(args):
    grid, data = _read_grid(args.grid)
    result = protocol.run_dsa(
        grid, max_retries=args.max_retries, allow_global=args.use_global,
        variant=args.variant,
    )
    trace_text = "\n".join(result.trace_lines(full=args.trace_full)) + "\n"
    _write(args.out, TRACE_JSONL, trace_text)
    doc = {
        "manifest": _manifest(args, data, grid),
        "verdict": result.verdict,
        "rounds": result.rounds,
        "messages": len(result.trace),
        "agents": [r.to_dict() for r in result.reports],
        "gains": _gains_doc(result.gains),
    }
    _emit(args.out, PROTOCOL_JSON, doc)
    return 0 if result.verdict == certify.STABLE else 2


def cmd_simulate(args):
    grid, data = _read_grid(args.grid)
    _apply_step_override(grid, args.step_pu)
    assessment = certify.assess_grid(
        grid, use_global=args.use_global, poles_scale=args.poles_scale)
    # the one spectrum of this command: the artifact, the gate and simulate's checks
    lam = np.linalg.eigvals(assessment.A_full)
    full_system = _eig_doc(lam)
    if not full_system["hurwitz"]:
        if not args.force:
            raise GridcertError(
                "assembled closed loop is not Hurwitz; rerun with --force to simulate anyway")
        sys.stderr.write("warning: assembled closed loop is not Hurwitz\n")

    config = sim.SimConfig(t_end=args.t_end, dt=args.dt,
                           disturbances=grid.disturbances)
    F_full = gridmodel.disturbance_matrix(assessment.subsystems)
    with warnings.catch_warnings():
        # the Hurwitz gate above already reported on stderr
        warnings.filterwarnings("ignore", message="system matrix is not Hurwitz")
        result = sim.simulate(assessment.A_full, F_full, config, grid.bus_ids,
                              gains=assessment.gains, eigenvalues=lam)
    with _open_artifact(args.out, SIM_CSV) as fh:
        result.to_csv(fh)    # streamed: the CSV text is tens of MB on large grids

    steady = sim.steady_state_check(result, grid)
    settle = sim.settling_time(result)
    peaks = np.abs(result.states[:, 1::3]).max(axis=0)
    doc = {
        "manifest": _manifest(
            args, data, grid, disturbances=[asdict(d) for d in grid.disturbances]),
        "certification_verdict": assessment.verdict,
        "full_system": full_system,
        "steady_state": steady,
        "settling_time_s": settle,
        "max_abs_omega_end": max(steady["omega_end"].values()),
        "peak_abs_omega": {str(b): float(p) for b, p in zip(result.bus_ids, peaks)},
    }
    _emit(args.out, SIM_JSON, doc)
    return 0


def _report_assess(doc, lines):
    lines.append("## Certification")
    for variant, block in sorted(doc.get("variants", {}).items()):
        lines.append(f"\nVariant: {variant} (verdict: {block['verdict']})\n")
        lines.append("| agent | diagonal | sum offdiag | margin | met |")
        lines.append("|---|---|---|---|---|")
        for rep in block["agents"]:
            off = sum(rep["offdiag"].values())
            lines.append(
                f"| {rep['agent']} | {rep['diagonal']:.4f} | {off:.4f} "
                f"| {rep['margin']:.4f} | {'yes' if rep['met'] else 'no'} |")
    fs = doc.get("full_system", {})
    if fs.get("eigenvalues"):
        lines.append("\n## Closed-loop eigenvalues")
        lines.append("\n| real (1/s) | imag (rad/s) |")
        lines.append("|---|---|")
        for re_, im in fs["eigenvalues"]:
            lines.append(f"| {re_:.4f} | {im:.4f} |")
        lines.append(f"\nmax real part: {fs['max_real_part']:.6f}"
                     f" (Hurwitz: {fs['hurwitz']})")


def _report_protocol(trace_lines_, summary, lines):
    lines.append("\n## Protocol")
    lines.append(f"\nverdict: {summary['verdict']} after {summary['rounds']} rounds, "
                 f"{summary['messages']} messages")
    counts = {}
    for raw in trace_lines_:
        msg = json.loads(raw)
        counts.setdefault(msg["round"], {}).setdefault(msg["kind"], 0)
        counts[msg["round"]][msg["kind"]] += 1
    lines.append("\n| round | kind | count |")
    lines.append("|---|---|---|")
    for rnd in sorted(counts):
        for kind in sorted(counts[rnd]):
            lines.append(f"| {rnd} | {kind} | {counts[rnd][kind]} |")


def _report_sim(summary, lines):
    lines.append("\n## Simulation")
    steady = summary["steady_state"]
    lines.append(f"\nmax |d_omega(t_end)|: {summary['max_abs_omega_end']:.3e} rad/s")
    lines.append(f"power balance residual: {steady['power_balance_residual']:.3e} pu")
    settle = summary.get("settling_time_s")
    lines.append("settling time (||x - x_end|| < 1e-4): "
                 + (f"{settle:.3f} s" if settle is not None else "not settled"))
    peaks = summary.get("peak_abs_omega")
    if peaks:
        lines.append("\n| bus | peak |d_omega| (rad/s) |")
        lines.append("|---|---|")
        for bus in sorted(peaks):
            lines.append(f"| {bus} | {peaks[bus]:.4e} |")


def cmd_report(args):
    found = False
    lines = ["# gridcert run report"]
    assess_path = os.path.join(args.out, ASSESS_JSON)
    if os.path.exists(assess_path):
        with open(assess_path, encoding="utf-8") as fh:
            _report_assess(json.load(fh), lines)
        found = True
    trace_path = os.path.join(args.out, TRACE_JSONL)
    proto_path = os.path.join(args.out, PROTOCOL_JSON)
    if os.path.exists(trace_path) and os.path.exists(proto_path):
        with open(proto_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(trace_path, encoding="utf-8") as fh:
            _report_protocol([ln for ln in fh.read().splitlines() if ln], summary, lines)
        found = True
    sim_path = os.path.join(args.out, SIM_JSON)
    if os.path.exists(sim_path):
        with open(sim_path, encoding="utf-8") as fh:
            _report_sim(json.load(fh), lines)
        found = True
    if not found:
        sys.stderr.write(f"error: no run artifacts in {args.out!r}\n")
        return 1
    text = "\n".join(lines) + "\n"
    _write(args.out, REPORT_MD, text)
    sys.stdout.write(text)
    return 0


def _add_common(p, with_grid=True):
    if with_grid:
        p.add_argument("grid", help="grid description JSON file")
    p.add_argument("--out", default=OUT_DEFAULT, metavar="DIR",
                   help=f"artifact directory (default: {OUT_DEFAULT})")


def _add_global_flags(p, default):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--global", dest="use_global", action="store_true",
                   default=default, help="enable global (neighbor-state) gains")
    g.add_argument("--no-global", dest="use_global", action="store_false",
                   help="disable global gains")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridcert",
        description="Compositional small-signal stability assessment for power grids.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("assess", help="design feedback and evaluate the per-agent conditions")
    _add_common(p)
    _add_global_flags(p, default=False)
    p.add_argument("--variant", choices=["original", "transformed", "both"],
                   default="transformed")
    p.add_argument("--poles-scale", type=float, default=1.0,
                   help="uniform scale applied to the desired poles")
    p.set_defaults(func=cmd_assess)

    p = subs.add_parser("protocol", help="run the distributed assessment protocol")
    _add_common(p)
    _add_global_flags(p, default=True)
    p.add_argument("--variant", choices=["original", "transformed"],
                   default="transformed")
    p.add_argument("--max-retries", type=int, default=0,
                   help="local redesign attempts before escalation")
    p.add_argument("--trace-full", action="store_true",
                   help="include full payloads in the trace (default: digests)")
    p.set_defaults(func=cmd_protocol)

    p = subs.add_parser("simulate", help="time-domain response to the configured load steps")
    _add_common(p)
    _add_global_flags(p, default=True)
    p.add_argument("--poles-scale", type=float, default=1.0,
                   help="uniform scale applied to the desired poles")
    p.add_argument("--dt", type=float, default=sim.DEFAULT_DT, help="step size, s")
    p.add_argument("--t-end", type=float, default=sim.DEFAULT_T_END,
                   help="final time, s")
    p.add_argument("--step-pu", type=float, default=None,
                   help="override the magnitude of every configured load step")
    p.add_argument("--force", action="store_true",
                   help="simulate even when the closed loop is not Hurwitz")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("report", help="render prior run artifacts as markdown")
    _add_common(p, with_grid=False)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means "inconclusive" here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (GridcertError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
