"""Command-line interface.

Subcommands bind ingestion, design, certification, the distributed
protocol and simulation into reproducible runs: identical inputs and
options produce identical output bytes.  Exit codes: 0 = certified
stable / success, 2 = inconclusive, 1 = error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
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


def _eig_doc(lam, digest):
    """The ``full_system`` block: the spectrum ``lam`` of the closed loop
    whose ``_spectrum`` hash is ``digest``, in (real, imag) order."""
    lam = lam[np.lexsort((lam.imag, lam.real))]
    return {
        "eigenvalues": [[float(z.real), float(z.imag)] for z in lam],
        "matrix_sha256": digest,
        "max_real_part": float(lam.real.max()),
        "hurwitz": bool(lam.real.max() < 0.0),
    }


def _stored_spectrum(path, digest, n):
    """The ``n`` eigenvalues in the ``full_system`` block of the artifact at
    ``path`` when its ``matrix_sha256`` is ``digest`` and its manifest's
    ``toolkit_version`` is this one; None when there is no such file, it is
    not JSON, or the block is another matrix's or release's or is not ``n``
    finite ``[re, im]`` pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    fs, manifest = doc.get("full_system"), doc.get("manifest")
    if not (isinstance(fs, dict) and fs.get("matrix_sha256") == digest
            and isinstance(manifest, dict) and manifest.get("toolkit_version") == __version__):
        return None
    pairs = fs.get("eigenvalues")
    if not (type(pairs) is list and len(pairs) == n and all(
            type(p) is list and len(p) == 2
            and all(type(v) is float and math.isfinite(v) for v in p) for p in pairs)):
        return None
    lam = np.empty(n, dtype=complex)
    # assigned by part: re + 1j*im would turn a -0.0 imaginary part into +0.0
    lam.real, lam.imag = np.array(pairs).T
    return lam


def _spectrum(out_dir, A):
    """The eigenvalues of the closed loop ``A`` and its key, the sha256 of
    its C-order float64 bytes.  A spectrum that ``assess.json`` or else
    ``sim_summary.json`` in ``out_dir`` holds under the same key is reused;
    it is computed otherwise.  Every consumer is order-independent or sorts,
    so either way the artifacts get the same bytes."""
    digest = hashlib.sha256(np.ascontiguousarray(A, dtype=np.float64)).hexdigest()
    for name in (ASSESS_JSON, SIM_JSON):
        lam = _stored_spectrum(os.path.join(out_dir, name), digest, len(A))
        if lam is not None:
            return lam, digest
    return np.linalg.eigvals(A), digest


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


def _warn_misplaced(grid, assessment, poles_scale):
    """One stderr line naming the bus that misses a requested pole worst,
    with the count of buses that miss one."""
    specs = certify.resolve_pole_specs(grid, poles_scale)
    misses = certify.misplaced_poles(assessment.transforms, specs)
    if misses:
        bus, p, q = misses[0]
        sys.stderr.write(
            f"warning: agent {bus}: pole {certify._pole_text(p)} placed at "
            f"{certify._pole_text(q)} ({len(misses)} of "
            f"{len(specs)} buses miss a requested pole by more than "
            f"{certify.POLE_TOLERANCE:.0%})\n")


def cmd_assess(args):
    grid, data = _read_grid(args.grid)
    variants = certify.VARIANTS if args.variant == "both" else [args.variant]
    # the design does not depend on the variant: one design, one row pass each
    design = certify.design_grid(grid, args.poles_scale)
    results = [design.assess(args.use_global, v) for v in variants]
    _warn_misplaced(grid, results[0], args.poles_scale)
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
        "full_system": _eig_doc(*_spectrum(args.out, results[-1].A_full)),
        "gains": _gains_doc(results[-1].gains),
    }
    _emit(args.out, ASSESS_JSON, doc)
    return 0 if stable else 2


def cmd_protocol(args):
    grid, data = _read_grid(args.grid)
    result = protocol.run_dsa(grid, max_retries=args.max_retries,
                              allow_global=args.use_global)
    trace_text = "\n".join(result.trace_lines(full=args.trace_full)) + "\n"
    _write(args.out, TRACE_JSONL, trace_text)
    doc = {
        "manifest": _manifest(args, data, grid),
        "verdict": result.verdict,
        "rounds": result.rounds,
        "messages": len(result.trace),
        # the trace is in round order: one entry per round that sent messages
        "per_round": [{"round": rnd, "messages": collections.Counter(m.kind for m in msgs)}
                      for rnd, msgs in itertools.groupby(result.trace, lambda m: m.round)],
        "agents": [r.to_dict() for r in result.reports],
        "gains": _gains_doc(result.gains),
    }
    _emit(args.out, PROTOCOL_JSON, doc)
    return 0 if result.verdict == certify.STABLE else 2


def cmd_simulate(args):
    grid, data = _read_grid(args.grid)
    _apply_step_override(grid, args.step_pu)
    # a bad horizon, or one too long to allocate, fails before any design or oracle work
    config = sim.SimConfig(t_end=args.t_end, dt=args.dt, disturbances=grid.disturbances)
    config.time_grid()
    assessment = certify.assess_grid(
        grid, use_global=args.use_global, poles_scale=args.poles_scale)
    _warn_misplaced(grid, assessment, args.poles_scale)
    # the one spectrum of this command: the artifact, the gate and simulate's checks
    lam, digest = _spectrum(args.out, assessment.A_full)
    full_system = _eig_doc(lam, digest)
    if not full_system["hurwitz"]:
        if not args.force:
            raise GridcertError(
                "assembled closed loop is not Hurwitz; rerun with --force to simulate anyway")
        sys.stderr.write("warning: assembled closed loop is not Hurwitz\n")

    F_full = gridmodel.disturbance_matrix(assessment.subsystems)
    result = sim.simulate(assessment.A_full, F_full, config, grid.bus_ids,
                          gains=assessment.gains, eigenvalues=lam)
    with _open_artifact(args.out, SIM_CSV) as fh:
        result.to_csv(fh)    # streamed: the CSV text is tens of MB on large grids

    steady = sim.steady_state_check(result)
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
    for variant, block in sorted(doc["variants"].items()):
        lines.append(f"\nVariant: {variant} (verdict: {block['verdict']})\n")
        lines.append("| agent | diagonal | sum offdiag | margin | met |")
        lines.append("|---|---|---|---|---|")
        for rep in block["agents"]:
            off = sum(rep["offdiag"].values())
            lines.append(
                f"| {rep['agent']} | {rep['diagonal']:.4f} | {off:.4f} "
                f"| {rep['margin']:.4f} | {'yes' if rep['met'] else 'no'} |")
    fs = doc["full_system"]
    if not doc["variants"]:     # assess writes at least one variant and 3N eigenvalues
        raise ValueError("'variants' is empty")
    if not fs["eigenvalues"]:
        raise ValueError("'eigenvalues' is empty")
    lines += ["\n## Closed-loop eigenvalues", "\n| real (1/s) | imag (rad/s) |", "|---|---|"]
    lines += [f"| {re_:.4f} | {im:.4f} |" for re_, im in fs["eigenvalues"]]
    lines.append(f"\nmax real part: {fs['max_real_part']:.6f} (Hurwitz: {fs['hurwitz']})")


def _report_protocol(summary, lines):
    lines.append("\n## Protocol")
    lines.append(f"\nverdict: {summary['verdict']} after {summary['rounds']} rounds, "
                 f"{summary['messages']} messages")
    lines.append("\n| round | kind | count |")
    lines.append("|---|---|---|")
    for entry in summary["per_round"]:
        for kind, count in sorted(entry["messages"].items()):
            lines.append(f"| {entry['round']} | {kind} | {count} |")


def _report_sim(summary, lines):
    lines.append("\n## Simulation")
    steady = summary["steady_state"]
    lines.append(f"\nmax |d_omega(t_end)|: {summary['max_abs_omega_end']:.3e} rad/s")
    lines.append(f"power balance residual: {steady['power_balance_residual']:.3e} pu")
    settle = summary["settling_time_s"]
    lines.append("settling time (||x - x_end|| < 1e-4): "
                 + (f"{settle:.3f} s" if settle is not None else "not settled"))
    peaks = summary["peak_abs_omega"]
    if peaks:
        lines.append("\n| bus | peak |d_omega| (rad/s) |")
        lines.append("|---|---|")
        for bus in sorted(peaks):
            lines.append(f"| {bus} | {peaks[bus]:.4e} |")


@contextlib.contextmanager
def _artifact(out_dir, name):
    """The artifact ``name`` in ``out_dir``, open for reading; a damaged one
    (not JSON, or not as its command writes it) is an error naming it."""
    try:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            yield fh
    except KeyError as exc:
        raise GridcertError(f"{name}: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        raise GridcertError(f"{name}: {exc}") from None


def cmd_report(args):
    found = False
    lines = ["# gridcert run report"]
    for name, render in ((ASSESS_JSON, _report_assess), (PROTOCOL_JSON, _report_protocol),
                         (SIM_JSON, _report_sim)):
        if os.path.exists(os.path.join(args.out, name)):
            with _artifact(args.out, name) as fh:
                render(json.load(fh), lines)
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
    p.add_argument("--variant", choices=[*certify.VARIANTS, "both"],
                   default="transformed")
    p.add_argument("--poles-scale", type=float, default=1.0,
                   help="uniform scale applied to the desired poles")
    p.set_defaults(func=cmd_assess)

    p = subs.add_parser("protocol", help="run the distributed assessment protocol")
    _add_common(p)
    _add_global_flags(p, default=True)
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
    p.add_argument("--dt", type=float, default=sim.DEFAULT_DT,
                   help="step size, s (a step-size error names the default step, "
                        "halved until RK4 is stable)")
    p.add_argument("--t-end", type=float, default=sim.DEFAULT_T_END,
                   help="final time, s: a whole number of steps")
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
