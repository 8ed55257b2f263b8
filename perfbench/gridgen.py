"""Seeded ring-plus-chord grid generator for the benchmark.

Bus k (1..N) gets a line to bus k+1 (bus N closes the ring to bus 1); the
remaining ``n_lines - N`` lines are chords between distinct, non-adjacent
bus pairs drawn at random.  Generator parameters follow the bundled
three-bus grid: M in [6, 14] s, T_T in [0.8, 1.2] s, D = 1, three distinct
real desired poles near -24, -39 and -42 1/s, reactances in [0.4, 0.6] pu.
One 0.1 pu load step hits bus 1 at t = 0.5 s.

The output depends only on (N, n_lines, seed): the same arguments give
byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import random

POLE_BANDS = ((-26.0, -21.0), (-40.0, -36.0), (-45.0, -41.0))


def ring_chord_doc(n_buses, n_lines, seed):
    """Grid document (a dict in the schema ``gridcert.gridmodel.parse_grid`` reads)."""
    if n_buses < 4:
        raise ValueError("a ring with chords needs at least 4 buses")
    max_lines = n_buses * (n_buses - 1) // 2
    if not n_buses <= n_lines <= max_lines:
        raise ValueError(f"n_lines must lie in [{n_buses}, {max_lines}]")
    rng = random.Random(seed)
    pairs = {(k, k % n_buses + 1) for k in range(1, n_buses + 1)}
    pairs = {(min(p), max(p)) for p in pairs}
    chords = []
    while len(pairs) + len(chords) < n_lines:
        i, j = sorted(rng.sample(range(1, n_buses + 1), 2))
        if (i, j) in pairs or (i, j) in chords:
            continue
        chords.append((i, j))
    lines = sorted(pairs) + chords

    def uniform(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    generators = []
    for bus in range(1, n_buses + 1):
        generators.append({
            "bus": bus,
            "M": uniform(6.0, 14.0),
            "D": 1.0,
            "T_T": uniform(0.8, 1.2),
            "control": [uniform(lo, hi) for lo, hi in POLE_BANDS],
        })
    return {
        "base_frequency_hz": 60.0,
        "generators": generators,
        "lines": [{"from": i, "to": j, "X": uniform(0.4, 0.6)} for i, j in lines],
        "disturbances": [{"bus": 1, "delta_PL": 0.1, "t_step": 0.5}],
    }


def write_grid(path, n_buses, n_lines, seed):
    """Write the grid JSON to ``path``; return its description for the run record."""
    doc = ring_chord_doc(n_buses, n_lines, seed)
    data = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return {
        "generator": "ring_chord",
        "seed": seed,
        "buses": len(doc["generators"]),
        "lines": len(doc["lines"]),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
