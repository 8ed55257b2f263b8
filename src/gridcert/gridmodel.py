"""Grid ingestion and per-bus state-space construction.

A grid document (JSON) lists generators, lines and load-step disturbances.
Each bus with its generator becomes an order-3 subsystem with state
``[d_delta (rad), d_omega (rad/s), d_Pm (pu)]``; lines induce rank-one
couplings between neighboring subsystems.  Angles are in radians, speeds
in rad/s and powers in per-unit throughout; no base conversion is done.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridFormatError, InvalidInput

SUBSYSTEM_ORDER = 3


@dataclass
class Generator:
    bus: int
    M: float            # inertia constant, s
    D: float            # damping ratio, pu
    T_T: float          # turbine time constant, s
    poles: list[complex] | None = None   # desired closed-loop eigenvalues, 1/s


@dataclass
class Line:
    from_bus: int
    to_bus: int
    X: float            # reactance, pu


@dataclass
class Disturbance:
    bus: int
    delta_PL: float     # load step magnitude, pu
    t_step: float       # activation time, s


@dataclass
class GridSpec:
    """Validated grid description, indexed once: :meth:`generator` and
    :attr:`bus_ids` read the bus index, :func:`build_subsystems` the line index."""

    base_frequency_hz: float
    generators: list[Generator]
    lines: list[Line]
    disturbances: list[Disturbance] = field(default_factory=list)

    def __post_init__(self):
        # bus -> generator and bus -> {neighbor: X} (both directions), ascending
        self._generator_at = {g.bus: g for g in sorted(self.generators, key=lambda g: g.bus)}
        adjacency = {bus: [] for bus in self._generator_at}
        for ln in self.lines:
            adjacency.setdefault(ln.from_bus, []).append((ln.to_bus, ln.X))
            adjacency.setdefault(ln.to_bus, []).append((ln.from_bus, ln.X))
        self._adjacency = {bus: dict(sorted(pairs)) for bus, pairs in adjacency.items()}

    @property
    def omega_b(self):
        """Base angular frequency, rad/s."""
        return 2.0 * math.pi * self.base_frequency_hz

    @property
    def bus_ids(self):
        return list(self._generator_at)

    def generator(self, bus):
        if bus not in self._generator_at:
            raise InvalidInput(f"no generator at bus {bus}")
        return self._generator_at[bus]


@dataclass
class SubsystemModel:
    """Open-loop model of one bus: ``xdot = A_hat x + sum_j c_j e2 e1^T x_j
    + F d + B u``.  A line couples only neighbor j's angle into this bus's
    speed, so it is one float, its strength ``couplings[j] = c_j``."""

    bus: int
    A_hat: np.ndarray                  # 3x3, mixed units
    B: np.ndarray                      # (3,), input column, 1/s in entry 3
    F: np.ndarray                      # (3,), disturbance column
    couplings: dict[int, float]        # neighbor id -> line strength c_j, 1/s^2

    @property
    def neighbors(self):
        return sorted(self.couplings)


def _type_name(v):
    return type(v).__name__


def _require(doc, key, typ, path):
    if key not in doc:
        raise GridFormatError(f"{path}.{key}", "missing required field")
    v = doc[key]
    if typ is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise GridFormatError(f"{path}.{key}", f"expected number, got {_type_name(v)}")
        try:
            finite = math.isfinite(v)
        except OverflowError:   # an integer beyond the float range
            finite = False
        if not finite:
            raise GridFormatError(f"{path}.{key}", "non-finite number")
        return float(v)
    if typ is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise GridFormatError(f"{path}.{key}", f"expected integer, got {_type_name(v)}")
        return v
    if typ is list:
        if not isinstance(v, list):
            raise GridFormatError(f"{path}.{key}", f"expected list, got {_type_name(v)}")
        return v
    raise AssertionError(typ)


def _optional_list(doc, key):
    """The list under a top-level key; an absent key reads as empty."""
    return _require(doc, key, list, "$") if key in doc else []


def _parse_pole(entry, path):
    try:
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            if not math.isfinite(entry):
                raise GridFormatError(path, "non-finite pole")
            return complex(entry)
        if (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                        and math.isfinite(c) for c in entry)):
            return complex(entry[0], entry[1])
    except OverflowError:   # an integer beyond the float range
        raise GridFormatError(path, "non-finite pole") from None
    raise GridFormatError(path, "pole must be a number or a [re, im] pair")


def parse_grid(text):
    """Parse and validate a grid document.

    Accepts a JSON string (or an already-decoded dict) following the schema
    documented in the README.  Raises :class:`GridFormatError` with a
    path-qualified message on any violation.
    """
    if isinstance(text, (bytes, str)):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError: syntax, undecodable bytes, or an over-long integer
            raise GridFormatError("$", f"invalid JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise GridFormatError("$", "document root must be an object")

    freq = _require(doc, "base_frequency_hz", float, "$")
    if freq <= 0:
        raise GridFormatError("$.base_frequency_hz", "must be positive")

    generators = []
    seen_buses = set()
    for k, item in enumerate(_require(doc, "generators", list, "$")):
        path = f"$.generators[{k}]"
        if not isinstance(item, dict):
            raise GridFormatError(path, "expected object")
        bus = _require(item, "bus", int, path)
        if bus in seen_buses:
            raise GridFormatError(f"{path}.bus", f"duplicate generator at bus {bus}")
        seen_buses.add(bus)
        M = _require(item, "M", float, path)
        D = _require(item, "D", float, path)
        TT = _require(item, "T_T", float, path)
        if M <= 0:
            raise GridFormatError(f"{path}.M", "nonpositive inertia")
        if TT <= 0:
            raise GridFormatError(f"{path}.T_T", "nonpositive turbine time constant")
        if D < 0:
            raise GridFormatError(f"{path}.D", "negative damping")
        poles = None
        if "control" in item:
            raw = _require(item, "control", list, path)
            poles = [_parse_pole(p, f"{path}.control[{m}]") for m, p in enumerate(raw)]
            if len(poles) != SUBSYSTEM_ORDER:
                raise GridFormatError(
                    f"{path}.control", f"expected {SUBSYSTEM_ORDER} poles, got {len(poles)}")
        generators.append(Generator(bus=bus, M=M, D=D, T_T=TT, poles=poles))
    if not generators:
        raise GridFormatError("$.generators", "at least one generator required")

    lines = []
    seen_pairs = set()
    for k, item in enumerate(_optional_list(doc, "lines")):
        path = f"$.lines[{k}]"
        if not isinstance(item, dict):
            raise GridFormatError(path, "expected object")
        fb = _require(item, "from", int, path)
        tb = _require(item, "to", int, path)
        X = _require(item, "X", float, path)
        if X <= 0:
            raise GridFormatError(f"{path}.X", "nonpositive reactance")
        if fb == tb:
            raise GridFormatError(path, f"self-loop at bus {fb}")
        for b in (fb, tb):
            if b not in seen_buses:
                raise GridFormatError(path, f"line references unknown bus {b}")
        key = (min(fb, tb), max(fb, tb))
        if key in seen_pairs:
            raise GridFormatError(path, f"duplicate line between buses {key[0]} and {key[1]}")
        seen_pairs.add(key)
        lines.append(Line(from_bus=fb, to_bus=tb, X=X))

    disturbances = []
    for k, item in enumerate(_optional_list(doc, "disturbances")):
        path = f"$.disturbances[{k}]"
        if not isinstance(item, dict):
            raise GridFormatError(path, "expected object")
        bus = _require(item, "bus", int, path)
        if bus not in seen_buses:
            raise GridFormatError(f"{path}.bus", f"unknown bus {bus}")
        mag = _require(item, "delta_PL", float, path)
        t0 = _require(item, "t_step", float, path)
        if t0 < 0:
            raise GridFormatError(f"{path}.t_step", "negative step time")
        disturbances.append(Disturbance(bus=bus, delta_PL=mag, t_step=t0))

    return GridSpec(base_frequency_hz=freq, generators=generators,
                    lines=lines, disturbances=disturbances)


def load_grid(path):
    with open(path, "rb") as fh:
        return parse_grid(fh.read())


def build_subsystems(grid):
    """Construct the open-loop subsystem models, sorted by bus id.

    For bus i with inertia M, damping D, turbine constant T_T and neighbor
    reactances X_ij (wb = 2*pi*f_base):

        A_hat = [[0,                      1,       0      ],
                 [-(wb/M)*sum_j(1/X_ij), -D/M,     wb/M   ],
                 [0,                      0,      -1/T_T  ]]
        B = [0, 0, 1/T_T],  F = [0, -wb/M, 0]
        coupling strength to neighbor j: c_j = (wb/M)/X_ij.
    """
    wb = grid.omega_b
    out = []
    for bus, g in grid._generator_at.items():
        reactances = grid._adjacency[bus]
        susceptance_sum = sum(1.0 / X for X in reactances.values())
        A = np.array([
            [0.0, 1.0, 0.0],
            [-(wb / g.M) * susceptance_sum, -g.D / g.M, wb / g.M],
            [0.0, 0.0, -1.0 / g.T_T],
        ])
        B = np.array([0.0, 0.0, 1.0 / g.T_T])
        F = np.array([0.0, -wb / g.M, 0.0])
        couplings = {j: (wb / g.M) / X for j, X in reactances.items()}
        out.append(SubsystemModel(bus=bus, A_hat=A, B=B, F=F, couplings=couplings))
    return out


def _gain_vector(v, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (SUBSYSTEM_ORDER,):
        raise InvalidInput(f"{what} has shape {v.shape}, want ({SUBSYSTEM_ORDER},)")
    return v


def assemble_full(subsystems, gains):
    """Block matrix of the interconnected closed-loop system.

    ``gains`` maps bus id to a :class:`~gridcert.control.GainSet`; a bus
    without one is open loop, so ``{}`` assembles the open loop.  Diagonal
    blocks are ``A_hat_i - B_i K_i^T``; the (i, j) block is
    ``c_ij e2 e1^T - B_i K_ij^T`` for each line coupling of i, and zero
    otherwise.  A global gain on a bus that is not a line neighbor raises
    :class:`InvalidInput`.
    """
    subs = sorted(subsystems, key=lambda s: s.bus)
    index = {s.bus: k for k, s in enumerate(subs)}
    n = SUBSYSTEM_ORDER
    A = np.zeros((n * len(subs), n * len(subs)))
    for bi, s in enumerate(subs):
        rows = slice(n * bi, n * bi + n)
        gs = gains.get(s.bus)
        K = np.zeros(n) if gs is None else _gain_vector(gs.local, f"local gain for bus {s.bus}")
        global_ = {} if gs is None else gs.global_
        stray = sorted(set(global_) - set(s.couplings))
        if stray:
            raise InvalidInput(f"global gain {s.bus}->{stray[0]} is not on a line of bus {s.bus}")
        A[rows, rows] = s.A_hat - np.outer(s.B, K)
        for j, c in s.couplings.items():
            if j not in index:
                raise InvalidInput(f"bus {s.bus} references unknown neighbor {j}")
            bj = n * index[j]
            A[n * bi + 1, bj] = c     # the line's one entry, (2, 1) of the block
            if j in global_:
                A[rows, bj:bj + n] -= np.outer(
                    s.B, _gain_vector(global_[j], f"global gain {s.bus}->{j}"))
    return A


def disturbance_matrix(subsystems):
    """Stacked disturbance columns: (3N, N), one column per bus."""
    subs = sorted(subsystems, key=lambda s: s.bus)
    n = SUBSYSTEM_ORDER
    F = np.zeros((n * len(subs), len(subs)))
    for k, s in enumerate(subs):
        F[n * k:n * k + n, k] = s.F
    return F
