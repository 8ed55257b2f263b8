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
    speed, so it is one float, its strength ``couplings[j] = c_j``.

    :func:`build_subsystems` gives each bus read-only rows of arrays
    stacked over the grid, so writing into one bus's model raises."""

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


def _at(base, k):
    """The path of item ``k`` of the list at ``base`` (``base`` itself when
    ``k`` is None); formatted only for an error."""
    return base if k is None else f"{base}[{k}]"


def _require(doc, key, typ, base, k=None):
    """``doc[key]`` checked as ``typ``; ``doc`` is at path ``_at(base, k)``."""
    if key not in doc:
        raise GridFormatError(f"{_at(base, k)}.{key}", "missing required field")
    v = doc[key]
    # the common case first: an exact float, int or list needs no further checks
    if type(v) is typ and (typ is not float or math.isfinite(v)):
        return v
    path = _at(base, k)
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


def _parse_pole(entry, base, k, m):
    """Pole ``m`` of the control list of generator ``k``."""
    if type(entry) is float and math.isfinite(entry):
        return complex(entry)
    path = f"{_at(base, k)}.control[{m}]"
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

    Accepts JSON text (str or bytes) following the schema documented in the
    README.  Raises :class:`GridFormatError` with a path-qualified message
    on any violation.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: syntax, undecodable bytes, or an over-long integer
        raise GridFormatError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GridFormatError("$", "document root must be an object")

    freq = _require(doc, "base_frequency_hz", float, "$")
    if freq <= 0:
        raise GridFormatError("$.base_frequency_hz", "must be positive")

    generators = []
    seen_buses = set()
    base = "$.generators"
    for k, item in enumerate(_require(doc, "generators", list, "$")):
        if not isinstance(item, dict):
            raise GridFormatError(_at(base, k), "expected object")
        bus = _require(item, "bus", int, base, k)
        if bus in seen_buses:
            raise GridFormatError(f"{_at(base, k)}.bus", f"duplicate generator at bus {bus}")
        seen_buses.add(bus)
        M = _require(item, "M", float, base, k)
        D = _require(item, "D", float, base, k)
        TT = _require(item, "T_T", float, base, k)
        if M <= 0:
            raise GridFormatError(f"{_at(base, k)}.M", "nonpositive inertia")
        if TT <= 0:
            raise GridFormatError(f"{_at(base, k)}.T_T", "nonpositive turbine time constant")
        if D < 0:
            raise GridFormatError(f"{_at(base, k)}.D", "negative damping")
        poles = None
        if "control" in item:
            raw = _require(item, "control", list, base, k)
            poles = [_parse_pole(p, base, k, m) for m, p in enumerate(raw)]
            if len(poles) != SUBSYSTEM_ORDER:
                raise GridFormatError(f"{_at(base, k)}.control",
                                      f"expected {SUBSYSTEM_ORDER} poles, got {len(poles)}")
        generators.append(Generator(bus=bus, M=M, D=D, T_T=TT, poles=poles))
    if not generators:
        raise GridFormatError("$.generators", "at least one generator required")

    lines = []
    seen_pairs = set()
    base = "$.lines"
    for k, item in enumerate(_optional_list(doc, "lines")):
        if not isinstance(item, dict):
            raise GridFormatError(_at(base, k), "expected object")
        fb = _require(item, "from", int, base, k)
        tb = _require(item, "to", int, base, k)
        X = _require(item, "X", float, base, k)
        if X <= 0:
            raise GridFormatError(f"{_at(base, k)}.X", "nonpositive reactance")
        if fb == tb:
            raise GridFormatError(_at(base, k), f"self-loop at bus {fb}")
        for b in (fb, tb):
            if b not in seen_buses:
                raise GridFormatError(_at(base, k), f"line references unknown bus {b}")
        key = (min(fb, tb), max(fb, tb))
        if key in seen_pairs:
            raise GridFormatError(_at(base, k),
                                  f"duplicate line between buses {key[0]} and {key[1]}")
        seen_pairs.add(key)
        lines.append(Line(from_bus=fb, to_bus=tb, X=X))

    disturbances = []
    base = "$.disturbances"
    for k, item in enumerate(_optional_list(doc, "disturbances")):
        if not isinstance(item, dict):
            raise GridFormatError(_at(base, k), "expected object")
        bus = _require(item, "bus", int, base, k)
        if bus not in seen_buses:
            raise GridFormatError(f"{_at(base, k)}.bus", f"unknown bus {bus}")
        mag = _require(item, "delta_PL", float, base, k)
        t0 = _require(item, "t_step", float, base, k)
        if t0 < 0:
            raise GridFormatError(f"{_at(base, k)}.t_step", "negative step time")
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

    The matrices of all buses are formed at once, entry by entry over the
    grid, as one read-only (N, 3, 3) stack and two (N, 3) stacks; each
    model holds its bus's rows of them.  An entry that overflows raises
    :class:`InvalidInput` naming the first such bus and the entry.
    """
    wb = grid.omega_b
    gens = list(grid._generator_at.values())
    adjacency = [grid._adjacency[g.bus] for g in gens]
    M = np.array([g.M for g in gens])
    D = np.array([g.D for g in gens])
    T_T = np.array([g.T_T for g in gens])
    susceptance_sum = np.array([sum(1.0 / X for X in r.values()) for r in adjacency])
    A = np.zeros((len(gens), SUBSYSTEM_ORDER, SUBSYSTEM_ORDER))
    B = np.zeros((len(gens), SUBSYSTEM_ORDER))
    F = np.zeros((len(gens), SUBSYSTEM_ORDER))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below, entry by entry
        wb_M = wb / M
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = -wb_M * susceptance_sum
        A[:, 1, 1] = -D / M
        A[:, 1, 2] = wb_M
        A[:, 2, 2] = -1.0 / T_T
        B[:, 2] = 1.0 / T_T
        F[:, 1] = -wb / M
    for entry, values in (("wb/M", wb_M), ("D/M", A[:, 1, 1]), ("1/T_T", B[:, 2]),
                          ("(wb/M) sum_j(1/X_ij)", A[:, 1, 0])):
        if not np.isfinite(values).all():
            raise InvalidInput(f"bus {gens[np.argmin(np.isfinite(values))].bus}: "
                               f"{entry} overflows")
    for stack in (A, B, F):
        stack.flags.writeable = False
    return [SubsystemModel(bus=g.bus, A_hat=a, B=b, F=f,
                           couplings={j: c / X for j, X in r.items()})
            for g, r, a, b, f, c in zip(gens, adjacency, A, B, F, wb_M.tolist())]


def _gain_vector(v, what):
    try:
        v = np.asarray(v)
    except ValueError:                  # ragged: kept as objects for the message
        v = np.array(v, dtype=object)
    if v.dtype.kind not in "biuf" or not np.isfinite(v).all():
        raise InvalidInput(f"{what} must be finite real numbers, got {v.tolist()!r}")
    if v.shape != (SUBSYSTEM_ORDER,):
        raise InvalidInput(f"{what} has shape {v.shape}, want ({SUBSYSTEM_ORDER},)")
    return v.astype(float, copy=False)


def assemble_full(subsystems, gains):
    """Block matrix of the interconnected closed-loop system.

    ``gains`` maps bus id to a :class:`~gridcert.control.GainSet`; a bus
    without one is open loop, so ``{}`` assembles the open loop.  Diagonal
    blocks are ``A_hat_i - B_i K_i^T``; the (i, j) block is
    ``c_ij e2 e1^T - B_i K_ij^T`` for each line coupling of i, and zero
    otherwise.  A global gain on a bus that is not a line neighbor raises
    :class:`InvalidInput`.  The gains are checked bus by bus; the diagonal
    blocks, the line entries and the global gains are then written with
    one indexed assignment each.
    """
    subs = sorted(subsystems, key=lambda s: s.bus)
    index = {s.bus: k for k, s in enumerate(subs)}
    n, N = SUBSYSTEM_ORDER, len(subs)
    Ks, lines, globals_ = [], [], []    # local gains; (i, j, c) per line end; (i, j, K_ij)
    for bi, s in enumerate(subs):
        gs = gains.get(s.bus)
        Ks.append(np.zeros(n) if gs is None
                  else _gain_vector(gs.local, f"local gain for bus {s.bus}"))
        global_ = {} if gs is None else gs.global_
        stray = sorted(set(global_) - set(s.couplings))
        if stray:
            raise InvalidInput(f"global gain {s.bus}->{stray[0]} is not on a line of bus {s.bus}")
        for j, c in s.couplings.items():
            if j not in index:
                raise InvalidInput(f"bus {s.bus} references unknown neighbor {j}")
            lines.append((bi, index[j], c))
            if j in global_:
                globals_.append((bi, index[j],
                                 _gain_vector(global_[j], f"global gain {s.bus}->{j}")))
    B = np.reshape([s.B for s in subs], (N, n))
    A = np.zeros((N, n, N, n))          # A[i, :, j, :] is the (i, j) block
    k = np.arange(N)
    A[k, :, k, :] = (np.reshape([s.A_hat for s in subs], (N, n, n))
                     - B[:, :, None] * np.reshape(Ks, (N, n))[:, None, :])
    if lines:
        i, j, c = zip(*lines)
        A[i, 1, j, 0] = c               # the line's one entry, (2, 1) of the block
    if globals_:
        i, j, K = zip(*globals_)
        A[i, :, j, :] -= B[list(i), :, None] * np.array(K)[:, None, :]
    return A.reshape(N * n, N * n)


def disturbance_matrix(subsystems):
    """Stacked disturbance columns: (3N, N), one column per bus."""
    subs = sorted(subsystems, key=lambda s: s.bus)
    n = SUBSYSTEM_ORDER
    F = np.zeros((n * len(subs), len(subs)))
    for k, s in enumerate(subs):
        F[n * k:n * k + n, k] = s.F
    return F
