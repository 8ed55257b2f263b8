"""Fixed-step time-domain simulation of the assembled closed loop.

Classical 4th-order Runge-Kutta on ``xdot = A x + F d(t)`` with
piecewise-constant load-step disturbances.  The disturbance is sampled
once per step at the left endpoint (zero-order hold), so a step whose
activation time lies on the time grid is integrated without any
discontinuity error; off-grid activation times snap to the next grid
point.  For a constant input the exact equilibrium ``-inv(A) F d`` is a
fixed point of the scheme, which keeps the steady-state checks sharp.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergedSimulation, InvalidInput
from .linalg import _numeric

DEFAULT_DT = 1e-3     # s; fastest grid mode here is ~ -43 1/s, so dt*|lam| < 0.05
DEFAULT_T_END = 10.0  # s

SETTLE_THRESHOLD = 1e-4  # state-deviation bound of settling_time
SETTLE_BLOCK = 65536     # state values per block of settling_time; bounds its temporaries

CSV_HEADER = ["t", "bus", "delta_rad", "omega_rad_s", "Pm_pu", "ul_pu", "ug_pu", "d_pu"]
CSV_BLOCK_ROWS = 8192   # rows formatted per write; bounds the transient text
CSV_FORMAT_CHUNK = 8190  # values per call of the number formatter (whole rows); bounds its arrays
REPEAT_CHUNK = 256      # the most RK4 steps between two state compares
SPARSE_FILL = 0.008     # A's nonzeros per entry below which RK4 steps the nonzeros, not M


@dataclass
class SimConfig:
    """The horizon ``t_end`` (s), a whole number of steps ``dt`` (s), and the
    load steps ``disturbances``."""

    t_end: float = DEFAULT_T_END
    dt: float = DEFAULT_DT
    disturbances: list = field(default_factory=list)   # gridmodel.Disturbance

    def __post_init__(self):
        # also rejects NaN and infinity, which would size an unbounded time grid
        if not (0.0 < self.dt <= self.t_end < math.inf):
            raise InvalidInput(
                f"need 0 < dt <= t_end < inf, got dt={self.dt}, t_end={self.t_end}")
        if not _whole_steps(self.t_end, self.dt):
            whole = math.floor(self.t_end / self.dt)
            raise InvalidInput(
                f"t_end={self.t_end!r} s is {self.t_end / self.dt!r} steps of dt={self.dt!r} s, "
                f"not a whole number: use t_end={_whole_horizon(whole, self.dt)!r} or "
                f"{_whole_horizon(whole + 1, self.dt)!r}")

    def samples(self, dt=None):
        """The number of sample times ``t_end / dt + 1`` at ``dt``, this
        config's step by default; inf when ``t_end / dt`` overflows."""
        steps = self.t_end / (self.dt if dt is None else dt)
        return round(steps) + 1 if steps < math.inf else math.inf

    def time_grid(self):
        """The sample times ``0, dt, ..., t_end``; InvalidInput if they cannot be allocated."""
        try:
            return np.arange(self.samples()) * self.dt
        except (OverflowError, ValueError, MemoryError):   # inf steps; past the largest array
            raise InvalidInput(self._too_long()) from None

    def _too_long(self):
        return (f"t_end={self.t_end:g} s at dt={self.dt:g} s needs "
                f"{self.samples():.4g} samples, more than can be allocated")


def _whole_steps(t_end, dt):
    """Whether ``t_end / dt`` is within rounding (a relative 4 eps) of a whole
    number; decimals that divide give a quotient within 1.5 eps of one.  An
    overflowed (inf) count passes: :meth:`SimConfig.time_grid` rejects it."""
    steps = t_end / dt
    return steps == math.inf or abs(math.remainder(steps, 1.0)) <= 4 * np.finfo(float).eps * steps


def _whole_horizon(k, dt):
    """``k >= 1`` steps of ``dt`` as a horizon that passes :class:`SimConfig`:
    in 15 significant digits when those still pass (0.12, not 3 * 0.04)."""
    short = float(f"{k * dt:.15g}")
    return short if dt <= short and _whole_steps(short, dt) else k * dt


@dataclass
class SimResult:
    """Recorded trajectories, one column per bus where applicable."""

    bus_ids: list[int]
    t: np.ndarray                 # (n_samples,), s
    states: np.ndarray            # (n_samples, 3N): [delta, omega, Pm] per bus
    d: np.ndarray                 # (n_samples, N), pu
    u_local: np.ndarray           # (n_samples, N), pu
    u_global: np.ndarray          # (n_samples, N), pu
    A_full: np.ndarray
    F_full: np.ndarray

    def omega(self, bus):
        return self.states[:, 3 * self.bus_ids.index(bus) + 1]

    def to_csv(self, fh):
        """Write the CSV to the text file ``fh`` block by block, so the whole
        text is never held at once.  One row per (sample, bus) in
        ``CSV_HEADER`` order: each value as ``repr`` of its float with
        ``-0.0`` written as ``0.0``, rows ended by ``\\r\\n`` (the bytes
        ``csv.writer`` gives for the same cells).

        Each distinct sample is formatted once per block, or not at all when
        the previous block had it: ``t`` once per sample, and the per-bus
        row bodies once per distinct value row.  ``repr`` depends only on a
        float's bits, so a repeated sample (the zeros before a load step, a
        settled RK4 cycle) reuses its text and the bytes are those of
        formatting every cell.  A block's rows, after the ``-0.0`` step, are
        keyed by :func:`_keys` and compared word for word with the first row
        of their key, then with the previous block's row of that key (whose
        text is kept until this block is written); a row that differs (a key
        collision) is formatted as its own.  The block's text is one join of
        time texts and row bodies gathered by array indexing; the text of
        the numbers comes from :func:`_repr_cells`, ``CSV_FORMAT_CHUNK``
        values at a time (a chunk of times spans blocks)."""
        n_b = len(self.bus_ids)
        fh.write(",".join(CSV_HEADER) + "\r\n")
        prefixes = [f",{bus}," for bus in self.bus_ids]
        width = max(map(len, prefixes))
        prefixes = np.frombuffer("".join(p.ljust(width, "\0") for p in prefixes).encode(),
                                 np.uint8).reshape(n_b, width)
        block = max(1, CSV_BLOCK_ROWS // n_b)
        # the previous block's first row of each key: the keys (sorted), words and bodies
        kept_keys, kept_words, kept_bodies = np.empty(0, np.uint64), None, None
        times, formatted = "", 0                     # the time texts not yet written
        for k in range(0, self.t.size, block):
            ks = slice(k, k + block)
            while formatted < min(k + block, self.t.size):   # a chunk of times spans blocks
                times += _csv_times(self.t[formatted:formatted + CSV_FORMAT_CHUNK])
                formatted += CSV_FORMAT_CHUNK
            vals = np.dstack([self.states[ks].reshape(-1, n_b, 3),
                              self.u_local[ks], self.u_global[ks], self.d[ks]])
            with np.errstate(invalid="ignore"):      # a signalling NaN still prints nan
                vals += 0.0                          # normalizes -0.0
            words = vals.reshape(len(vals), -1).view(np.uint64)
            row_keys = _keys(words)
            keys, first, inverse = np.unique(row_keys, return_index=True, return_inverse=True)
            source = first[inverse]                  # the first row of each row's key
            own = np.flatnonzero((words != words[source]).any(axis=1))
            source[own] = own                        # a key collision: a text of its own
            distinct, rank = np.unique(source, return_inverse=True)
            bodies = np.empty((len(distinct), n_b), object)
            new = np.ones(len(distinct), bool)
            if kept_keys.size:
                at = np.searchsorted(kept_keys, row_keys[distinct]).clip(max=kept_keys.size - 1)
                new = (kept_words[at] != words[distinct]).any(axis=1)
                bodies[~new] = kept_bodies[at[~new]]
            bodies[new] = np.array(_csv_bodies(vals[distinct[new]].reshape(-1, 6), prefixes),
                                   object).reshape(-1, n_b)
            kept_keys, kept_words, kept_bodies = keys, words[first], bodies[rank[first]]
            parts = np.empty((len(vals), n_b, 2), object)   # (time, body) of each row
            *texts, times = times.split("\n", len(vals))
            parts[:, :, 0] = np.array(texts, object)[:, None]
            parts[:, :, 1] = bodies[rank]
            fh.write("".join(parts.ravel().tolist()))


def _csv_bodies(values, prefixes):
    """Row bodies ``{prefix}{v0},...,{v5}\\r\\n``, one per row of the (rows, 6)
    ``values``; row r takes the NUL-padded prefix ``prefixes[r % len(prefixes)]``."""
    rows = CSV_FORMAT_CHUNK // 6
    bodies = []
    for r in range(0, len(values), rows):
        chunk = values[r:r + rows]
        cells = _repr_cells(chunk.ravel()).reshape(len(chunk), 6, -1)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -2:] = np.frombuffer(b"\r\n", np.uint8)
        pre = prefixes.take(np.arange(r, r + len(chunk)) % len(prefixes), axis=0)
        text = _ascii(np.concatenate([pre, cells.reshape(len(chunk), -1)], axis=1))
        bodies += text.splitlines(keepends=True)
    return bodies


def _csv_times(t):
    """``repr`` of each sample time, ``-0.0`` as ``0.0``, each ended by ``\\n``."""
    with np.errstate(invalid="ignore"):              # a signalling NaN still prints nan
        cells = _repr_cells(t + 0.0)
    cells[:, -1] = ord("\n")
    return _ascii(cells)


def _ascii(cells):
    """The ASCII text of the byte array ``cells`` in row order, NUL bytes left out."""
    return str(cells[cells != 0].data, "ascii")


# Shortest round-trip digits (Schubfach: R. Giulietti, "The Schubfach way to
# render doubles", 2020; the steps follow its Java reference implementation,
# DoubleToDecimal).  A normal double v = c 2**q lies in the rounding
# interval of exactly the decimals between the midpoints to its neighbours.
# With k = floor(log10(2**q)) (of 3/4 2**q at a power of two, where the lower
# neighbour is closer), that interval holds one or two multiples of 10**k and
# at most one of 10**(k+1); the shortest is the one of 10**(k+1) if present,
# otherwise the one of 10**k closest to v, ties to even.  The bounds are
# scaled by 10**-k with a 126-bit g ~ 10**-k 2**(125 - floor(log2 10**-k)),
# rounded to odd, so every comparison is exact in 64-bit integers.  These
# are the digits ``repr`` prints: the shortest that round-trip, nearest to v.

_K_MIN, _K_MAX = -324, 292     # 10**k for the normal doubles
_M32 = np.uint64(0xFFFFFFFF)
_R = 35                        # byte of the digit source holding the units digit
_SRC = 56                      # bytes per row of the digit source: windows start at 0..20
_V16 = np.dtype((np.void, 16))
_V20 = np.dtype((np.void, 20))


@functools.cache
def _tables():
    """Read-only tables, built on first use: g for each k as its 63-bit limbs
    g1, g0 (g = g1 2**63 + g0) with their 32-bit halves; the 4-digit groups
    0000..9999 and, from index 10000, the same without leading zeros (NUL
    bytes, none at all for 0); the exponent suffixes ``e-324``..``e+308``
    in 8 NUL-padded bytes each, then 8 NUL bytes; and 10**0..10**16."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e = -k
        r = (10 ** e).bit_length() - 1 if e >= 0 else -(10 ** -e).bit_length()   # floor(log2)
        if e >= 0:
            g = (10 ** e << 125 - r if r <= 125 else 10 ** e >> r - 125) + 1
        else:
            g = (1 << 125 - r) // 10 ** -e + 1
        g1.append(g >> 63)
        g0.append(g & (1 << 63) - 1)
    g1, g0 = np.array(g1, np.uint64), np.array(g0, np.uint64)
    v = np.arange(10000, dtype=np.int16)
    groups = np.empty((2, 10000, 4), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        groups[:, :, j] = v // place % 10 + ord("0")
        groups[1, :, j] *= v >= place
    groups = groups.view(np.uint32).ravel()
    suffix = b"".join(b"%-8s" % (b"e%+03d" % x) for x in range(-324, 309)).replace(b" ", b"\0")
    tables = {"g": (g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32, g1, g0),
              "groups": groups,
              "suffix": np.frombuffer(suffix + b"\0" * 8, np.uint64),
              "pow10": 10 ** np.arange(17, dtype=np.uint64)}
    for a in (*tables["g"], groups, tables["pow10"]):
        a.flags.writeable = False
    return tables


def _mul(a_lo, a_hi, b_lo, b_hi):
    """The 128-bit product (hi, lo) of a = a_hi 2**32 + a_lo and b = b_hi 2**32 + b_lo."""
    p00 = a_lo * b_lo
    p01 = a_lo * b_hi
    p10 = a_hi * b_lo
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a_hi * b_hi + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (mid << 32) | (p00 & _M32)


def _add(hi, lo, v, m, sign):
    """The 128-bit (hi, lo) + sign * (v << m), for 0 < m < 64."""
    d_lo, d_hi = v << m, v >> (np.uint64(64) - m)
    if sign > 0:
        s = lo + d_lo
        return hi + d_hi + (s < lo), s
    return hi - d_hi - (lo < d_lo), lo - d_lo


def _rop(y1, y0, x1):
    """Schubfach's rop: floor(g c / 2**127), odd when inexact, from the
    products g1 c = (y1, y0) and the high word x1 of g0 c."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z << 1) != 0)


def _scaled_bounds(c, q, k, irregular, tables):
    """Schubfach's vb, vbl, vbr: 4v and the interval ends 4v -/+ 2 (4v - 1
    at a power of two) times 10**-k, each rounded to odd, for v = c 2**q;
    the ends moved by one unit where an odd c excludes them."""
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)   # q + floor(log2 10**-k) + 2
    g1_lo, g1_hi, g0_lo, g0_hi, g1, g0 = (a.take(k - _K_MIN) for a in tables["g"])
    # vb is g (4c 2**h) / 2**127; the ends' products differ by g 2**(h+1) (g 2**h)
    cp = c << (h + 2)
    cp_lo, cp_hi = cp & _M32, cp >> 32
    x1, x0 = _mul(g0_lo, g0_hi, cp_lo, cp_hi)
    y1, y0 = _mul(g1_lo, g1_hi, cp_lo, cp_hi)
    odd = c & 1
    m = h + 1
    vbr = _rop(*_add(y1, y0, g1, m, 1), _add(x1, x0, g0, m, 1)[0]) - odd
    m = m - irregular
    vbl = _rop(*_add(y1, y0, g1, m, -1), _add(x1, x0, g0, m, -1)[0]) + odd
    return _rop(y1, y0, x1), vbl, vbr


def _shortest(bits):
    """(f, e, decpt): f 10**e is the shortest round-trip decimal of the
    magnitude of each normal double with these bits, f without trailing
    zeros, and 10**(decpt - 1) its first digit's place."""
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    frac = bits & np.uint64((1 << 52) - 1)
    q = biased - 1075
    irregular = (frac == 0) & (biased > 1)           # lower neighbour at half the spacing
    k = (q * 661971961083 - irregular * 274743187321) >> 41     # floor(log10(2**q or 3/4 2**q))
    vb, vbl, vbr = _scaled_bounds(frac | np.uint64(1 << 52), q, k, irregular, _tables())
    s = vb >> 2
    s10 = s // 10
    upin = vbl <= s10 * 40                           # 10 floor(s/10) 10**k is in the interval
    wpin = s10 * 40 + 40 <= vbr                      # 10 (floor(s/10) + 1) 10**k is
    short = upin != wpin
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    mid = (s << 2) + 2
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & ((s & 1) != 0)))
    f = np.where(short, s10 + wpin, s + up)           # 10**14 <= f < 10**17
    e = k + short
    decpt = e + 15 + (f >= 10 ** 15) + (f >= 10 ** 16)
    # only a multiple of 10**(k+1) can end in zeros, at most 15 of them
    z = np.flatnonzero(f // 10 * 10 == f)
    if z.size:
        fz, ez = f[z], e[z]
        for p in (8, 4, 2, 1):
            div = fz // 10 ** p
            hit = div * 10 ** p == fz
            fz = np.where(hit, div, fz)
            ez += hit * p
        f[z], e[z] = fz, ez
    return f, e, decpt


def _repr_cells(x):
    """``repr`` of each float64 in ``x`` as a row of NUL-padded ASCII bytes:
    row i with its NUL bytes left out is ``repr(float(x[i]))``, and its last
    two bytes are NUL.

    Zeros and normal values are laid out by place value: the sign, places
    15..0, the point, places -1..-20, then the exponent suffix.  Fixed
    notation is used for a decimal exponent ``decpt`` (the first digit's
    place plus one) with -4 < decpt <= 16, ``d.ddde+XX`` otherwise, as
    ``repr`` does.  NaN, infinities and subnormals are formatted by
    ``repr``: Schubfach's reference keeps two digits there (``4.9e-324``
    where ``repr`` gives ``5e-324``)."""
    t = _tables()
    n = x.size
    cells = np.zeros((n, 48), np.uint8)
    if n == 0:
        return cells
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    regular = (biased != 0) & (biased != 0x7FF)
    f = np.zeros(n, np.uint64)                       # 0 for zeros and the values repr formats
    e = np.zeros(n, np.int64)
    decpt = np.zeros(n, np.int64)
    normal = np.flatnonzero(regular)
    f[normal], e[normal], decpt[normal] = _shortest(bits[normal])
    expo = (decpt <= -4) | (decpt > 16)
    fixed = ~expo
    whole = np.flatnonzero(fixed & (e > 0))          # integers: their zeros before the point
    if whole.size:
        f[whole] *= t["pow10"][e[whole]]
        e[whole] = 0
    # the digits of f, NUL-led, end at byte _R of a row; the row's window
    # that puts the units digit at place e (at 0 for the first digit in
    # exponent notation) fills places 15..0 and -1..-20
    src = np.zeros((n, _SRC), np.uint8)
    src32 = src.view(np.uint32)
    f = f.astype(np.int64)
    for col in range(_R // 4, _R // 4 - 5, -1):
        div = f // 10000
        src32[:, col] = t["groups"].take(f - div * 10000 + (div == 0) * 10000)
        f = div
    window = sliding_window_view(src.ravel(), 20)
    start = np.arange(0, src.size, _SRC) + (_R - 15) + np.where(expo, e - decpt + 1, e)
    cells[:, 1:17].view(_V16)[:, 0] = window[:, :16].view(_V16)[start, 0]
    cells[:, 18:38].view(_V20)[:, 0] = window.view(_V20)[start + 16, 0]
    cells[:, 0] = (bits >> 63).astype(np.uint8) * np.uint8(ord("-"))
    cells[:, 17] = (fixed | (cells[:, 18] != 0)) * np.uint8(ord("."))
    # the zeros fixed notation adds: 0.000ddd and ddd.0
    zero = np.uint8(ord("0"))
    cells[:, 16] |= (fixed & (decpt <= 0)) * zero
    cells[:, 18] |= (fixed & ((decpt <= -1) | (e >= 0))) * zero
    cells[:, 19] |= (fixed & (decpt <= -2)) * zero
    cells[:, 20] |= (fixed & (decpt <= -3)) * zero
    cells.view(np.uint64)[:, 5] = t["suffix"].take(np.where(expo, decpt + 323, 633))
    for r in np.flatnonzero(~regular & (bits << 1 != 0)).tolist():
        text = repr(float(x[r])).encode()
        cells[r] = 0
        cells[r, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _disturbance_profile(disturbances, bus_ids, t):
    """(n_samples, N) zero-order-hold load profile on the time grid."""
    d = np.zeros((t.size, len(bus_ids)))
    for dist in disturbances:
        if dist.bus not in bus_ids:
            raise InvalidInput(f"disturbance references unknown bus {dist.bus}")
        col = bus_ids.index(dist.bus)
        d[t >= dist.t_step - 1e-12, col] += dist.delta_PL
    return d


def _control_series(states, bus_ids, gains):
    n = states.shape[0]
    ul = np.zeros((n, len(bus_ids)))
    ug = np.zeros((n, len(bus_ids)))
    column = {bus: b for b, bus in enumerate(bus_ids)}
    for b, bus in enumerate(bus_ids):
        gs = gains.get(bus)
        if gs is None:
            continue
        ul[:, b] = -(states[:, 3 * b:3 * b + 3] @ gs.local)
        for j, kj in gs.global_.items():
            col = column[j]
            ug[:, b] -= states[:, 3 * col:3 * col + 3] @ kj
    return ul, ug


def rk4_radius(eigenvalues, dt):
    """Spectral radius of the RK4 one-step propagator ``M`` for step ``dt``.

    ``M`` is the degree-4 Taylor polynomial of ``exp(dt A)``, so its
    eigenvalues are that polynomial at ``dt * lambda`` for each eigenvalue
    ``lambda`` of ``A``; above 1 the discrete trajectory grows.  A mode
    slower than about ``eps / dt`` rounds to exactly 1: neutral, not growing.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is inf, or nan: read as inf
        z = dt * np.asarray(eigenvalues)
        rho = float(np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))).max())
    return math.inf if math.isnan(rho) else rho


def _stable_dt(eigenvalues, t_end):
    """``t_end / k`` for the least ``k`` with ``t_end / k <= DEFAULT_DT`` (to
    rounding, as :func:`_whole_steps` reads it), halved until ``rk4_radius <=
    1``: the default step when it passes, else within a factor of 2 of the RK4
    limit.  Halving is exact, so the step is ``t_end / (2**j k)`` and divides
    ``t_end``."""
    steps = min(t_end / DEFAULT_DT, np.finfo(float).max)   # inf: every step is whole
    dt = t_end / (round(steps) if _whole_steps(t_end, DEFAULT_DT) else math.ceil(steps))
    while rk4_radius(eigenvalues, dt) > 1.0:
        dt /= 2
    return dt


def integrate(A, F, d, t, x0=None):
    """Classical RK4 for ``xdot = A x + F d(t)`` with zero-order-hold input.

    ``d`` has one row per time sample; row k is held constant over the
    step starting at ``t[k]``.  ``t`` must be uniform with step ``h``.
    The step is chosen once, from A's order n and nonzero count.  With at
    least ``SPARSE_FILL * n * n`` nonzeros (every dense A) one RK4 step is
    ``x <- M x + g[k]``, ``g[k] = h P F d[k]``, ``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` and
    ``M = I + hA P``, built once in at most three n x n arrays besides
    ``A`` (:func:`_propagator`) before the history is allocated, and
    ``g`` after it, from ``hP F``, which is then dropped: the steps hold
    ``M``, ``g`` and the history.  With fewer (a large grid's closed loop)
    it is the four stages on A's nonzeros, one sparse product each, with
    ``g[k] = F d[k]`` (:func:`_step`): no n x n array is built, and the
    states differ from the propagator's in their last bits.
    Returns the (len(t), n) state history; a history with a non-finite
    state raises :class:`DivergedSimulation` naming its first such sample.

    Each distinct state is stepped once.  Over a run of steps whose rows
    ``g[k]`` have the same bytes the step is one deterministic map of the
    state, so a state whose bytes equal an earlier state of that run is
    followed by the same states as the earlier one: the rest of the run is
    periodic and is copied, not stepped (the zeros before a load step, a
    settled rounding cycle).  The history is byte for byte that of
    stepping every sample.  Every run is stepped at most
    ``REPEAT_CHUNK - 1`` steps past its first repeat (:func:`_step_run`).
    """
    A, F, d = _numeric(A, "A"), _numeric(F, "F"), _numeric(d, "d")
    n = A.shape[0]
    if x0 is not None and (x0 := _numeric(x0, "x0")).shape != (n,):
        raise InvalidInput(f"x0 must have shape ({n},), got {x0.shape}")
    if t.size > 1:
        h = (t[-1] - t[0]) / (t.size - 1)
        tol = 8 * np.finfo(float).eps * np.abs(t).max()   # rounding of sample times of size |t|
        if not (h > 0.0 and np.abs(np.diff(t) - h).max() <= tol):
            raise InvalidInput("time grid must be uniform and increasing")
        if np.count_nonzero(A) < SPARSE_FILL * n * n:
            rows, cols = np.nonzero(A)
            M, G = (rows, cols, A[rows, cols], h), F
        elif n:
            M, G = _propagator(A, F, h)
    states = np.zeros((t.size, n))                    # after the build's temporaries are freed
    if x0 is not None:
        states[0] = x0
    if t.size < 2 or n == 0:
        return states                                 # no step to take
    g = d[:-1] @ G.T
    del G                                             # the steps hold M, g and the history
    bits = g.view(np.uint64)
    starts = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    bounds = np.concatenate([[0], starts, [t.size - 1]]).tolist()
    with np.errstate(over="ignore", invalid="ignore"):   # divergence is detected below
        for s, e in zip(bounds[:-1], bounds[1:]):
            _step_run(M, g, states, s, e)
    # one check after the loop: the first non-finite row is where a check
    # after every step would have stopped
    bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if bad.size:
        k = bad[0] + 1
        raise DivergedSimulation(f"non-finite state at t={t[k]:.6g} s", time=float(t[k]))
    return states


def _propagator(A, F, h):
    """``M`` and ``hP F`` of the RK4 step ``x <- M x + hP F d[k]``.

    Horner's scheme for ``hP`` keeps at most three n x n arrays besides
    ``A``: each ``c I + Z`` is formed in place, as ``Z += 0.0`` (which
    turns ``-0.0`` into ``+0.0``, as ``0.0 + -0.0`` does) and ``c`` added to
    the diagonal, so its bits are those of the dense ``c * eye + Z``; each
    product is a new array and the previous one is dropped."""
    hA = h * A
    Z = hA @ _add_eye(hA / 24.0, 1.0 / 6.0)
    Z = hA @ _add_eye(Z, 0.5)
    del hA
    hP = _add_eye(Z, 1.0)
    hP *= h
    return _add_eye(A @ hP, 1.0), hP @ F


def _add_eye(Z, c):
    """``c I + Z`` in place, with the bits of the dense sum, for ``Z`` in
    any memory layout (``flat`` indexes in C order whatever the strides)."""
    Z += 0.0
    Z.flat[::len(Z) + 1] += c
    return Z


def _step(M, g, states, a, b):
    """Step ``states[a]`` to ``states[b]``: one matvec per step by a dense
    propagator ``M``, or, for ``M = (rows, cols, vals, h)`` (A's nonzeros and
    the step) and ``g[k] = F d[k]``, the stages ``k1..k4`` of classical RK4,
    each one product by the nonzeros."""
    if isinstance(M, np.ndarray):
        for x, y, gk in zip(states[a:b], states[a + 1:b + 1], g[a:b]):
            M.dot(x, out=y)
            y += gk
        return
    rows, cols, vals, h = M
    for x, y, f in zip(states[a:b], states[a + 1:b + 1], g[a:b]):
        z, y[:] = x, 0.0
        for c, w in ((0.5 * h, 1.0), (0.5 * h, 2.0), (h, 2.0), (0.0, 1.0)):
            k = np.bincount(rows, vals * z[cols], len(x)) + f
            y += w * k                                # k1 + 2 k2 + 2 k3 + k4
            z = x + c * k
        y *= h / 6.0
        y += x


def _step_run(M, g, states, s, e):
    """Fill ``states[s + 1:e + 1]`` from ``states[s]`` by the steps ``s..e-1``,
    whose rows ``g[s:e]`` have the same bytes, in chunks of 1, 2, 4, ... up to
    ``REPEAT_CHUNK`` steps.  Each state is looked up in ``first``, the run's first
    sample per key (:func:`_keys`; ``key + 1`` past a key another state holds):
    the first state equal byte for byte to an earlier one ends the stepping."""
    first, a, k, chunk = {}, s, s, 1                 # a..k: the states not yet looked up
    while a <= e:
        for j, key in enumerate(_keys(states[a:k + 1]).tolist(), a):
            while (i := first.setdefault(key, j)) != j:
                if states[i].tobytes() == states[j].tobytes():
                    return _repeat(states, k + 1, e + 1, j - i)
                key += 1
        a, k, chunk = k + 1, min(k + chunk, e), min(2 * chunk, REPEAT_CHUNK)
        _step(M, g, states, a - 1, k)


def _keys(x):
    """A 64-bit key of the bytes of each row of ``x``, as a uint64 array: its
    uint64 words times fixed odd multipliers, summed with wraparound."""
    return x.view(np.uint64) @ _multipliers(x.shape[1])


@functools.cache
def _multipliers(n):
    return np.frombuffer(np.random.default_rng(n).bytes(8 * n), np.uint64) | np.uint64(1)


def _repeat(states, a, b, period):
    """Fill ``states[a:b]`` with the continuation of period ``period`` of
    ``states[a - period:a]``: one broadcast copy of whole periods, one slice
    copy of the rest, both into views of the history."""
    q, rest = divmod(b - a, period)
    states[a:a + q * period].reshape(q, period, states.shape[1])[...] = states[a - period:a]
    states[a + q * period:b] = states[a - period:a - period + rest]


def simulate(A_full, F_full, config, bus_ids, gains, eigenvalues):
    """Integrate the assembled system under the configured load steps.

    Parameters
    ----------
    A_full : (3N, 3N) array_like
        Closed-loop system matrix; a non-Hurwitz one is integrated as given.
    F_full : (3N, N) array_like
        Stacked disturbance columns.
    config : SimConfig
    bus_ids : sequence of int
        Bus order matching the block structure of ``A_full``.
    gains : dict
        Bus id -> GainSet for reconstructing the local and global control
        series; a bus without one has zero series (``{}`` for the open loop).
    eigenvalues : array_like
        The 3N finite eigenvalues of ``A_full``, for the step-size check.

    Raises
    ------
    InvalidInput
        When ``A_full`` is Hurwitz but ``config.dt`` is outside the RK4
        stability region of its spectrum (``rk4_radius > 1``), or when the
        histories of ``t_end / dt + 1`` samples cannot be allocated.
    DivergedSimulation
        On the first non-finite state or control input sample.
    """
    A, F = _numeric(A_full, "A_full"), _numeric(F_full, "F_full")
    bus_ids = list(bus_ids)
    n = A.shape[0]
    if A.shape != (n, n) or n != 3 * len(bus_ids):
        raise InvalidInput(f"A_full shape {A.shape} does not match {len(bus_ids)} buses")
    if F.shape != (n, len(bus_ids)):
        raise InvalidInput(f"F_full must be ({n}, {len(bus_ids)}), got {F.shape}")

    lam = _numeric(eigenvalues, "eigenvalues", complex)
    if lam.shape != (n,) or not np.isfinite(lam).all():
        raise InvalidInput(f"eigenvalues must be {n} finite values, got {lam.size}, "
                           f"{np.isfinite(lam).sum()} finite")
    if lam.real.max() < 0.0:
        rho = rk4_radius(lam, config.dt)
        if rho > 1.0:
            dt = _stable_dt(lam, config.t_end)
            count = config.samples(dt)
            # a state history past the largest array numpy addresses fails on any machine
            passes = f"dt={dt!r} s passes" + (
                f" but needs {count:.4g} samples, more than can be allocated"
                if count * n * 8 > np.iinfo(np.intp).max else "")
            raise InvalidInput(
                f"dt={config.dt:g} s is outside the RK4 stability region of this "
                f"system: the one-step propagator has spectral radius {rho:.4g} > 1; {passes}")

    t = config.time_grid()
    try:
        d = _disturbance_profile(config.disturbances, bus_ids, t)
        states = integrate(A, F, d, t)
        with np.errstate(over="ignore", invalid="ignore"):   # detected below
            ul, ug = _control_series(states, bus_ids, gains)
    except MemoryError:
        raise InvalidInput(config._too_long()) from None
    bad = np.flatnonzero(~(np.isfinite(ul).all(axis=1) & np.isfinite(ug).all(axis=1)))
    if bad.size:
        raise DivergedSimulation(
            f"non-finite control input at t={t[bad[0]]:.6g} s", time=float(t[bad[0]]))
    return SimResult(bus_ids=bus_ids, t=t, states=states, d=d,
                     u_local=ul, u_global=ug, A_full=A, F_full=F)


def steady_state_check(result):
    """Settling residuals at the final sample, as the ``steady_state`` block
    of ``sim_summary.json``: ``omega_end`` (|d_omega(t_end)| per bus, rad/s),
    ``max_state_derivative`` (inf-norm of xdot(t_end)),
    ``power_balance_residual`` (|sum dPm(t_end) - sum of the held load d(t_end)|, pu) and
    ``pm_sum`` (sum of dPm(t_end), pu).

    At equilibrium the speed deviations vanish and the mechanical power
    increments absorb exactly the total active load step (line-flow terms
    cancel pairwise in the sum).
    """
    x_end = result.states[-1]
    with np.errstate(over="ignore", invalid="ignore"):   # overflow: the JSON artifact rejects it
        xdot = result.A_full @ x_end + result.F_full @ result.d[-1]
        pm_sum = float(x_end[2::3].sum())
        active_load = float(result.d[-1].sum())
    return {
        "omega_end": {str(bus): float(abs(result.omega(bus)[-1]))
                      for bus in sorted(result.bus_ids)},
        "max_state_derivative": float(np.abs(xdot).max()),
        "power_balance_residual": abs(pm_sum - active_load),
        "pm_sum": pm_sum,
    }


def settling_time(result):
    """First time the state has settled: ``||x(t) - x(t_end)||_inf`` <
    ``SETTLE_THRESHOLD``.

    Deviation from the final sample is used because a step disturbance
    leaves a nonzero equilibrium.  Returns None when the trajectory never
    settles before the final sample.  The deviation is taken in one
    buffer, over blocks of whole samples of about ``SETTLE_BLOCK`` values
    each, last block first, up to the last sample that has not settled.
    """
    states = result.states
    x_end = states[-1]
    rows = max(1, SETTLE_BLOCK // max(1, x_end.size))
    block = np.empty((min(rows, len(states)), x_end.size))   # one buffer for every block
    for a in range(rows * ((len(states) - 1) // rows), -1, -rows):   # last block first
        dev = block[:len(states) - a]
        np.subtract(states[a:a + rows], x_end, out=dev)
        violations = np.flatnonzero(np.abs(dev, out=dev).max(axis=1) >= SETTLE_THRESHOLD)
        if violations.size:
            break
    else:
        return float(result.t[0])
    k = a + int(violations[-1]) + 1
    if k >= result.t.size - 1:
        # only the trivial final sample is below threshold: not settled
        return None
    return float(result.t[k])

