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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedSimulation, InvalidInput

DEFAULT_DT = 1e-3     # s; fastest grid mode here is ~ -43 1/s, so dt*|lam| < 0.05
DEFAULT_T_END = 10.0  # s

SETTLE_THRESHOLD = 1e-4  # state-deviation bound of settling_time

CSV_HEADER = ["t", "bus", "delta_rad", "omega_rad_s", "Pm_pu", "ul_pu", "ug_pu", "d_pu"]
CSV_BLOCK_ROWS = 8192   # rows formatted per write; bounds the transient Python floats
REPEAT_CHUNK = 256      # RK4 steps between two state compares, and the shortest run compared


@dataclass
class SimConfig:
    t_end: float = DEFAULT_T_END
    dt: float = DEFAULT_DT
    disturbances: list = field(default_factory=list)   # gridmodel.Disturbance

    def __post_init__(self):
        # also rejects NaN and infinity, which would size an unbounded time grid
        if not (0.0 < self.dt <= self.t_end < math.inf):
            raise InvalidInput(
                f"need 0 < dt <= t_end < inf, got dt={self.dt}, t_end={self.t_end}")


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

        Each distinct sample is formatted once per block: ``t`` once per
        sample, and the per-bus row bodies once per distinct value row,
        keyed by its bytes after the ``-0.0`` step.  ``repr`` depends only
        on a float's bits, so a repeated sample (the zeros before a load
        step, a settled RK4 cycle) reuses its text and the bytes are those
        of formatting every cell."""
        n_b = len(self.bus_ids)
        fh.write(",".join(CSV_HEADER) + "\r\n")
        block = max(1, CSV_BLOCK_ROWS // n_b)
        for k in range(0, self.t.size, block):
            ks = slice(k, k + block)
            vals = np.dstack([self.states[ks].reshape(-1, n_b, 3),
                              self.u_local[ks], self.u_global[ks], self.d[ks]])
            with np.errstate(invalid="ignore"):      # a signalling NaN still prints nan
                vals += 0.0                          # normalizes -0.0
                times = (self.t[ks] + 0.0).tolist()
            seen = {}                                # sample bytes -> its per-bus row bodies
            parts = []
            for t, sample in zip(times, vals):
                key = sample.tobytes()
                if key not in seen:
                    seen[key] = [
                        f",{bus},{x!r},{w!r},{p!r},{ul!r},{ug!r},{d!r}\r\n"
                        for bus, (x, w, p, ul, ug, d) in zip(self.bus_ids, sample.tolist())]
                t = repr(t)
                parts.append(t + t.join(seen[key]))
            fh.write("".join(parts))


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
    for b, bus in enumerate(bus_ids):
        gs = gains.get(bus)
        if gs is None:
            continue
        ul[:, b] = -(states[:, 3 * b:3 * b + 3] @ gs.local)
        for j, kj in gs.global_.items():
            col = bus_ids.index(j)
            ug[:, b] -= states[:, 3 * col:3 * col + 3] @ kj
    return ul, ug


def rk4_radius(eigenvalues, dt):
    """Spectral radius of the RK4 one-step propagator ``M`` for step ``dt``.

    ``M`` is the degree-4 Taylor polynomial of ``exp(dt A)``, so its
    eigenvalues are that polynomial at ``dt * lambda`` for each eigenvalue
    ``lambda`` of ``A``; above 1 the discrete trajectory grows.  A mode
    slower than about ``eps / dt`` rounds to exactly 1: neutral, not growing.
    """
    z = dt * np.asarray(eigenvalues)
    return float(np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))).max())


def _stable_dt(eigenvalues, dt):
    """A step below ``dt`` with ``rk4_radius <= 1``, two significant digits,
    found by bisection on ``(0, dt)`` (steps small enough always pass)."""
    lo, hi = 0.0, dt
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rk4_radius(eigenvalues, mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    scale = 10.0 ** (math.floor(math.log10(lo)) - 1)
    short = float(f"{math.floor(lo / scale) * scale:.2g}")
    return short if rk4_radius(eigenvalues, short) <= 1.0 else lo


def integrate(A, F, d, t, x0=None):
    """Classical RK4 for ``xdot = A x + F d(t)`` with zero-order-hold input.

    ``d`` has one row per time sample; row k is held constant over the
    step starting at ``t[k]``.  ``t`` must be uniform with step ``h``: one
    RK4 step is then the affine map ``x <- M x + g[k]`` with
    ``g[k] = h P F d[k]``, ``P = I + hA/2 + (hA)^2/6 + (hA)^3/24`` and
    ``M = I + hA P``, built once.
    Returns the (len(t), n) state history; a history with a non-finite
    state raises :class:`DivergedSimulation` naming its first such sample.

    Each distinct state is stepped once.  Over a run of steps whose rows
    ``g[k]`` have the same bytes the step is one deterministic map of the
    state, so a state whose bytes equal an earlier state of that run is
    followed by the same states as the earlier one: the rest of the run is
    periodic and is copied, not stepped (the zeros before a load step, a
    settled rounding cycle).  The history is byte for byte that of
    stepping every sample.  Each new state is compared with one reference
    state of its run, moved at power-of-two distances (Brent's cycle
    detection), so a cycle is found within about twice its start plus its
    period, with no stored state besides the history.  A run shorter than
    ``REPEAT_CHUNK`` steps is stepped without compares, which would cost
    more there than its repeats can save (an input that changes every
    step is stepped at the cost of the plain loop).
    """
    A = np.asarray(A, dtype=float)
    F = np.asarray(F, dtype=float)
    d = np.asarray(d, dtype=float)
    n = A.shape[0]
    states = np.zeros((t.size, n))
    if x0 is not None:
        states[0] = x0
    if t.size < 2:
        return states
    h = (t[-1] - t[0]) / (t.size - 1)
    tol = 8 * np.finfo(float).eps * np.abs(t).max()   # rounding of sample times of size |t|
    if not (h > 0.0 and np.abs(np.diff(t) - h).max() <= tol):
        raise InvalidInput("time grid must be uniform and increasing")
    if n == 0:
        return states                                 # no state to step
    hA = h * A
    eye = np.eye(n)
    hP = h * (eye + hA @ (0.5 * eye + hA @ (eye / 6.0 + hA / 24.0)))   # Horner
    M = eye + A @ hP
    g = d[:-1] @ (hP @ F).T
    bits = g.view(np.uint64)
    starts = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    bounds = np.concatenate([[0], starts, [t.size - 1]])
    long = np.diff(bounds) >= REPEAT_CHUNK
    rows = states.view(np.dtype((np.void, 8 * n))).ravel()   # each state's bytes as one value
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):   # divergence is detected below
        for s, e in zip(bounds[:-1][long].tolist(), bounds[1:][long].tolist()):
            _step(M, g, states, k, s)
            _step_run(M, g, states, rows, s, e)
            k = e
        _step(M, g, states, k, t.size - 1)
    # one check after the loop: the first non-finite row is where a check
    # after every step would have stopped
    bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if bad.size:
        k = bad[0] + 1
        raise DivergedSimulation(f"non-finite state at t={t[k]:.6g} s", time=float(t[k]))
    return states


def _step(M, g, states, a, b):
    """Step ``states[a]`` to ``states[b]``, one matvec per step."""
    for k in range(a, b):
        x = np.matmul(M, states[k], out=states[k + 1])
        x += g[k]


def _step_run(M, g, states, rows, s, e):
    """Fill ``states[s + 1:e + 1]`` from ``states[s]`` by the steps ``s..e-1``,
    whose input rows ``g[s:e]`` have the same bytes; ``rows`` views each
    state as one void value.  The new states are compared with the
    reference ``states[ref]`` every ``REPEAT_CHUNK`` steps at most; the
    reference moves to the newest state after ``span`` steps and ``span``
    doubles."""
    ref, span, k = s, 1, s
    while k < e:
        stop = min(ref + span, e, k + REPEAT_CHUNK)
        _step(M, g, states, k, stop)
        hit = np.flatnonzero(rows[k + 1:stop + 1] == rows[ref])
        if hit.size:
            _repeat(states, stop + 1, e + 1, k + 1 + int(hit[0]) - ref)
            return
        k = stop
        if k == ref + span:
            ref, span = k, 2 * span


def _repeat(states, a, b, period):
    """Fill ``states[a:b]`` with the continuation of period ``period`` of
    ``states[a - period:a]``: one broadcast copy of whole periods, one slice
    copy of the rest, both into views of the history."""
    q, rest = divmod(b - a, period)
    states[a:a + q * period].reshape(q, period, states.shape[1])[...] = states[a - period:a]
    states[a + q * period:b] = states[a - period:a - period + rest]


def simulate(A_full, F_full, config, bus_ids, gains, eigenvalues=None):
    """Integrate the assembled system under the configured load steps.

    Parameters
    ----------
    A_full : (3N, 3N) array_like
        Closed-loop system matrix (a Hurwitz matrix is recommended).
    F_full : (3N, N) array_like
        Stacked disturbance columns.
    config : SimConfig
    bus_ids : sequence of int
        Bus order matching the block structure of ``A_full``.
    gains : dict
        Bus id -> GainSet for reconstructing the local and global control
        series; a bus without one has zero series (``{}`` for the open loop).
    eigenvalues : array_like, optional
        The spectrum of ``A_full`` when the caller has computed it; it is
        computed here otherwise, with the same results.

    Raises
    ------
    InvalidInput
        When ``A_full`` is Hurwitz but ``config.dt`` is outside the RK4
        stability region of its spectrum (``rk4_radius > 1``), or when the
        histories of ``t_end / dt + 1`` samples cannot be allocated.
    DivergedSimulation
        On the first non-finite state or control input sample.
    """
    A = np.asarray(A_full, dtype=float)
    F = np.asarray(F_full, dtype=float)
    bus_ids = list(bus_ids)
    n = A.shape[0]
    if A.shape != (n, n) or n != 3 * len(bus_ids):
        raise InvalidInput(f"A_full shape {A.shape} does not match {len(bus_ids)} buses")
    if F.shape != (n, len(bus_ids)):
        raise InvalidInput(f"F_full must be ({n}, {len(bus_ids)}), got {F.shape}")

    lam = np.linalg.eigvals(A) if eigenvalues is None else np.asarray(eigenvalues)
    if lam.real.max() >= 0.0:
        warnings.warn("system matrix is not Hurwitz; trajectories may diverge",
                      stacklevel=2)
    else:
        rho = rk4_radius(lam, config.dt)
        if rho > 1.0:
            raise InvalidInput(
                f"dt={config.dt:g} s is outside the RK4 stability region of this "
                f"system: the one-step propagator has spectral radius {rho:.4g} > 1; "
                f"dt={_stable_dt(lam, config.dt)!r} s passes")

    steps = config.t_end / config.dt                 # inf when the quotient overflows
    too_long = (f"t_end={config.t_end:g} s at dt={config.dt:g} s needs {steps + 1:.4g} "
                "samples, more than can be allocated")
    try:
        t = np.arange(int(round(steps)) + 1) * config.dt
    except (OverflowError, ValueError, MemoryError):   # inf steps; past the largest array
        raise InvalidInput(too_long) from None
    try:
        d = _disturbance_profile(config.disturbances, bus_ids, t)
        states = integrate(A, F, d, t)
        with np.errstate(over="ignore", invalid="ignore"):   # detected below
            ul, ug = _control_series(states, bus_ids, gains)
    except MemoryError:
        raise InvalidInput(too_long) from None
    bad = np.flatnonzero(~(np.isfinite(ul).all(axis=1) & np.isfinite(ug).all(axis=1)))
    if bad.size:
        raise DivergedSimulation(
            f"non-finite control input at t={t[bad[0]]:.6g} s", time=float(t[bad[0]]))
    return SimResult(bus_ids=bus_ids, t=t, states=states, d=d,
                     u_local=ul, u_global=ug, A_full=A, F_full=F)


def steady_state_check(result, grid):
    """Settling residuals at the final sample, as the ``steady_state`` block
    of ``sim_summary.json``: ``omega_end`` (|d_omega(t_end)| per bus, rad/s),
    ``max_state_derivative`` (inf-norm of xdot(t_end)),
    ``power_balance_residual`` (|sum dPm(t_end) - sum active dPL|, pu) and
    ``pm_sum`` (sum of dPm(t_end), pu).

    At equilibrium the speed deviations vanish and the mechanical power
    increments absorb exactly the total active load step (line-flow terms
    cancel pairwise in the sum).
    """
    x_end = result.states[-1]
    with np.errstate(over="ignore", invalid="ignore"):   # overflow: the JSON artifact rejects it
        xdot = result.A_full @ x_end + result.F_full @ result.d[-1]
        pm_sum = float(x_end[2::3].sum())
    active_load = sum(
        dist.delta_PL for dist in grid.disturbances
        if result.t[-1] >= dist.t_step - 1e-12)
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
    settles before the final sample.
    """
    dev = np.abs(result.states - result.states[-1]).max(axis=1)
    violations = np.nonzero(dev >= SETTLE_THRESHOLD)[0]
    if violations.size == 0:
        return float(result.t[0])
    k = int(violations[-1]) + 1
    if k >= result.t.size - 1:
        # only the trivial final sample is below threshold: not settled
        return None
    return float(result.t[k])

