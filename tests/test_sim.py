import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid
from gridcert import certify, gridmodel, sim
from gridcert.errors import DivergedSimulation, InvalidInput
from sampling import random_hurwitz


@pytest.fixture
def certified(three_bus):
    res = certify.assess_grid(three_bus, use_global=True)
    F = gridmodel.disturbance_matrix(res.subsystems)
    return res, F


def run_three_bus(three_bus, certified, **cfg_kwargs):
    res, F = certified
    cfg = sim.SimConfig(disturbances=three_bus.disturbances, **cfg_kwargs)
    return sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains)


def rk4_stages(A, F, d, t, x0=None):
    """Reference: the stage-by-stage RK4 loop that ``sim.integrate`` replaced."""
    A = np.asarray(A, dtype=float)
    F = np.asarray(F, dtype=float)
    d = np.asarray(d, dtype=float)
    n = A.shape[0]
    states = np.zeros((t.size, n))
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t.size - 1):
            h = t[k + 1] - t[k]
            f = F @ d[k]
            k1 = A @ x + f
            k2 = A @ (x + 0.5 * h * k1) + f
            k3 = A @ (x + 0.5 * h * k2) + f
            k4 = A @ (x + h * k3) + f
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise DivergedSimulation(
                    f"non-finite state at t={t[k + 1]:.6g} s", time=float(t[k + 1]))
            states[k + 1] = x
    return states


def csv_text(result):
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


def csv_writer_reference(result):
    """Reference: the per-cell ``csv.writer`` CSV that ``to_csv`` replaced."""
    fmt = lambda v: repr(float(v) + 0.0)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(sim.CSV_HEADER)
    for k, tk in enumerate(result.t):
        for b, bus in enumerate(result.bus_ids):
            writer.writerow([fmt(tk), bus,
                             fmt(result.states[k, 3 * b]),
                             fmt(result.states[k, 3 * b + 1]),
                             fmt(result.states[k, 3 * b + 2]),
                             fmt(result.u_local[k, b]), fmt(result.u_global[k, b]),
                             fmt(result.d[k, b])])
    return buf.getvalue()


def load_steps(rng, n_samples, n_inputs):
    """Piecewise-constant random input: a few steps per column."""
    d = np.zeros((n_samples, n_inputs))
    for col in range(n_inputs):
        for k in rng.integers(0, n_samples, size=3):
            d[k:, col] += rng.standard_normal()
    return d


class TestIntegrate:
    def test_first_order_step_closed_form(self):
        # xdot = -x + d, unit step at t=0: x(t) = 1 - exp(-t)
        t = np.arange(0, 1.0 + 1e-12, 1e-3)
        d = np.ones((t.size, 1))
        x = sim.integrate([[-1.0]], [[1.0]], d, t)
        assert x[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)

    def test_divergence_reports_time(self):
        t = np.arange(0, 8.0, 1e-3)
        d = np.ones((t.size, 1))
        with pytest.raises(DivergedSimulation) as exc:
            sim.integrate([[100.0]], [[1.0]], d, t)
        assert exc.value.time is not None and exc.value.time > 0.0

    def test_initial_state(self):
        t = np.arange(0, 2.0 + 1e-12, 1e-3)
        d = np.zeros((t.size, 1))
        x = sim.integrate([[-1.0]], [[1.0]], d, t, x0=[3.0])
        assert x[0, 0] == 3.0
        assert x[-1, 0] == pytest.approx(3.0 * math.exp(-2.0), rel=1e-8)


class TestPropagator:
    """The one-step propagator against the stage-by-stage loop (same scheme,
    other rounding: agreement to 1e-12 of the trajectory's scale)."""

    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_matches_stages_on_random_hurwitz(self, rng, n):
        A = random_hurwitz(rng, n)
        F = rng.standard_normal((n, 2))
        t = np.arange(2001) * 2e-3
        d = load_steps(rng, t.size, 2)
        x0 = rng.standard_normal(n)
        want = rk4_stages(A, F, d, t, x0=x0)
        got = sim.integrate(A, F, d, t, x0=x0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_stages_on_three_bus(self, three_bus, certified):
        res, F = certified
        out = run_three_bus(three_bus, certified, t_end=3.0)
        want = rk4_stages(res.A_full, F, out.d, out.t)
        assert np.abs(out.states - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dt", [0.3, 0.2])
    def test_same_divergence_step(self, certified, dt):
        # a step outside the stability region: the state overflows within a step
        res, F = certified
        t = np.arange(2001) * dt
        d = np.zeros((t.size, 3))
        d[:, 0] = 0.1
        with pytest.raises(DivergedSimulation) as want:
            rk4_stages(res.A_full, F, d, t)
        with pytest.raises(DivergedSimulation) as got:
            sim.integrate(res.A_full, F, d, t)
        assert got.value.time == want.value.time
        assert str(got.value) == str(want.value)

    def test_slow_divergence_reported_when_the_state_overflows(self):
        # the stage loop could stop earlier, on an overflowing stage (~|A| x)
        t = np.arange(8001) * 1e-3
        d = np.ones((t.size, 1))
        with pytest.raises(DivergedSimulation) as want:
            rk4_stages([[100.0]], [[1.0]], d, t)
        with pytest.raises(DivergedSimulation) as got:
            sim.integrate([[100.0]], [[1.0]], d, t)
        assert want.value.time <= got.value.time < 1.01 * want.value.time
        k = int(np.searchsorted(t, got.value.time))
        assert np.all(np.isfinite(sim.integrate([[100.0]], [[1.0]], d[:k], t[:k])))

    def test_jittered_time_grid_rejected(self):
        t = np.arange(101) * 1e-2
        t[40] += 1e-7
        d = np.zeros((t.size, 1))
        with pytest.raises(InvalidInput, match="uniform"):
            sim.integrate([[-1.0]], [[1.0]], d, t)

    def test_radius_from_spectrum_equals_propagator_spectrum(self, certified):
        res, _ = certified
        A = res.A_full
        n = A.shape[0]
        for h in (0.3, 0.058, 1e-3):
            # columns of M: one stage-by-stage step from each unit vector
            M = np.column_stack([
                rk4_stages(A, np.zeros((n, 1)), np.zeros((2, 1)), np.array([0.0, h]),
                           x0=e)[1] for e in np.eye(n)])
            want = np.abs(np.linalg.eigvals(M)).max()
            assert sim.rk4_radius(np.linalg.eigvals(A), h) == pytest.approx(want, rel=1e-9)


class TestStepSizeCheck:
    def test_unstable_dt_rejected_with_a_passing_dt(self, three_bus, certified):
        res, _ = certified
        with pytest.raises(InvalidInput, match=r"spectral radius 1386 > 1") as exc:
            run_three_bus(three_bus, certified, t_end=3.0, dt=0.3)
        suggested = float(re.search(r"; dt=(\S+) s passes", str(exc.value)).group(1))
        assert 0.0 < suggested < 0.3
        assert sim.rk4_radius(np.linalg.eigvals(res.A_full), suggested) <= 1.0
        out = run_three_bus(three_bus, certified, t_end=3.0, dt=suggested)
        assert np.all(np.isfinite(out.states))

    def test_mode_too_slow_to_resolve_is_not_rejected(self):
        # a closed-loop pole at -1e-14: rk4_radius rounds to exactly 1 at dt=1e-3
        g1 = make_grid([(1, 5.0, 1.0, 0.8, [-1e-14, -4.0, -5.0])], [], [(1, 0.1, 0.1)])
        res = certify.assess_grid(g1)
        lam = np.linalg.eigvals(res.A_full)
        assert lam.real.max() < 0.0
        assert sim.rk4_radius(lam, 1e-3) == 1.0
        cfg = sim.SimConfig(t_end=1.0, disturbances=g1.disturbances)
        out = sim.simulate(res.A_full, gridmodel.disturbance_matrix(res.subsystems),
                           cfg, [1], {}, eigenvalues=lam)
        assert np.all(np.isfinite(out.states))

    def test_non_hurwitz_keeps_warning_at_any_dt(self):
        g1 = make_grid([(1, 8.0, 1.0, 0.9)], [])
        sub = gridmodel.build_subsystems(g1)[0]
        cfg = sim.SimConfig(t_end=0.6, dt=0.3, disturbances=[])
        with pytest.warns(UserWarning, match="not Hurwitz"):
            sim.simulate(sub.A_hat, sub.F.reshape(3, 1), cfg, [1], {})

    def test_spectrum_handed_in_gives_identical_result(self, three_bus, certified):
        res, F = certified
        cfg = sim.SimConfig(t_end=1.0, disturbances=three_bus.disturbances)
        a = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains)
        b = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains,
                         eigenvalues=np.linalg.eigvals(res.A_full))
        assert np.array_equal(a.states, b.states)
        assert csv_text(a) == csv_text(b)


class TestSimulate:
    def test_zero_disturbance_identically_zero(self, three_bus, certified):
        res, F = certified
        cfg = sim.SimConfig(t_end=1.0, disturbances=[])
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains)
        assert np.all(out.states == 0.0)
        assert np.all(out.d == 0.0)
        assert np.all(out.u_local == 0.0)

    def test_frequency_returns_to_zero(self, three_bus, certified):
        out = run_three_bus(three_bus, certified)
        for bus in three_bus.bus_ids:
            assert abs(out.omega(bus)[-1]) < 1e-6

    def test_step_size_convergence(self, three_bus, certified):
        coarse = run_three_bus(three_bus, certified, t_end=3.0, dt=1e-3)
        fine = run_three_bus(three_bus, certified, t_end=3.0, dt=5e-4)
        scale = np.abs(fine.states).max()
        diff = np.abs(coarse.states - fine.states[::2]).max()
        assert diff <= 1e-7 * scale

    def test_linearity(self, three_bus, certified):
        res, F = certified
        base = run_three_bus(three_bus, certified, t_end=2.0)
        tripled = make_grid(
            [(g.bus, g.M, g.D, g.T_T) for g in three_bus.generators],
            [(l.from_bus, l.to_bus, l.X) for l in three_bus.lines],
            [(d.bus, 3.0 * d.delta_PL, d.t_step) for d in three_bus.disturbances])
        cfg = sim.SimConfig(t_end=2.0, disturbances=tripled.disturbances)
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains)
        scale = np.abs(out.states).max()
        assert np.abs(out.states - 3.0 * base.states).max() <= 1e-10 * scale

    def test_hurwitz_decay_envelope(self, rng, certified):
        res, F = certified
        lam, V = np.linalg.eig(res.A_full)
        sigma = 0.9 * abs(lam.real.max())
        C = 1.01 * np.linalg.cond(V)
        x0 = rng.standard_normal(9)
        t = np.arange(2001) * 1e-3
        states = sim.integrate(res.A_full, F, np.zeros((t.size, 3)), t, x0=x0)
        norms = np.linalg.norm(states, axis=1)
        bound = C * np.exp(-sigma * t) * np.linalg.norm(x0)
        assert np.all(norms <= bound)

    def test_global_input_reconstruction(self, three_bus, certified):
        res, _ = certified
        out = run_three_bus(three_bus, certified, t_end=1.0)
        for b, bus in enumerate(out.bus_ids):
            gs = res.gains[bus]
            want = np.zeros(out.t.size)
            for j, kj in gs.global_.items():
                c = out.bus_ids.index(j)
                want -= out.states[:, 3 * c:3 * c + 3] @ kj
            assert np.abs(out.u_global[:, b] - want).max() <= 1e-12
            want_l = -(out.states[:, 3 * b:3 * b + 3] @ gs.local)
            assert np.abs(out.u_local[:, b] - want_l).max() <= 1e-12

    def test_offgrid_step_snaps_forward(self, three_bus, certified):
        res, F = certified
        dists = [gridmodel.Disturbance(bus=1, delta_PL=0.1, t_step=0.00037)]
        cfg = sim.SimConfig(t_end=0.01, disturbances=dists)
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, {})
        assert out.d[0, 0] == 0.0
        assert out.d[1, 0] == 0.1   # active from the next grid point

    def test_non_hurwitz_warns(self, three_bus, certified):
        res, F = certified
        g1 = make_grid([(1, 8.0, 1.0, 0.9)], [])
        sub = gridmodel.build_subsystems(g1)[0]
        cfg = sim.SimConfig(t_end=0.01, disturbances=[])
        with pytest.warns(UserWarning, match="not Hurwitz"):
            sim.simulate(sub.A_hat, sub.F.reshape(3, 1), cfg, [1], {})

    def test_shape_validation(self, three_bus, certified):
        res, F = certified
        with pytest.raises(InvalidInput):
            sim.simulate(res.A_full, F, sim.SimConfig(t_end=1.0), [1, 2], {})
        with pytest.raises(InvalidInput):
            sim.SimConfig(t_end=1.0, dt=2.0)
        with pytest.raises(InvalidInput):
            sim.SimConfig(t_end=1.0, dt=0.0)

    @pytest.mark.parametrize("t_end,dt", [
        (math.inf, 1e-3), (math.inf, math.inf), (1.0, math.nan), (math.nan, 1e-3),
    ])
    def test_non_finite_horizon_rejected(self, t_end, dt):
        with pytest.raises(InvalidInput, match="t_end < inf"):
            sim.SimConfig(t_end=t_end, dt=dt)


class TestSteadyState:
    def test_zero_input_zero_residuals(self, three_bus, certified):
        res, F = certified
        cfg = sim.SimConfig(t_end=1.0, disturbances=[])
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, {})
        grid_nod = make_grid(
            [(g.bus, g.M, g.D, g.T_T) for g in three_bus.generators],
            [(l.from_bus, l.to_bus, l.X) for l in three_bus.lines])
        rep = sim.steady_state_check(out, grid_nod)
        assert rep["power_balance_residual"] == 0.0
        assert rep["max_state_derivative"] == 0.0
        assert all(v == 0.0 for v in rep["omega_end"].values())

    def test_power_balance_after_step(self, three_bus, certified):
        out = run_three_bus(three_bus, certified)
        rep = sim.steady_state_check(out, three_bus)
        assert rep["power_balance_residual"] < 1e-6
        assert rep["pm_sum"] == pytest.approx(0.1, abs=1e-6)

    def test_doubled_step_doubles_pm_sum(self, three_bus, certified):
        res, F = certified
        base = run_three_bus(three_bus, certified, t_end=5.0)
        doubled_grid = make_grid(
            [(g.bus, g.M, g.D, g.T_T) for g in three_bus.generators],
            [(l.from_bus, l.to_bus, l.X) for l in three_bus.lines],
            [(d.bus, 2.0 * d.delta_PL, d.t_step) for d in three_bus.disturbances])
        cfg = sim.SimConfig(t_end=5.0, disturbances=doubled_grid.disturbances)
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, {})
        a = sim.steady_state_check(base, three_bus)["pm_sum"]
        b = sim.steady_state_check(out, doubled_grid)["pm_sum"]
        assert b / a == pytest.approx(2.0, abs=1e-9)

    def test_overflow_is_a_value_not_a_warning(self, three_bus, certified):
        # the residual of a final state near the float limit overflows; the
        # summary carries it as non-finite (the CLI then rejects the artifact)
        out = run_three_bus(three_bus, certified, t_end=0.01)
        out.states[-1] = 1e308
        rep = sim.steady_state_check(out, three_bus)
        assert not math.isfinite(rep["max_state_derivative"])
        assert not math.isfinite(rep["pm_sum"])


class TestSettlingTime:
    def test_settles_after_step(self, three_bus, certified):
        out = run_three_bus(three_bus, certified)
        t_settle = sim.settling_time(out)
        assert t_settle is not None
        assert 0.5 < t_settle < 2.0

    def test_not_settled_returns_none(self, three_bus, certified):
        out = run_three_bus(three_bus, certified, t_end=0.6)
        assert sim.settling_time(out) is None


class TestCsv:
    def test_header_and_shape(self, three_bus, certified):
        out = run_three_bus(three_bus, certified, t_end=0.01)
        text = csv_text(out)
        lines = text.splitlines()
        assert lines[0] == "t,bus,delta_rad,omega_rad_s,Pm_pu,ul_pu,ug_pu,d_pu"
        assert len(lines) == 1 + out.t.size * 3
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "1"
        assert "-0.0" not in text

    def test_streamed_file_matches_string(self, three_bus, certified, tmp_path):
        out = run_three_bus(three_bus, certified, t_end=3.0)
        assert out.t.size * 3 > sim.CSV_BLOCK_ROWS    # more than one block
        path = tmp_path / "sim.csv"
        with open(path, "w", encoding="utf-8") as fh:
            assert out.to_csv(fh) is None
        assert path.read_bytes() == csv_writer_reference(out).encode("utf-8")

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_matches_csv_writer_reference(self, data):
        buses = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
        n_t = data.draw(st.integers(1, 5))
        value = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                             1.7976931348623157e308, 0.1, 1e16, -1e-5]))

        def column(shape):
            return np.array(data.draw(st.lists(value, min_size=int(np.prod(shape)),
                                               max_size=int(np.prod(shape))))).reshape(shape)

        n_b = len(buses)
        result = sim.SimResult(
            bus_ids=buses, t=column((n_t,)), states=column((n_t, 3 * n_b)),
            d=column((n_t, n_b)), u_local=column((n_t, n_b)), u_global=column((n_t, n_b)),
            A_full=None, F_full=None)
        assert csv_text(result) == csv_writer_reference(result)
