import math

import numpy as np
import pytest

from conftest import make_grid
from gridcert import certify, gridmodel, sim
from gridcert.errors import DivergedSimulation, InvalidInput


@pytest.fixture
def certified(three_bus):
    res = certify.assess_grid(three_bus, use_global=True)
    F = gridmodel.disturbance_matrix(res.subsystems)
    return res, F


def run_three_bus(three_bus, certified, **cfg_kwargs):
    res, F = certified
    cfg = sim.SimConfig(disturbances=three_bus.disturbances, **cfg_kwargs)
    return sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains)


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
        cfg = sim.SimConfig(t_end=2.0, disturbances=[])
        out = sim.simulate(res.A_full, F, cfg, [1, 2, 3], x0=x0)
        norms = np.linalg.norm(out.states, axis=1)
        bound = C * np.exp(-sigma * out.t) * np.linalg.norm(x0)
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
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids)
        assert out.d[0, 0] == 0.0
        assert out.d[1, 0] == 0.1   # active from the next grid point

    def test_non_hurwitz_warns(self, three_bus, certified):
        res, F = certified
        g1 = make_grid([(1, 8.0, 1.0, 0.9)], [])
        sub = gridmodel.build_subsystems(g1)[0]
        cfg = sim.SimConfig(t_end=0.01, disturbances=[])
        with pytest.warns(UserWarning, match="not Hurwitz"):
            sim.simulate(sub.A_hat, sub.F.reshape(3, 1), cfg, [1])

    def test_shape_validation(self, three_bus, certified):
        res, F = certified
        with pytest.raises(InvalidInput):
            sim.simulate(res.A_full, F, sim.SimConfig(t_end=1.0), [1, 2])
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
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids)
        grid_nod = make_grid(
            [(g.bus, g.M, g.D, g.T_T) for g in three_bus.generators],
            [(l.from_bus, l.to_bus, l.X) for l in three_bus.lines])
        rep = sim.steady_state_check(out, grid_nod)
        assert rep.power_balance_residual == 0.0
        assert rep.max_state_derivative == 0.0
        assert all(v == 0.0 for v in rep.omega_end.values())

    def test_power_balance_after_step(self, three_bus, certified):
        out = run_three_bus(three_bus, certified)
        rep = sim.steady_state_check(out, three_bus)
        assert rep.power_balance_residual < 1e-6
        assert rep.pm_sum == pytest.approx(0.1, abs=1e-6)

    def test_doubled_step_doubles_pm_sum(self, three_bus, certified):
        res, F = certified
        base = run_three_bus(three_bus, certified, t_end=5.0)
        doubled_grid = make_grid(
            [(g.bus, g.M, g.D, g.T_T) for g in three_bus.generators],
            [(l.from_bus, l.to_bus, l.X) for l in three_bus.lines],
            [(d.bus, 2.0 * d.delta_PL, d.t_step) for d in three_bus.disturbances])
        cfg = sim.SimConfig(t_end=5.0, disturbances=doubled_grid.disturbances)
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids)
        a = sim.steady_state_check(base, three_bus).pm_sum
        b = sim.steady_state_check(out, doubled_grid).pm_sum
        assert b / a == pytest.approx(2.0, abs=1e-9)


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
        lines = out.to_csv().splitlines()
        assert lines[0] == "t,bus,delta_rad,omega_rad_s,Pm_pu,ul_pu,ug_pu,d_pu"
        assert len(lines) == 1 + out.t.size * 3
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "1"
        assert "-0.0" not in out.to_csv()

