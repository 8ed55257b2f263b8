import csv
import io
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid
from gridcert import certify, cli, gridmodel, sim
from gridcert.data import three_bus_path
from gridcert.errors import DivergedSimulation, InvalidInput
from sampling import random_hurwitz, ring_grid_tuples


@pytest.fixture
def certified(three_bus):
    res = certify.assess_grid(three_bus, use_global=True)
    F = gridmodel.disturbance_matrix(res.subsystems)
    return res, F


def run_three_bus(three_bus, certified, **cfg_kwargs):
    res, F = certified
    cfg = sim.SimConfig(disturbances=three_bus.disturbances, **cfg_kwargs)
    return sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains,
                        eigenvalues=np.linalg.eigvals(res.A_full))


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


def step_every_sample(A, F, d, t, x0=None):
    """Reference: the loop that steps every sample, which ``sim.integrate``
    replaced; it returns the history without checking it."""
    A = np.asarray(A, dtype=float)
    F = np.asarray(F, dtype=float)
    d = np.asarray(d, dtype=float)
    n = A.shape[0]
    states = np.zeros((t.size, n))
    if x0 is not None:
        states[0] = x0
    h = (t[-1] - t[0]) / (t.size - 1)
    hA = h * A
    eye = np.eye(n)
    hP = h * (eye + hA @ (0.5 * eye + hA @ (eye / 6.0 + hA / 24.0)))
    M = eye + A @ hP
    g = d[:-1] @ (hP @ F).T
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t.size - 1):
            x = np.matmul(M, states[k], out=states[k + 1])
            x += g[k]
    return states


def damped_oscillators(rng, n):
    """A Hurwitz matrix of lightly damped modes (damping ratio 0.1, one real
    mode when n is odd) in random coordinates: its RK4 runs settle into
    rounding cycles of several states more often than those of
    ``random_hurwitz``."""
    D = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        w = rng.uniform(0.5, 2.0)
        D[i:i + 2, i:i + 2] = [[-0.1 * w, w], [-w, -0.1 * w]]
    if n % 2:
        D[-1, -1] = -rng.uniform(0.5, 2.0)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ D @ Q.T


def integrate_history(A, F, d, t, x0=None):
    """``sim.integrate``'s history and the text of its error, if any: the
    history is the first array it allocates, kept also when it raises."""
    made = []
    zeros = np.zeros

    def keep(*args, **kwargs):
        made.append(zeros(*args, **kwargs))
        return made[-1]

    with mock.patch.object(sim.np, "zeros", keep):
        try:
            sim.integrate(A, F, d, t, x0=x0)
        except DivergedSimulation as exc:
            return made[0], str(exc)
    return made[0], None


def matvecs(step):
    """The matvec steps of the calls recorded by a mock wrapping ``sim._step``."""
    return sum(c.args[4] - c.args[3] for c in step.call_args_list)


def distinct_rows(states):
    return np.unique(states.view(np.dtype((np.void, states.itemsize * states.shape[1])))).size


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


def equal_keys(x):
    """A key function under which every row collides with every other."""
    return np.zeros(len(x), np.uint64)


def result_of_rows(buses, rows, times=None):
    """A SimResult whose sample k has the (len(buses) * 6,) value row
    ``rows[k]``: states, then u_local, u_global and d."""
    n_b = len(buses)
    t = np.arange(len(rows)) * 0.25 if times is None else times
    return sim.SimResult(bus_ids=buses, t=t, states=rows[:, :3 * n_b],
                         u_local=rows[:, 3 * n_b:4 * n_b], u_global=rows[:, 4 * n_b:5 * n_b],
                         d=rows[:, 5 * n_b:], A_full=None, F_full=None)


def repr_texts(x):
    """The text of each row of ``sim._repr_cells``, NUL bytes left out, one
    formatter call per ``CSV_FORMAT_CHUNK`` values."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    texts = []
    for k in range(0, x.size, sim.CSV_FORMAT_CHUNK):
        cells = sim._repr_cells(x[k:k + sim.CSV_FORMAT_CHUNK])
        assert not cells[:, -2:].any()           # the writer's separator columns
        texts += [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells]
    return texts


def bits_to_floats(words):
    return np.array(words, dtype=np.uint64).view(np.float64)


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

    def test_divergence_named_at_first_nonfinite_sample(self):
        # the history is checked once, after the loop: the error names the
        # sample a check after every step would have stopped at
        t = np.arange(8001) * 1e-3
        d = np.ones((t.size, 1))
        with pytest.raises(DivergedSimulation) as exc:
            sim.integrate([[100.0]], [[1.0]], d, t)
        k = int(np.flatnonzero(t == exc.value.time)[0])
        assert str(exc.value) == f"non-finite state at t={t[k]:.6g} s"
        assert np.isfinite(sim.integrate([[100.0]], [[1.0]], d[:k], t[:k])).all()
        with pytest.raises(DivergedSimulation) as shorter:
            sim.integrate([[100.0]], [[1.0]], d[:k + 1], t[:k + 1])
        assert shorter.value.time == exc.value.time
        # a non-finite initial state is stepped once, then named
        with pytest.raises(DivergedSimulation, match=f"t={t[1]:.6g} s"):
            sim.integrate([[-1.0]], [[1.0]], d, t, x0=[np.inf])

    def test_empty_state(self):
        A, F, d = np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((5, 1))
        t = np.arange(5) * 0.1
        assert sim.integrate(A, F, d, t).shape == (5, 0)
        t[2] += 0.05
        with pytest.raises(InvalidInput, match="uniform"):
            sim.integrate(A, F, d, t)

    @pytest.mark.parametrize("name", ["A", "F", "d"])
    def test_non_numeric_input_named(self, name):
        t = np.arange(5) * 0.1
        args = {"A": [[-1.0]], "F": [[1.0]], "d": np.zeros((t.size, 1))}
        args[name] = [["a"]] * len(args[name])
        with pytest.raises(InvalidInput, match=f"^{name} must be numeric"):
            sim.integrate(args["A"], args["F"], args["d"], t)

    @pytest.mark.parametrize("name", ["A", "F", "d"])
    def test_complex_input_rejected(self, name):
        t = np.arange(5) * 0.1
        args = {"A": [[-1.0]], "F": [[1.0]], "d": np.zeros((t.size, 1))}
        args[name] = np.array([[1j]] * len(args[name]))
        with pytest.raises(InvalidInput, match=f"^{name} must be real-valued$"):
            sim.integrate(args["A"], args["F"], args["d"], t)

    @pytest.mark.parametrize("x0", ["a", ["a"], np.array([1j])],
                             ids=["string", "string-list", "complex"])
    def test_initial_state_converted(self, x0):
        t = np.arange(5) * 0.1
        want = "^x0 must be real-valued$" if np.iscomplexobj(x0) else "^x0 must be numeric"
        with pytest.raises(InvalidInput, match=want):
            sim.integrate([[-1.0]], [[1.0]], np.zeros((t.size, 1)), t, x0=x0)

    def test_initial_state_shape_checked(self):
        t = np.arange(5) * 0.1
        with pytest.raises(InvalidInput, match=r"^x0 must have shape \(1,\), got \(2,\)$"):
            sim.integrate([[-1.0]], [[1.0]], np.zeros((t.size, 1)), t, x0=[1.0, 2.0])

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


class TestRepeatedStates:
    """A repeated state under an unchanged input row is copied, not stepped;
    the history stays byte for byte that of stepping every sample."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_history_is_that_of_stepping_every_sample(self, data):
        n = data.draw(st.sampled_from([1, 3, 9]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A = data.draw(st.sampled_from([random_hurwitz, damped_oscillators]))(rng, n)
        F = rng.standard_normal((n, 2))
        # a step of 1 or 2 over the fastest mode: the state settles into a
        # fixed point or a rounding cycle within several hundred steps
        h = data.draw(st.sampled_from([1.0, 2.0])) / np.abs(np.linalg.eigvals(A)).max()
        # piecewise-constant input from a small pool whose first row is
        # zero; the third piece returns to the first one's value, so a
        # repeat found in one run of equal rows must not carry into another
        pool = np.vstack([np.zeros(2), rng.standard_normal((2, 2))])
        picks = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        if len(picks) > 2:
            picks[2] = picks[0]
        lengths = rng.integers(1, 1500, size=len(picks))
        d = np.vstack([np.repeat(pool[[i]], m, axis=0) for i, m in zip(picks, lengths)]
                      + [pool[[picks[-1]]]])
        t = np.arange(d.shape[0]) * h
        kind = data.draw(st.sampled_from(["none", "zero", "random", "nonfinite"]))
        x0 = {"none": None, "zero": np.zeros(n)}.get(kind, rng.standard_normal(n))
        if kind == "nonfinite":
            x0[data.draw(st.integers(0, n - 1))] = data.draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
        chunk = data.draw(st.integers(1, 16))
        with mock.patch.object(sim, "REPEAT_CHUNK", chunk):
            got, err = integrate_history(A, F, d, t, x0=x0)
        want = step_every_sample(A, F, d, t, x0=x0)
        assert got.tobytes() == want.tobytes()
        bad = np.flatnonzero(~np.isfinite(want[1:]).all(axis=1))
        assert err == (f"non-finite state at t={t[bad[0] + 1]:.6g} s" if bad.size else None)

    @pytest.mark.parametrize("chunk", [1, 5, 256])
    def test_cycles_of_several_states_are_copied_exactly(self, rng, chunk):
        # lightly damped modes under a load that steps, is released and
        # returns: each nonzero run settles into a rounding cycle
        periods = []
        spy = mock.patch.object(sim, "_repeat", wraps=sim._repeat)
        for _ in range(4):
            A = damped_oscillators(rng, 9)
            F = rng.standard_normal((9, 2))
            h = 2.0 / np.abs(np.linalg.eigvals(A)).max()
            v = rng.standard_normal(2)
            d = np.vstack([np.zeros((300, 2)), np.tile(v, (1500, 1)),
                           np.zeros((1500, 2)), np.tile(v, (1501, 1))])
            t = np.arange(d.shape[0]) * h
            with spy as repeat, mock.patch.object(sim, "REPEAT_CHUNK", chunk):
                got = sim.integrate(A, F, d, t)
            assert got.tobytes() == step_every_sample(A, F, d, t).tobytes()
            periods += [c.args[3] for c in repeat.call_args_list]
        assert max(periods) > 1

    @pytest.mark.parametrize("use_global", [True, False])
    def test_three_bus_default_run_is_that_of_stepping_every_sample(self, three_bus,
                                                                    use_global):
        res = certify.assess_grid(three_bus, use_global=use_global)
        F = gridmodel.disturbance_matrix(res.subsystems)
        t = np.arange(10001) * 1e-3
        d = sim._disturbance_profile(three_bus.disturbances, three_bus.bus_ids, t)
        got = sim.integrate(res.A_full, F, d, t)
        assert got.tobytes() == step_every_sample(res.A_full, F, d, t).tobytes()

    def test_settled_cycle_is_copied(self, three_bus, certified):
        # one step of the zeros before the load step at t = 0.5 s, then the
        # steps to states[2950], the first repeat of the load run's rounding
        # cycle (of states[2688]), and at most the rest of its chunk
        with mock.patch.object(sim, "_step", wraps=sim._step) as step:
            out = run_three_bus(three_bus, certified)
        assert out.t.size == 10001
        assert distinct_rows(out.states) < 3000
        assert 0 < matvecs(step) <= 1 + 2450 + sim.REPEAT_CHUNK - 1

    def test_state_that_never_repeats_is_stepped_every_sample(self, rng):
        A = random_hurwitz(rng, 3)
        F = rng.standard_normal((3, 1))
        t = np.arange(3001) * 1e-3
        d = np.ones((t.size, 1))
        x0 = rng.standard_normal(3)
        with mock.patch.object(sim, "_step", wraps=sim._step) as step:
            states = sim.integrate(A, F, d, t, x0=x0)
        assert distinct_rows(states) == t.size
        assert matvecs(step) == t.size - 1

    def test_fixed_point_costs_one_matvec(self, rng):
        A = random_hurwitz(rng, 3)
        F = rng.standard_normal((3, 1))
        t = np.arange(501) * 1e-3
        with mock.patch.object(sim, "_step", wraps=sim._step) as step:
            states = sim.integrate(A, F, np.zeros((t.size, 1)), t)
        assert matvecs(step) == 1
        assert states.tobytes() == np.zeros_like(states).tobytes()

    def test_equal_keys_still_find_the_first_repeat(self, rng):
        # every state collides with every other: the lookup probes on and
        # compares bytes, so it copies from the same repeat as real keys do
        A = damped_oscillators(rng, 9)
        F = rng.standard_normal((9, 2))
        h = 2.0 / np.abs(np.linalg.eigvals(A)).max()
        d = np.tile(rng.standard_normal(2), (1001, 1))
        t = np.arange(d.shape[0]) * h
        calls = []
        for keys in (sim._keys, equal_keys):
            with mock.patch.object(sim, "_repeat", wraps=sim._repeat) as repeat, \
                    mock.patch.object(sim, "_keys", keys):
                got = sim.integrate(A, F, d, t)
            assert got.tobytes() == step_every_sample(A, F, d, t).tobytes()
            calls.append([c.args[1:] for c in repeat.call_args_list])
        assert len(calls[0]) == 1 and calls[1] == calls[0]

    def test_input_that_changes_every_step_is_one_run_per_step(self, rng):
        A = random_hurwitz(rng, 3)
        F = rng.standard_normal((3, 1))
        t = np.arange(3001) * 1e-3
        d = np.sin(t)[:, None]
        with mock.patch.object(sim, "_step", wraps=sim._step) as step, \
                mock.patch.object(sim, "_step_run", wraps=sim._step_run) as run:
            got = sim.integrate(A, F, d, t)
        assert run.call_count == t.size - 1
        assert matvecs(step) == t.size - 1
        assert got.tobytes() == step_every_sample(A, F, d, t).tobytes()

    @pytest.mark.parametrize("case", ["steps-0.2-0.5-0.6", "runs-1-255-256-257",
                                      "settled-runs-1-255-256-257", "one-step", "two-buses"])
    def test_runs_shorter_than_a_chunk_are_those_of_stepping_every_sample(
            self, rng, certified, case):
        # the three-bus loop at the default step, under load steps and input
        # runs shorter than, as long as and longer than REPEAT_CHUNK; and a
        # loop whose modes all settle within 130 steps of 0.5, so each run of
        # more than one step ends in a repeated nonzero state
        res, F = certified
        A, h = res.A_full, 1e-3
        if case.startswith("settled"):
            Q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
            A, h = Q @ np.diag(-rng.uniform(1.0, 2.0, 9)) @ Q.T, 0.5
        if case.endswith("runs-1-255-256-257"):
            lengths = [1, 255, 256, 257, 1, 257, 256, 255]
            d = np.repeat(rng.standard_normal((len(lengths), 3)), lengths, axis=0)
        elif case == "one-step":
            d = rng.standard_normal((2, 3))
        else:
            steps = ([(1, 0.2), (2, 0.5), (3, 0.6)] if case == "steps-0.2-0.5-0.6"
                     else [(1, 0.1), (3, 0.15)])
            dists = [gridmodel.Disturbance(bus=bus, delta_PL=rng.standard_normal(), t_step=ts)
                     for bus, ts in steps]
            samples = 1001 if case == "steps-0.2-0.5-0.6" else 301
            d = sim._disturbance_profile(dists, [1, 2, 3], np.arange(samples) * h)
            assert np.count_nonzero(d[-1]) == len(steps)
        t = np.arange(len(d)) * h
        bits = d[:-1].view(np.uint64)
        runs = np.diff(np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1), True]))
        assert runs.min() < sim.REPEAT_CHUNK
        for x0 in (None, rng.standard_normal(9)):
            got = sim.integrate(A, F, d, t, x0=x0)
            assert got.tobytes() == step_every_sample(A, F, d, t, x0=x0).tobytes()


class TestPropagatorBuild:
    """The propagator built in place, in at most three n x n arrays besides
    ``A``: the bits of the dense Horner formula, exact and signed zeros
    included, and a working set bounded by n^2, the samples and ``g``."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("c", [1.0 / 6.0, 0.5, 1.0])
    def test_identity_added_in_place_has_the_bits_of_the_dense_sum(self, rng, c, order):
        Z = np.where(rng.random((9, 9)) < 0.5, -0.0, rng.standard_normal((9, 9)))
        Z[[0, 1, 2], [0, 1, 2]] = [-0.0, 0.0, -c]
        Z = np.asarray(Z, order=order)
        want = c * np.eye(9) + Z
        got = sim._add_eye(Z, c)
        assert got is Z
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", [np.asfortranarray,
                                        lambda a: np.repeat(a, 2, axis=1)[:, ::2]])
    def test_system_matrix_in_any_layout_is_that_of_stepping_every_sample(self, rng,
                                                                          layout):
        # the dense reference on the same arrays: products may round by layout
        A = layout(random_hurwitz(rng, 9))
        F = layout(rng.standard_normal((9, 2)))
        assert not A.flags.c_contiguous and not F.flags.c_contiguous
        t = np.arange(2001) * 1e-2
        d = load_steps(rng, t.size, 2)
        got, err = integrate_history(A, F, d, t)
        assert err is None
        assert got.tobytes() == step_every_sample(A, F, d, t).tobytes()

    def test_ring_grid_with_global_gains_is_that_of_stepping_every_sample(self, rng):
        res = certify.assess_grid(make_grid(*ring_grid_tuples(rng, 30)), use_global=True)
        A = res.A_full
        assert (A == 0.0).mean() > 0.9                # mostly exact zeros
        F = gridmodel.disturbance_matrix(res.subsystems)
        t = np.arange(3001) * 1e-3
        d = load_steps(rng, t.size, F.shape[1])
        got, err = integrate_history(A, F, d, t)
        assert err is None
        assert got.tobytes() == step_every_sample(A, F, d, t).tobytes()

    def test_negative_zeros_off_the_diagonal(self, rng):
        n = 9
        off = ~np.eye(n, dtype=bool)
        # diagonally dominant, so Hurwitz whatever the seed (Gershgorin)
        A = np.where(off, rng.uniform(-0.1, 0.1, (n, n)), -rng.uniform(1.0, 2.0, n))
        A[off & (rng.random((n, n)) < 0.6)] = -0.0
        F = np.where(rng.random((n, 2)) < 0.5, -0.0, rng.standard_normal((n, 2)))
        t = np.arange(2001) * 1e-2
        d = load_steps(rng, t.size, 2)
        for x0 in (None, np.full(n, -0.0)):
            got, err = integrate_history(A, F, d, t, x0=x0)
            assert err is None
            assert got.tobytes() == step_every_sample(A, F, d, t, x0=x0).tobytes()

    @pytest.mark.parametrize("samples", [301, 2001])
    def test_traced_peaks_are_bounded(self, rng, samples):
        # integrate: three n x n arrays during the build, then M, hP F, g
        # and the history, plus one-byte masks of the history's size;
        # settling_time: one block of SETTLE_BLOCK values, whatever the samples
        n, slack = 300, 64 * 1024
        A = random_hurwitz(rng, n)
        F = rng.standard_normal((n, 2))
        t = np.arange(samples) * 2e-2
        d = load_steps(rng, t.size, 2)
        tracemalloc.start()
        try:
            states = sim.integrate(A, F, d, t)
            integrate_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = (samples - 1) * n
        assert integrate_peak <= (8 * max(3 * n * n, n * n + F.size + g + samples * n)
                                  + 2 * samples * n + slack)
        result = sim.SimResult(bus_ids=list(range(n // 3)), t=t, states=states, d=d,
                               u_local=None, u_global=None, A_full=A, F_full=F)
        tracemalloc.start()
        try:
            sim.settling_time(result)
            settle_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert settle_peak <= 8 * sim.SETTLE_BLOCK + slack


def sparse_ring(rng, buses=200):
    """A ring grid's closed loop with global gains, past ``sim.SPARSE_FILL``,
    and its disturbance columns."""
    res = certify.assess_grid(make_grid(*ring_grid_tuples(rng, buses)), use_global=True)
    A = res.A_full
    assert np.count_nonzero(A) < sim.SPARSE_FILL * A.size
    return A, gridmodel.disturbance_matrix(res.subsystems)


def stages_every_sample(A, F, d, t, x0=None):
    """Reference: every sample stepped by the sparse stages of ``sim._step``,
    with no repeat lookup; it returns the history without checking it."""
    states = np.zeros((t.size, A.shape[0]))
    if x0 is not None:
        states[0] = x0
    rows, cols = np.nonzero(A)
    M = (rows, cols, A[rows, cols], (t[-1] - t[0]) / (t.size - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        sim._step(M, d[:-1] @ F.T, states, 0, t.size - 1)
    return states


class TestSparseStep:
    """Closed loops with fewer than ``SPARSE_FILL`` nonzeros per entry take
    the RK4 stages on A's nonzeros, no propagator: the stage-by-stage
    scheme to rounding, the repeat lookup exact, the same divergence, a
    working set with no n x n array; a dense A of any order keeps the
    propagator's bits."""

    def test_matches_stages_on_a_ring_grid(self, rng):
        A, F = sparse_ring(rng)
        t = np.arange(1001) * 1e-3
        d = load_steps(rng, t.size, F.shape[1])
        x0 = 1e-3 * rng.standard_normal(A.shape[0])
        with mock.patch.object(sim, "_propagator", wraps=sim._propagator) as build:
            got = sim.integrate(A, F, d, t, x0=x0)
        assert not build.called
        want = rk4_stages(A, F, d, t, x0=x0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_history_with_load_steps_is_that_of_stepping_every_sample(self, rng):
        A, F = sparse_ring(rng)
        t = np.arange(3001) * 1e-3
        d = np.zeros((t.size, F.shape[1]))
        d[500:, :3] = rng.standard_normal(3)            # zeros first: a repeat to copy
        d[1700:, 5] = rng.standard_normal()
        with mock.patch.object(sim, "_repeat", wraps=sim._repeat) as repeat, \
                mock.patch.object(sim, "_step", wraps=sim._step) as step:
            got, err = integrate_history(A, F, d, t)
        assert err is None
        assert repeat.called
        assert matvecs(step) < t.size - 1
        assert got.tobytes() == stages_every_sample(A, F, d, t).tobytes()

    def test_same_divergence_step(self, rng):
        # a step outside the stability region: the state overflows in a few steps
        A, F = sparse_ring(rng)
        t = np.arange(501) * 0.3
        d = np.zeros((t.size, F.shape[1]))
        d[:, 0] = 0.1
        with pytest.raises(DivergedSimulation) as want:
            rk4_stages(A, F, d, t)
        with pytest.raises(DivergedSimulation) as got:
            sim.integrate(A, F, d, t)
        assert got.value.time == want.value.time
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("samples", [301, 2001])
    def test_traced_peak_is_bounded(self, rng, samples):
        # the history, g and one-byte masks of the history's size, plus A's
        # nonzeros with their rows and columns and the two nnz-sized
        # temporaries of each product: no n x n array
        A, F = sparse_ring(rng)
        n, nnz, slack = A.shape[0], np.count_nonzero(A), 64 * 1024
        t = np.arange(samples) * 1e-3
        d = load_steps(rng, t.size, F.shape[1])
        tracemalloc.start()
        try:
            sim.integrate(A, F, d, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = (samples - 1) * n
        assert peak <= 8 * (g + samples * n + 5 * nnz) + 2 * samples * n + slack

    def test_dense_matrix_of_a_sparse_ring_order_keeps_the_propagator(self, rng):
        n = 600                                          # sparse_ring's order
        A = random_hurwitz(rng, n)
        F = rng.standard_normal((n, 2))
        t = np.arange(201) * 1e-2
        d = load_steps(rng, t.size, 2)
        got, err = integrate_history(A, F, d, t)
        assert err is None
        assert got.tobytes() == step_every_sample(A, F, d, t).tobytes()


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

    @pytest.mark.parametrize("t_end,dt,suggested", [
        (3.0, 0.3, 0.001),               # the default step passes
        (7.0, 0.35, 0.001),
        (3.14159, 0.314159, 3.14159 / 3142),   # 1e-3 does not divide it: 3142 whole steps
    ])
    def test_passing_dt_divides_the_horizon(self, three_bus, certified, t_end, dt,
                                            suggested):
        with pytest.raises(InvalidInput, match=r"spectral radius") as exc:
            run_three_bus(three_bus, certified, t_end=t_end, dt=dt)
        assert str(exc.value).endswith(f"; dt={suggested!r} s passes")
        out = run_three_bus(three_bus, certified, t_end=t_end, dt=suggested)
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

    @pytest.mark.parametrize("spectrum", [
        lambda lam: np.where(np.arange(lam.size) == 0, np.nan, lam),   # the check would be skipped
        lambda lam: lam[:-1],
        lambda lam: np.concatenate([lam, lam]),
    ], ids=["nan", "short", "long"])
    def test_spectrum_of_n_finite_values_required(self, three_bus, certified, spectrum):
        res, F = certified
        with pytest.raises(InvalidInput, match=r"eigenvalues must be 9 finite values"):
            sim.simulate(res.A_full, F, sim.SimConfig(t_end=3.0, dt=0.3), three_bus.bus_ids, {},
                         eigenvalues=spectrum(np.linalg.eigvals(res.A_full)))

    @pytest.mark.parametrize("name", ["A_full", "F_full", "eigenvalues"])
    def test_non_numeric_input_named(self, three_bus, certified, name):
        res, F = certified
        args = {"A_full": res.A_full, "F_full": F,
                "eigenvalues": np.linalg.eigvals(res.A_full)}
        args[name] = np.array(["a", "b", "c"])
        with pytest.raises(InvalidInput, match=f"^{name} must be numeric"):
            sim.simulate(args["A_full"], args["F_full"], sim.SimConfig(t_end=3.0, dt=0.3),
                         three_bus.bus_ids, {}, eigenvalues=args["eigenvalues"])

    @pytest.mark.parametrize("name", ["A_full", "F_full"])
    def test_complex_input_rejected(self, three_bus, certified, name):
        res, F = certified
        args = {"A_full": res.A_full, "F_full": F}
        args[name] = args[name] + 1j
        with pytest.raises(InvalidInput, match=f"^{name} must be real-valued$"):
            sim.simulate(args["A_full"], args["F_full"], sim.SimConfig(t_end=3.0),
                         three_bus.bus_ids, {}, eigenvalues=np.linalg.eigvals(res.A_full))

    def test_overflowing_radius_fails_the_check(self, three_bus, certified):
        # dt * lambda overflows to inf, or to nan in complex arithmetic: the
        # radius reads inf, with no numpy warning; the step that passes,
        # 1e307 / 1.8e308 s, needs more samples than any array holds
        res, _ = certified
        lam = np.linalg.eigvals(res.A_full)
        assert sim.rk4_radius(lam, 1e306) == math.inf
        assert sim.rk4_radius(lam.real, 1e306) == math.inf
        want = (r"^dt=1e\+306 s is outside the RK4 .* radius inf > 1; dt=0\.0556\d+ s "
                r"passes but needs 1\.798e\+308 samples, more than can be allocated$")
        with pytest.raises(InvalidInput, match=want):
            run_three_bus(three_bus, certified, t_end=1e307, dt=1e306)

    @pytest.mark.parametrize("t_end, tail", [
        (1e14, "; dt=0.001 s passes"),   # 1e17 samples of 9 states: 7.2e18 bytes fit an array
        (1e15, "; dt=0.001 s passes but needs 1e+18 samples, more than can be allocated"),
    ])
    def test_passing_step_names_samples_past_the_largest_array(self, three_bus, certified,
                                                               t_end, tail):
        # the radius at dt = t_end / 100 is finite; the verdict on the passing
        # step's state history reads numpy's array size limit, not free memory
        with pytest.raises(InvalidInput) as exc:
            run_three_bus(three_bus, certified, t_end=t_end, dt=t_end / 100)
        assert str(exc.value).endswith(tail)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_named_step_is_the_default_halved_until_it_passes(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["real", "complex", "stiff"]))
        top = {"real": 3.0, "complex": 3.0, "stiff": 6.0}[kind]   # |lambda| up to 10**top
        lam = -10.0 ** rng.uniform(-3.0, top, size=rng.integers(1, 7))
        if kind == "complex":
            im = lam * rng.uniform(0.0, 5.0, size=lam.size)
            lam = np.concatenate([lam + 1j * im, lam - 1j * im])
        t_end = data.draw(st.one_of(st.sampled_from([3.0, 7.0, 3.14159, 0.1, 1e-4, 0.0025]),
                                    st.floats(1e-4, 1e3)))
        named = sim._stable_dt(lam, t_end)
        assert sim.rk4_radius(lam, named) <= 1.0
        sim.SimConfig(t_end=t_end, dt=named)            # divides t_end as it stands
        # the default step: the least k whose t_end / k is DEFAULT_DT or below, to rounding
        k = math.ceil(t_end / sim.DEFAULT_DT * (1.0 - 4 * np.finfo(float).eps))
        assert t_end / k <= sim.DEFAULT_DT * (1.0 + 4 * np.finfo(float).eps)
        assert k == 1 or t_end / (k - 1) > sim.DEFAULT_DT
        if sim.rk4_radius(lam, t_end / k) <= 1.0:
            assert named == t_end / k
        else:
            assert named < t_end / k
            assert sim.rk4_radius(lam, 2.0 * named) > 1.0

    @pytest.mark.parametrize("t_end", [1e306, sys.float_info.max])
    def test_named_step_of_an_overflowed_step_count(self, t_end):
        # t_end / DEFAULT_DT is inf: every step is a whole number of them
        lam = np.array([-6000.0, -1.0 + 2.0j, -1.0 - 2.0j])
        named = sim._stable_dt(lam, t_end)
        assert 0.0 < named and sim.rk4_radius(lam, named) <= 1.0 < sim.rk4_radius(lam, 2 * named)
        sim.SimConfig(t_end=t_end, dt=named)

    def test_non_hurwitz_is_not_rejected_at_any_dt(self):
        g1 = make_grid([(1, 8.0, 1.0, 0.9)], [])
        sub = gridmodel.build_subsystems(g1)[0]
        cfg = sim.SimConfig(t_end=0.6, dt=0.3, disturbances=[])
        out = sim.simulate(sub.A_hat, sub.F.reshape(3, 1), cfg, [1], {},
                           eigenvalues=np.linalg.eigvals(sub.A_hat))
        assert out.t.size == 3


class TestSimulate:
    def test_zero_disturbance_identically_zero(self, three_bus, certified):
        res, F = certified
        cfg = sim.SimConfig(t_end=1.0, disturbances=[])
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains,
                           eigenvalues=np.linalg.eigvals(res.A_full))
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
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, gains=res.gains,
                           eigenvalues=np.linalg.eigvals(res.A_full))
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
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, {},
                           eigenvalues=np.linalg.eigvals(res.A_full))
        assert out.d[0, 0] == 0.0
        assert out.d[1, 0] == 0.1   # active from the next grid point

    def test_shape_validation(self, three_bus, certified):
        res, F = certified
        with pytest.raises(InvalidInput):
            sim.simulate(res.A_full, F, sim.SimConfig(t_end=1.0), [1, 2], {},
                         eigenvalues=np.linalg.eigvals(res.A_full))
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

    @pytest.mark.parametrize("t_end,dt,message", [
        (0.1, 0.04, "t_end=0.1 s is 2.5 steps of dt=0.04 s, not a whole number: "
                    "use t_end=0.08 or 0.12"),
        (0.0025, 1e-3, "t_end=0.0025 s is 2.5 steps of dt=0.001 s, not a whole number: "
                       "use t_end=0.002 or 0.003"),
        (1.0005, 1e-3, "t_end=1.0005 s is 1000.4999999999999 steps of dt=0.001 s, not a "
                       "whole number: use t_end=1.0 or 1.001"),
        # each number in full: a fraction of a step, or a horizon, that 6 digits round away
        (1.0 + 1e-9, 1e-3, "t_end=1.000000001 s is 1000.0000010000001 steps of dt=0.001 s, "
                           "not a whole number: use t_end=1.0 or 1.001"),
        (1.0, 0.0012345678, "t_end=1.0 s is 810.0000664200054 steps of dt=0.0012345678 s, "
                            "not a whole number: use t_end=0.999999918 or 1.0012344858"),
        (0.14, 0.04, "t_end=0.14 s is 3.5000000000000004 steps of dt=0.04 s, not a whole "
                     "number: use t_end=0.12 or 0.16"),
    ])
    def test_horizon_of_a_fraction_of_a_step_rejected(self, t_end, dt, message):
        with pytest.raises(InvalidInput) as exc:
            sim.SimConfig(t_end=t_end, dt=dt)
        assert str(exc.value) == message
        # either horizon the message names passes as printed
        for horizon in re.search(r"use t_end=(\S+) or (\S+)$", message).groups():
            assert sim.SimConfig(t_end=float(horizon), dt=dt).dt == dt

    @pytest.mark.parametrize("t_end,dt", [
        (0.5, 1e-3), (1.0, 1e-3), (3.0, 1e-3), (10.0, 1e-3), (12.0, 1e-3), (0.14, 1e-3),
        (3.0, 5e-4), (1e9, 1e-3), (3.0, 0.3), (0.6, 0.3),
        (0.3, 0.1), (0.7, 0.1), (10.0, 1e-300),     # quotients an ulp or so off a whole count
    ])
    def test_whole_horizon_within_rounding_accepted(self, t_end, dt):
        assert sim.SimConfig(t_end=t_end, dt=dt).t_end == t_end


class TestSteadyState:
    def test_zero_input_zero_residuals(self, three_bus, certified):
        res, F = certified
        cfg = sim.SimConfig(t_end=1.0, disturbances=[])
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, {},
                           eigenvalues=np.linalg.eigvals(res.A_full))
        rep = sim.steady_state_check(out)
        assert rep["power_balance_residual"] == 0.0
        assert rep["max_state_derivative"] == 0.0
        assert all(v == 0.0 for v in rep["omega_end"].values())

    def test_power_balance_after_step(self, three_bus, certified):
        out = run_three_bus(three_bus, certified)
        rep = sim.steady_state_check(out)
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
        out = sim.simulate(res.A_full, F, cfg, three_bus.bus_ids, {},
                           eigenvalues=np.linalg.eigvals(res.A_full))
        a = sim.steady_state_check(base)["pm_sum"]
        b = sim.steady_state_check(out)["pm_sum"]
        assert b / a == pytest.approx(2.0, abs=1e-9)

    def test_overflow_is_a_value_not_a_warning(self, three_bus, certified):
        # the residual of a final state near the float limit overflows; the
        # summary carries it as non-finite (the CLI then rejects the artifact)
        out = run_three_bus(three_bus, certified, t_end=0.01)
        out.states[-1] = 1e308
        rep = sim.steady_state_check(out)
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

    @pytest.mark.parametrize("block", [1, 20, 50, 10**6])
    def test_blocks_give_the_time_of_the_whole_history(self, three_bus, certified, block):
        out = run_three_bus(three_bus, certified, t_end=2.0)
        # the same run, settled from the first sample, and with a NaN state
        # (whose deviation is no violation) before its last violation
        settled = np.tile(out.states[-1], (out.t.size, 1))
        nan = out.states.copy()
        nan[100, 4] = np.nan
        for states in (out.states, settled, nan, out.states[:1]):
            run = sim.SimResult(bus_ids=out.bus_ids, t=out.t[:len(states)], states=states,
                                d=out.d, u_local=out.u_local, u_global=out.u_global,
                                A_full=out.A_full, F_full=out.F_full)
            dev = np.abs(states - states[-1]).max(axis=1)
            late = np.flatnonzero(dev >= sim.SETTLE_THRESHOLD)
            k = int(late[-1]) + 1 if late.size else 0
            want = None if late.size and k >= len(states) - 1 else float(run.t[k])
            with mock.patch.object(sim, "SETTLE_BLOCK", block):
                assert sim.settling_time(run) == want


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

    def test_default_cli_run_matches_reference(self, three_bus, certified, tmp_path):
        # the full 10 s run: zeros before the load step, then a settled RK4
        # cycle through a few bit patterns, across several blocks
        assert cli.main(["simulate", three_bus_path(), "--out", str(tmp_path)]) == 0
        out = run_three_bus(three_bus, certified)
        assert out.t.size == 10001
        ref = csv_writer_reference(out)
        assert (tmp_path / "sim.csv").read_bytes() == ref.encode("utf-8")

        writes = []

        class Counting:
            def write(self, s):
                writes.append(s)

        out.to_csv(Counting())
        assert "".join(writes) == ref
        assert len(writes) == 1 + math.ceil(out.t.size / (sim.CSV_BLOCK_ROWS // 3))
        assert max(s.count("\r\n") for s in writes) <= sim.CSV_BLOCK_ROWS

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_matches_csv_writer_reference(self, data):
        # samples drawn from a small pool, so rows repeat back to back, apart
        # and across block boundaries (the block shrunk to a few rows); a
        # signed-zero twin must share text and NaN payload twins print nan;
        # with every key equal, each row is told apart by its words alone
        buses = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
        n_b = len(buses)
        block_rows = data.draw(st.integers(1, 24))
        block = max(1, block_rows // n_b)
        n_t = data.draw(st.integers(1, 3 * block + 1))
        value = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                             1.7976931348623157e308, 0.1, 1e16, -1e-5]))

        def column(size):
            return np.array(data.draw(st.lists(value, min_size=size, max_size=size)))

        def picks(n):
            return np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n_t,
                                               max_size=n_t)))

        pool = [column(6 * n_b) for _ in range(data.draw(st.integers(1, 3)))]
        pool.append(np.where(pool[0] == 0.0, -pool[0], pool[0]))    # zeros with flipped sign
        for payload in (0x7FF8000000000000, 0xFFF0000000000001):   # quiet; signalling
            row = pool[0].copy()
            row.view(np.uint64)[data.draw(st.integers(0, 6 * n_b - 1))] = payload
            pool.append(row)
        idx = picks(len(pool))
        if n_t > block:
            idx[block] = idx[block - 1]              # a repeat across the first boundary
        rows = np.array(pool)[idx]
        times = np.append(column(2), np.uint64(0x7FF0000000000001).view(np.float64))
        result = result_of_rows(buses, rows, times[picks(3)])
        keys = data.draw(st.sampled_from([sim._keys, equal_keys]))
        with mock.patch.object(sim, "CSV_BLOCK_ROWS", block_rows), \
                mock.patch.object(sim, "_keys", keys):
            text = csv_text(result)
        assert text == csv_writer_reference(result)

    def test_repeat_across_blocks_reuses_the_previous_block(self):
        # blocks of two samples A B | B A | A C | B B: a sample of the
        # previous block is not formatted again, one of two blocks back is
        a, b, c = (np.full((1, 18), v) for v in (0.5, -0.0, 1e-300))
        result = result_of_rows([0, 2, 5], np.vstack([a, b, b, a, a, c, b, b]))
        with mock.patch.object(sim, "CSV_BLOCK_ROWS", 6), \
                mock.patch.object(sim, "_csv_bodies", wraps=sim._csv_bodies) as bodies:
            text = csv_text(result)
        assert text == csv_writer_reference(result)
        formatted = [call.args[0].reshape(-1, 3, 6)[:, 0, 0].tolist()
                     for call in bodies.call_args_list]
        assert formatted == [[0.5, 0.0], [], [1e-300], [0.0]]

    @pytest.mark.parametrize("keys", [sim._keys, equal_keys], ids=["keys", "equal_keys"])
    def test_nan_payloads_and_signed_zeros_match_reference(self, keys):
        # rows that differ only in a NaN payload or a zero's sign, within a
        # block and across its boundary: distinct words, the same text
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000002,
                         0x7FF0000000000001, 0xFFF0000000000003], np.uint64).view(np.float64)
        rows = np.zeros((12, 12))
        rows[1::2, 3] = -0.0
        rows[:, 7] = nans[np.arange(12) % len(nans)]
        rows[::3, 0] = -0.0
        result = result_of_rows([7, 11], rows)
        for block_rows in (2, 4, 6, 8192):
            with mock.patch.object(sim, "CSV_BLOCK_ROWS", block_rows), \
                    mock.patch.object(sim, "_keys", keys):
                assert csv_text(result) == csv_writer_reference(result)

    def test_default_run_with_equal_keys_matches_reference(self, three_bus, certified):
        # every key collides: the writer formats more, never a wrong byte
        out = run_three_bus(three_bus, certified, t_end=3.0)
        with mock.patch.object(sim, "_keys", equal_keys):
            text = csv_text(out)
        assert text == csv_writer_reference(out)

    def test_cli_run_with_three_digit_exponents_matches_reference(self, tmp_path):
        # a real run whose values reach 1e300: exponent notation with three
        # exponent digits, written by the CLI
        runs = []
        to_csv = sim.SimResult.to_csv

        def keep(result, fh):
            runs.append(result)
            return to_csv(result, fh)

        with mock.patch.object(sim.SimResult, "to_csv", keep):
            assert cli.main(["simulate", three_bus_path(), "--step-pu", "1e300",
                             "--t-end", "1", "--out", str(tmp_path)]) == 0
        data = (tmp_path / "sim.csv").read_bytes()
        assert data == csv_writer_reference(runs[0]).encode("utf-8")
        assert re.search(rb",-?\d\.\d+e\+300,", data)

    def test_ring_grid_matches_reference(self, rng):
        # a seeded 30-bus ring: two-digit bus ids, and values in fixed and in
        # exponent notation
        grid = make_grid(*ring_grid_tuples(rng, 30), disturbances=[(1, 0.1, 0.5)])
        res = certify.assess_grid(grid, use_global=True)
        cfg = sim.SimConfig(t_end=1.0, disturbances=grid.disturbances)
        out = sim.simulate(res.A_full, gridmodel.disturbance_matrix(res.subsystems), cfg,
                           grid.bus_ids, gains=res.gains,
                           eigenvalues=np.linalg.eigvals(res.A_full))
        text = csv_text(out)
        assert text == csv_writer_reference(out)
        cells = [row.split(",") for row in text.splitlines()[1:]]
        assert {row[1] for row in cells} >= {"10", "30"}
        values = [v for row in cells for v in row[2:]]
        assert any("e-" in v for v in values)
        assert any("e" not in v and v != "0.0" for v in values)

    def test_formatter_gets_at_most_one_chunk(self, three_bus, certified):
        # whatever the block size, the number formatter sees at most
        # CSV_FORMAT_CHUNK values per call, which bounds its arrays
        out = run_three_bus(three_bus, certified)
        sizes = []
        repr_cells = sim._repr_cells

        def spy(x):
            sizes.append(x.size)
            return repr_cells(x)

        with mock.patch.object(sim, "CSV_BLOCK_ROWS", 10 ** 6), \
                mock.patch.object(sim, "_repr_cells", spy):
            text = csv_text(out)
        assert text == csv_writer_reference(out)
        assert sum(sizes) > sim.CSV_FORMAT_CHUNK      # one block, several calls
        assert max(sizes) <= sim.CSV_FORMAT_CHUNK


    def test_times_are_formatted_in_chunks_that_span_blocks(self, three_bus, certified):
        # 101 blocks of 100 samples; their times in two calls of the formatter
        out = run_three_bus(three_bus, certified)
        with mock.patch.object(sim, "CSV_BLOCK_ROWS", 300), \
                mock.patch.object(sim, "_csv_times", wraps=sim._csv_times) as times:
            text = csv_text(out)
        assert text == csv_writer_reference(out)
        sizes = [c.args[0].size for c in times.call_args_list if c.args[0].size]
        assert sizes == [sim.CSV_FORMAT_CHUNK, out.t.size - sim.CSV_FORMAT_CHUNK]

class TestReprCells:
    """``sim._repr_cells`` against ``repr``, value by value."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, words):
        x = bits_to_floats(words)
        assert repr_texts(x) == [repr(v) for v in x.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_floats(self, values):
        assert repr_texts(values) == [repr(v) for v in values]

    def test_edge_values(self):
        nan_bits = [0x7FF8000000000000, 0x7FF0000000000001, 0x7FF4000000000000]   # quiet, signalling
        subnormal = [5e-324, 1e-323, 2.2250738585072009e-308, 1e-310, 1.5e-315,
                     *bits_to_floats([1, 2, 3, 0xFFFFF, 0x000FFFFFFFFFFFFE]).tolist()]
        powers_of_two = [2.0 ** p for p in range(-1022, 1024)]     # c = 2**52: the uneven spacing
        powers_of_ten = [float(f"1e{k}") for k in range(-307, 309)]
        switches = [v for b in (1e-4, 1e16) for v in (b, *np.nextafter(b, [0.0, np.inf]).tolist())]
        large = [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 9007199254740993.0, sys.float_info.max]
        values = [0.0, math.inf, *bits_to_floats(nan_bits).tolist(), *subnormal,
                  *powers_of_two, *powers_of_ten, *switches, *large]
        x = np.array(values + [-v for v in values])
        texts = repr_texts(x)
        assert texts == [repr(v) for v in x.tolist()]
        assert {"-0.0", "nan", "inf", "-inf", "5e-324", "1e-05", "0.0001", "1e+16",
                "1000000000000000.0", "9007199254740991.0", "1.7976931348623157e+308"} <= set(texts)
