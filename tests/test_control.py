import numpy as np
import pytest

from gridcert import control, gridmodel, linalg
from gridcert.errors import Degenerate, InvalidInput, Uncontrollable, Unsupported
from sampling import random_hurwitz


def _sorted(z):
    z = np.asarray(z, dtype=complex)
    return z[np.lexsort((z.imag, z.real))]


def bus_models(grid):
    return {s.bus: s for s in gridmodel.build_subsystems(grid)}


THREE_BUS_POLES = {1: [-22.0, -39.0, -43.0],
                   2: [-24.0, -43.0, -37.0],
                   3: [-25.0, -38.0, -42.0]}


class TestPolePlace:
    def test_double_integrator_by_hand(self):
        # Ackermann by hand: C = [[0,1],[1,0]], p(A) = A^2 + 2A + I
        K = control.pole_place([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [-1.0, -1.0])
        assert np.allclose(K, [1.0, 2.0], atol=1e-12)

    def test_pole_already_in_place(self):
        K = control.pole_place([[-2.0]], [1.0], [-2.0])
        assert np.allclose(K, [0.0], atol=1e-12)

    def test_three_bus_placement(self, three_bus):
        for bus, sub in bus_models(three_bus).items():
            K = control.pole_place(sub.A_hat, sub.B, THREE_BUS_POLES[bus])
            got = np.sort(np.linalg.eigvals(sub.A_hat - np.outer(sub.B, K)).real)
            assert np.allclose(got, sorted(THREE_BUS_POLES[bus]), rtol=1e-6)

    def test_complex_conjugate_poles(self):
        A = [[0.0, 1.0], [0.0, 0.0]]
        K = control.pole_place(A, [0.0, 1.0], [complex(-1, 2), complex(-1, -2)])
        got = _sorted(np.linalg.eigvals(np.array(A) - np.outer([0, 1], K)))
        assert np.allclose(got, _sorted([-1 - 2j, -1 + 2j]), atol=1e-9)

    def test_uncontrollable(self):
        with pytest.raises(Uncontrollable):
            control.pole_place(np.diag([-1.0, -2.0]), [1.0, 0.0], [-3.0, -4.0])

    def test_multi_input_unsupported(self):
        with pytest.raises(Unsupported):
            control.pole_place(np.zeros((2, 2)), np.eye(2), [-1.0, -2.0])

    def test_pole_validation(self):
        A = [[0.0, 1.0], [0.0, 0.0]]
        B = [0.0, 1.0]
        with pytest.raises(InvalidInput, match="negative real"):
            control.pole_place(A, B, [1.0, -1.0])
        with pytest.raises(InvalidInput, match="conjugate-closed"):
            control.pole_place(A, B, [complex(-1, 2), -1.0])
        with pytest.raises(InvalidInput, match="expected 2 poles"):
            control.pole_place(A, B, [-1.0])

    def test_random_placement_property(self, rng):
        done = 0
        while done < 200:
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal(n)
            C = control.controllability_matrix(A, B)
            if np.linalg.matrix_rank(C) < n or np.linalg.cond(C) > 1e8:
                continue
            re = -rng.uniform(0.5, 5.0, size=n)
            poles = [complex(r) for r in re]
            if n >= 2 and rng.random() < 0.5:
                w = rng.uniform(0.5, 3.0)
                poles[0] = complex(re[0], w)
                poles[1] = complex(re[0], -w)
            K = control.pole_place(A, B, poles)
            got = _sorted(np.linalg.eigvals(A - np.outer(B, K)))
            want = _sorted(poles)
            assert np.allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())
            done += 1


class TestTransform:
    def test_identity_transform(self, three_bus):
        sub = bus_models(three_bus)[1]
        eye = {j: np.eye(3) for j in sub.neighbors}
        At, Bt, coup = control.transform_subsystem(
            sub.A_hat, sub.B, sub.couplings, np.eye(3), eye)
        assert np.allclose(At, sub.A_hat)
        assert np.allclose(Bt, sub.B)
        for j in sub.neighbors:
            assert np.allclose(coup[j], sub.couplings[j])

    def test_scalar_transforms(self, three_bus):
        sub = bus_models(three_bus)[1]
        T_nbrs = {j: 3.0 * np.eye(3) for j in sub.neighbors}
        At, Bt, coup = control.transform_subsystem(
            sub.A_hat, sub.B, sub.couplings, 2.0 * np.eye(3), T_nbrs)
        assert np.allclose(At, sub.A_hat)
        assert np.allclose(Bt, sub.B / 2.0)
        for j in sub.neighbors:
            assert np.allclose(coup[j], sub.couplings[j] * 3.0 / 2.0)

    def test_three_bus_coupling_norm(self, three_bus):
        # local loop closed, no global gains: transformed coupling 1<-2
        models = bus_models(three_bus)
        mts = {b: control.design_local(m.A_hat, m.B, THREE_BUS_POLES[b])[1]
               for b, m in models.items()}
        sub = models[1]
        _, _, coup = control.transform_subsystem(
            sub.A_hat, sub.B, sub.couplings, mts[1].T,
            {j: mts[j].T for j in sub.neighbors})
        assert linalg.spectral_norm(coup[2]) == pytest.approx(296.58, rel=0.02)

    def test_missing_neighbor_transform(self, three_bus):
        sub = bus_models(three_bus)[1]
        with pytest.raises(InvalidInput, match="missing transform"):
            control.transform_subsystem(sub.A_hat, sub.B, sub.couplings,
                                        np.eye(3), {2: np.eye(3)})


class TestOptimalGlobalGain:
    def test_axis_projection(self, rng):
        At = rng.standard_normal((3, 3))
        K = control.optimal_global_gain(np.array([0.0, 0.0, 1.0]), At)
        assert np.allclose(K, At[2])
        resid = At - np.outer([0.0, 0.0, 1.0], K)
        assert np.allclose(resid[2], 0.0)

    def test_exact_fit(self, rng):
        Bt = rng.standard_normal(3)
        v = rng.standard_normal(3)
        K = control.optimal_global_gain(Bt, np.outer(Bt, v))
        assert np.allclose(K, v, atol=1e-12)

    def test_zero_input_degenerate(self):
        with pytest.raises(Degenerate):
            control.optimal_global_gain(np.zeros(3), np.eye(3))

    def test_normal_equations(self, rng):
        for _ in range(25):
            Bt = rng.standard_normal(4)
            At = rng.standard_normal((4, 4))
            K = control.optimal_global_gain(Bt, At)
            resid = At - np.outer(Bt, K)
            assert np.abs(Bt @ resid).max() <= 1e-10

    def test_perturbed_gains_never_better(self, rng):
        Bt = rng.standard_normal(3)
        At = rng.standard_normal((3, 3))
        K = control.optimal_global_gain(Bt, At)
        base_f = np.linalg.norm(At - np.outer(Bt, K))
        base_s = linalg.spectral_norm(At - np.outer(Bt, K))
        for _ in range(100):
            dK = rng.standard_normal(3)
            dK *= 1e-3 / np.linalg.norm(dK)
            resid = At - np.outer(Bt, K + dK)
            assert np.linalg.norm(resid) >= base_f
            assert linalg.spectral_norm(resid) >= base_s - 1e-12


class TestCloseLoop:
    def test_zero_gains_identity(self, three_bus):
        sub = bus_models(three_bus)[2]
        A, coup = control.close_loop(sub.A_hat, sub.B, np.zeros(3), sub.couplings)
        assert np.array_equal(A, sub.A_hat)
        for j in sub.neighbors:
            assert np.array_equal(coup[j], sub.couplings[j])

    def test_three_bus_poles(self, three_bus):
        sub = bus_models(three_bus)[1]
        K = control.pole_place(sub.A_hat, sub.B, THREE_BUS_POLES[1])
        A, _ = control.close_loop(sub.A_hat, sub.B, K)
        got = np.sort(np.linalg.eigvals(A).real)
        assert np.allclose(got, [-43.0, -39.0, -22.0], rtol=1e-8)

    def test_rank_one_update_touches_row3_only(self, three_bus):
        sub = bus_models(three_bus)[3]
        A, _ = control.close_loop(sub.A_hat, sub.B, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(A[:2], sub.A_hat[:2])
        assert not np.array_equal(A[2], sub.A_hat[2])

    def test_modal_form_of_designed_loop(self, three_bus):
        sub = bus_models(three_bus)[1]
        _, mt = control.design_local(sub.A_hat, sub.B, THREE_BUS_POLES[1])
        assert np.allclose(mt.Lam, np.diag([-43.0, -39.0, -22.0]), atol=1e-8)
        assert mt.sigma_M == pytest.approx(22.0)


class TestCoordinateConsistency:
    def test_close_then_transform_equals_transform_then_close(self, rng):
        for _ in range(20):
            n = 3
            A = random_hurwitz(rng, n)
            Ahat_ij = rng.standard_normal((n, n))
            B = rng.standard_normal(n)
            Ti = linalg.modal_decompose(random_hurwitz(rng, n)).T
            Tj = linalg.modal_decompose(random_hurwitz(rng, n)).T
            Kt_ij = rng.standard_normal(n)
            K_ij = control.convert_global_gain(Kt_ij, Tj)

            _, closed = control.close_loop(A, B, np.zeros(n),
                                           {9: Ahat_ij}, {9: K_ij})
            route1 = np.linalg.solve(Ti, closed[9] @ Tj)

            _, Bt, coup_t = control.transform_subsystem(A, B, {9: Ahat_ij}, Ti, {9: Tj})
            route2 = coup_t[9] - np.outer(Bt, Kt_ij)
            assert np.abs(route1 - route2).max() <= 1e-8

    def test_residual_norm_invariant_to_conventions(self, rng, three_bus):
        models = bus_models(three_bus)
        mts = {b: control.design_local(m.A_hat, m.B, THREE_BUS_POLES[b])[1]
               for b, m in models.items()}
        sub = models[1]

        def residual_norm(Ti, Tj):
            _, Bt, coup = control.transform_subsystem(
                sub.A_hat, sub.B, {2: sub.couplings[2]}, Ti, {2: Tj})
            K = control.optimal_global_gain(Bt, coup[2])
            return linalg.spectral_norm(coup[2] - np.outer(Bt, K))

        base = residual_norm(mts[1].T, mts[2].T)
        for _ in range(10):
            Pi = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
            Pj = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
            assert residual_norm(mts[1].T @ Pi, mts[2].T @ Pj) == pytest.approx(base, abs=1e-9)


class TestGainSet:
    def test_consistency_relations(self, three_bus):
        models = bus_models(three_bus)
        sub = models[1]
        K, mt = control.design_local(sub.A_hat, sub.B, THREE_BUS_POLES[1])
        mts = {b: control.design_local(m.A_hat, m.B, THREE_BUS_POLES[b])[1]
               for b, m in models.items()}
        _, Bt, coup = control.transform_subsystem(
            sub.A_hat, sub.B, sub.couplings, mt.T, {j: mts[j].T for j in sub.neighbors})
        gs = control.GainSet(local=K, t_local=mt.T.T @ K)
        for j in sub.neighbors:
            kt = control.optimal_global_gain(Bt, coup[j])
            gs.t_global[j] = kt
            gs.global_[j] = control.convert_global_gain(kt, mts[j].T)
        err = gs.consistency_error(mt.T, {j: mts[j].T for j in sub.neighbors})
        assert err <= 1e-8
