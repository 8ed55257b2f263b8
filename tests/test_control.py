import numpy as np
import pytest

from gridcert import certify, control, gridmodel, linalg
from gridcert.errors import (
    Degenerate,
    IllConditionedTransform,
    InvalidInput,
    NotSemiSimple,
    Uncontrollable,
)
from sampling import line_block, random_hurwitz


def _sorted(z):
    z = np.asarray(z, dtype=complex)
    return z[np.lexsort((z.imag, z.real))]


def _eig_condition(A):
    """Largest eigenvalue condition number ``||w_i|| ||v_i|| / |w_i^H v_i|``."""
    _, V = np.linalg.eig(A)
    W = np.linalg.inv(V)   # rows are left eigenvectors with w_i^H v_i = 1
    return float((np.linalg.norm(W, axis=1) * np.linalg.norm(V, axis=0)).max())


def bus_models(grid):
    return {s.bus: s for s in gridmodel.build_subsystems(grid)}


THREE_BUS_POLES = {1: [-22.0, -39.0, -43.0],
                   2: [-24.0, -43.0, -37.0],
                   3: [-25.0, -38.0, -42.0]}


class TestPolePlace:
    def test_double_integrator_by_hand(self):
        # Ackermann by hand: C = [[0,1],[1,0]], p(A) = A^2 + 2A + I
        K, = control.pole_place([[[0.0, 1.0], [0.0, 0.0]]], [[0.0, 1.0]], [[-1.0, -1.0]])
        assert np.allclose(K, [1.0, 2.0], atol=1e-12)

    def test_pole_already_in_place(self):
        K, = control.pole_place([[[-2.0]]], [[1.0]], [[-2.0]])
        assert np.allclose(K, [0.0], atol=1e-12)

    def test_three_bus_placement(self, three_bus):
        for bus, sub in bus_models(three_bus).items():
            K, = control.pole_place([sub.A_hat], [sub.B], [THREE_BUS_POLES[bus]])
            got = np.sort(np.linalg.eigvals(sub.A_hat - np.outer(sub.B, K)).real)
            assert np.allclose(got, sorted(THREE_BUS_POLES[bus]), rtol=1e-6)

    def test_complex_conjugate_poles(self):
        A = [[0.0, 1.0], [0.0, 0.0]]
        K, = control.pole_place([A], [[0.0, 1.0]], [[complex(-1, 2), complex(-1, -2)]])
        got = _sorted(np.linalg.eigvals(np.array(A) - np.outer([0, 1], K)))
        assert np.allclose(got, _sorted([-1 - 2j, -1 + 2j]), atol=1e-9)

    def test_mixed_stack_without_np_poly(self, three_bus, monkeypatch):
        # real rows and complex-pair rows share the one stacked recurrence
        def no_poly(*args, **kwargs):
            raise AssertionError("np.poly called")

        monkeypatch.setattr(np, "poly", no_poly)
        subs = list(bus_models(three_bus).values())
        pair = [complex(-20.0, 6.0), complex(-20.0, -6.0), -40.0]
        specs = [THREE_BUS_POLES[1], pair, THREE_BUS_POLES[3]]
        Ks = control.pole_place([s.A_hat for s in subs], [s.B for s in subs], specs)
        for sub, K, poles in zip(subs, Ks, specs):
            got = _sorted(np.linalg.eigvals(sub.A_hat - np.outer(sub.B, K)))
            assert np.allclose(got, _sorted(poles), rtol=1e-6)

    def test_char_poly_of_real_rows_is_np_poly(self, rng):
        # a product with a root x + 0j is exact: real pole sets keep np.poly's bits
        for n in (1, 2, 3, 5):
            P = -rng.uniform(0.01, 1e3, size=(500, n))
            c = control._char_poly(P.astype(complex))
            assert np.array_equal(c.real, [np.real(np.poly(row)) for row in P])
            assert np.all(c.imag == 0.0)

    def test_uncontrollable(self):
        with pytest.raises(Uncontrollable):
            control.pole_place([np.diag([-1.0, -2.0])], [[1.0, 0.0]], [[-3.0, -4.0]])

    def test_multi_input_unsupported(self):
        with pytest.raises(InvalidInput, match=r"B must have shape \(1, 2\), got"):
            control.pole_place(np.zeros((1, 2, 2)), [np.eye(2)], [[-1.0, -2.0]])

    def test_non_numeric_B_rejected(self):
        with pytest.raises(InvalidInput, match="B must be numeric"):
            control.pole_place(np.zeros((1, 3, 3)), [["a", "b", "c"]], [[-1.0, -2.0, -3.0]])

    def test_non_numeric_pole_rejected(self):
        with pytest.raises(InvalidInput, match="poles must be numeric"):
            control.pole_place([[[0.0, 1.0], [0.0, 0.0]]], [[0.0, 1.0]], [["x", -1.0]])

    @pytest.mark.parametrize("poles,closed", [
        ([-1 + 2j, -1.0000000001 - 2j, -5.0], True),     # real parts within rounding
        ([-1 + 2j, -1.000001 - 2j, -5.0], False),
        ([-1 + 1j, -1 + 1j, -3.0], False),
        ([-1 + 2j, -1 - 2j, -1 + 2j, -1 - 2j, -5.0], True),
        ([-1 + 2j, -1 + 2j, -1 - 2j, -3.0, -4.0], False),
        ([-1 + 1e-12j, -2.0, -3.0], True),               # real to rounding
    ])
    def test_conjugate_closure_boundary(self, poles, closed):
        # the companion form of s^n is controllable from the last state
        n = len(poles)
        A, B = [np.eye(n, k=1)], [np.eye(n)[-1]]
        if closed:
            K, = control.pole_place(A, B, [poles])
            assert np.allclose(K[::-1], np.real(np.poly(poles))[1:], rtol=1e-8)
        else:
            with pytest.raises(InvalidInput, match="conjugate-closed"):
                control.pole_place(A, B, [poles])

    def test_pole_validation(self):
        A = [[[0.0, 1.0], [0.0, 0.0]]]
        B = [[0.0, 1.0]]
        with pytest.raises(InvalidInput, match="negative real"):
            control.pole_place(A, B, [[1.0, -1.0]])
        with pytest.raises(InvalidInput, match="conjugate-closed"):
            control.pole_place(A, B, [[complex(-1, 2), -1.0]])
        with pytest.raises(InvalidInput, match="expected 2 poles"):
            control.pole_place(A, B, [[-1.0]])
        # a bare pole, which len() would fail on with TypeError
        with pytest.raises(InvalidInput, match=r"^pole set -1\.0 is not a sequence of 2 poles$"):
            control.pole_place(A, B, [-1.0])
        with pytest.raises(InvalidInput, match="is not a sequence of 2 poles$"):
            control.pole_place(A, B, [np.array(-1.0)])

    def test_random_placement_property(self, rng):
        done = 0
        while done < 200:
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal(n)
            C = control._krylov(A, B)
            if np.linalg.matrix_rank(C) < n or np.linalg.cond(C) > 1e8:
                continue
            re = -rng.uniform(0.5, 5.0, size=n)
            poles = [complex(r) for r in re]
            if n >= 2 and rng.random() < 0.5:
                w = rng.uniform(0.5, 3.0)
                poles[0] = complex(re[0], w)
                poles[1] = complex(re[0], -w)
            K, = control.pole_place([A], [B], [poles])
            A_cl = A - np.outer(B, K)
            want = _sorted(poles)
            atol = 1e-6 * np.abs(want).max()
            # K is unique for one input, so when a perturbation of A_cl of
            # relative size eps can move an eigenvalue past atol, no placement
            # meets the check: skip the sample
            if np.finfo(float).eps * _eig_condition(A_cl) * np.linalg.norm(A_cl, 2) > atol:
                continue
            got = _sorted(np.linalg.eigvals(A_cl))
            assert np.allclose(got, want, rtol=1e-6, atol=atol)
            done += 1


def designed(grid, bus):
    """Bus model, local gain and modal form, plus every neighbor's transform."""
    models = bus_models(grid)
    mts = {b: certify.design_agents([m], [THREE_BUS_POLES[b]]) for b, m in models.items()}
    (K,), (mt,) = mts[bus]
    return models[bus], K, mt, {j: mts[j][1][0].T for j in models[bus].neighbors}


def with_T(mt, T):
    return linalg.ModalTransform(T=T, Lam=mt.Lam, eigenvalues=mt.eigenvalues,
                                 sigma_M=mt.sigma_M)


def row(sub, mt, T_nbrs, escalate=False, K=None):
    """The transformed row, each neighbor sharing the norm of its
    transform's first row."""
    K = np.zeros(3) if K is None else K
    shares = {j: float(np.linalg.norm(T[0])) for j, T in T_nbrs.items()}
    (report,), (gains,) = certify.agent_rows([sub], [K], [mt], [shares], [escalate],
                                             certify.VARIANT_TRANSFORMED)
    return report, gains


class TestTransform:
    """The row kernel's change of coordinates ``x = T xt``."""

    def test_identity_transform(self, three_bus):
        # with T = I everywhere the transformed blocks are the original ones
        sub, _, mt, _ = designed(three_bus, 1)
        eye = {j: np.eye(3) for j in sub.neighbors}
        rep, _ = row(sub, with_T(mt, np.eye(3)), eye)
        for j in sub.neighbors:
            assert rep.offdiag[j] == pytest.approx(
                np.linalg.norm(line_block(sub.couplings[j]), 2))
        rep, gains = row(sub, with_T(mt, np.eye(3)), eye, escalate=True)
        for j in sub.neighbors:
            C = line_block(sub.couplings[j])
            k, = control.optimal_global_gain([sub.B], [C])
            assert np.allclose(gains[j], k, rtol=1e-13, atol=0.0)
            assert rep.offdiag[j] == pytest.approx(
                np.linalg.norm(C - np.outer(sub.B, k), 2), rel=1e-13)

    def test_scalar_transforms(self, three_bus):
        sub, _, mt, _ = designed(three_bus, 1)
        base, _ = row(sub, with_T(mt, np.eye(3)), {j: np.eye(3) for j in sub.neighbors})
        rep, _ = row(sub, with_T(mt, 2.0 * np.eye(3)),
                     {j: 3.0 * np.eye(3) for j in sub.neighbors})
        for j in sub.neighbors:
            assert rep.offdiag[j] == pytest.approx(base.offdiag[j] * 3.0 / 2.0, rel=1e-14)

    def test_three_bus_coupling_norm(self, three_bus):
        # local loop closed, no global gains: transformed coupling 1<-2
        sub, K, mt, T_nbrs = designed(three_bus, 1)
        rep, _ = row(sub, mt, T_nbrs, K=K)
        assert rep.offdiag[2] == pytest.approx(296.58, rel=0.02)

    def test_missing_neighbor_transform(self, three_bus):
        sub, _, mt, _ = designed(three_bus, 1)
        with pytest.raises(InvalidInput, match="missing share from neighbor 3"):
            row(sub, mt, {2: np.eye(3)})


class TestOptimalGlobalGain:
    def test_axis_projection(self, rng):
        At = rng.standard_normal((3, 3))
        K, = control.optimal_global_gain([[0.0, 0.0, 1.0]], [At])
        assert np.allclose(K, At[2])
        resid = At - np.outer([0.0, 0.0, 1.0], K)
        assert np.allclose(resid[2], 0.0)

    def test_exact_fit(self, rng):
        Bt = rng.standard_normal(3)
        v = rng.standard_normal(3)
        K, = control.optimal_global_gain([Bt], [np.outer(Bt, v)])
        assert np.allclose(K, v, atol=1e-12)

    def test_zero_input_degenerate(self):
        with pytest.raises(Degenerate):
            control.optimal_global_gain([np.zeros(3)], [np.eye(3)])

    def test_normal_equations(self, rng):
        for _ in range(25):
            Bt = rng.standard_normal(4)
            At = rng.standard_normal((4, 4))
            K, = control.optimal_global_gain([Bt], [At])
            resid = At - np.outer(Bt, K)
            assert np.abs(Bt @ resid).max() <= 1e-10

    def test_perturbed_gains_never_better(self, rng):
        Bt = rng.standard_normal(3)
        At = rng.standard_normal((3, 3))
        K, = control.optimal_global_gain([Bt], [At])
        base_f = np.linalg.norm(At - np.outer(Bt, K))
        base_s = np.linalg.norm(At - np.outer(Bt, K), 2)
        for _ in range(100):
            dK = rng.standard_normal(3)
            dK *= 1e-3 / np.linalg.norm(dK)
            resid = At - np.outer(Bt, K + dK)
            assert np.linalg.norm(resid) >= base_f
            assert np.linalg.norm(resid, 2) >= base_s - 1e-12


class TestCloseLoop:
    """``u = -K^T x - sum_j K_ij^T x_j`` closed through ``assemble_full``."""

    def test_zero_gains_identity(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        zero = {s.bus: control.GainSet(local=np.zeros(3)) for s in subs}
        assert np.array_equal(gridmodel.assemble_full(subs, zero),
                              gridmodel.assemble_full(subs, {}))

    def test_three_bus_poles(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        gains = {s.bus: control.GainSet(local=control.pole_place(
            [s.A_hat], [s.B], [THREE_BUS_POLES[s.bus]])[0]) for s in subs}
        A = gridmodel.assemble_full(subs, gains)
        got = np.sort(np.linalg.eigvals(A[0:3, 0:3]).real)
        assert np.allclose(got, [-43.0, -39.0, -22.0], rtol=1e-8)

    def test_rank_one_update_touches_row3_only(self, three_bus):
        # the global gains K_ij = c_ij s_i e1 change one entry per coupling
        # block: the input row (3) on the neighbor's angle (column 1)
        res = certify.assess_grid(three_bus, use_global=True)
        local = {b: control.GainSet(local=gs.local) for b, gs in res.gains.items()}
        delta = res.A_full - gridmodel.assemble_full(res.subsystems, local)
        rows, cols = np.nonzero(delta)
        assert len(rows) == 6
        assert set(rows % 3) == {2} and set(cols % 3) == {0}
        assert set(zip(rows // 3, cols // 3)) == {(0, 1), (0, 2), (1, 0), (1, 2),
                                                  (2, 0), (2, 1)}

    def test_modal_form_of_designed_loop(self, three_bus):
        sub = bus_models(three_bus)[1]
        _, (mt,) = certify.design_agents([sub], [THREE_BUS_POLES[1]])
        assert np.allclose(mt.Lam, np.diag([-43.0, -39.0, -22.0]), atol=1e-8)
        assert mt.sigma_M == pytest.approx(22.0)


class TestCoordinateConsistency:
    def test_close_then_transform_equals_transform_then_close(self, rng):
        # the kernel's original-coordinate gain, closed and then transformed,
        # gives the projection residual formed in modal coordinates
        done = 0
        while done < 20:
            A = random_hurwitz(rng, 3)
            B = rng.standard_normal(3)
            c = float(rng.uniform(-50.0, 50.0))
            C = line_block(c)
            sub = gridmodel.SubsystemModel(bus=1, A_hat=A, B=B, F=np.zeros(3),
                                           couplings={9: c})
            try:
                mt, = linalg.modal_decompose([A])
                Tj = linalg.modal_decompose([random_hurwitz(rng, 3)])[0].T
            except (NotSemiSimple, IllConditionedTransform):
                continue
            rep, gains = row(sub, mt, {9: Tj}, escalate=True)
            route1 = np.linalg.solve(mt.T, (C - np.outer(B, gains[9])) @ Tj)
            Bt = np.linalg.solve(mt.T, B)
            At = np.linalg.solve(mt.T, C @ Tj)
            route2 = At - np.outer(Bt, control.optimal_global_gain([Bt], [At])[0])
            scale = np.abs(At).max()
            assert np.abs(route1 - route2).max() <= 1e-10 * scale
            assert rep.offdiag[9] == pytest.approx(np.linalg.norm(route2, 2), rel=1e-10)
            done += 1

    def test_residual_norm_invariant_to_conventions(self, rng, three_bus):
        sub, _, mt, T_nbrs = designed(three_bus, 1)
        base, _ = row(sub, mt, T_nbrs, escalate=True)
        for _ in range(10):
            Pi = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
            Pj = {j: np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
                  for j in sub.neighbors}
            rep, _ = row(sub, with_T(mt, mt.T @ Pi),
                         {j: T_nbrs[j] @ Pj[j] for j in sub.neighbors}, escalate=True)
            for j in sub.neighbors:
                assert rep.offdiag[j] == pytest.approx(base.offdiag[j], abs=1e-9)


class TestGainSet:
    def test_consistency_relations(self, three_bus):
        # Kt_ij^T = K_ij^T T_j: the stored original-coordinate gains map to
        # the projection gains of the modal blocks
        sub, K, mt, T_nbrs = designed(three_bus, 1)
        _, global_ = row(sub, mt, T_nbrs, escalate=True, K=K)
        gs = control.GainSet(local=K, global_=global_)
        Bt = np.linalg.solve(mt.T, sub.B)
        for j in sub.neighbors:
            kt, = control.optimal_global_gain(
                [Bt], [np.linalg.solve(mt.T, line_block(sub.couplings[j]) @ T_nbrs[j])])
            assert np.abs(kt - T_nbrs[j].T @ gs.global_[j]).max() <= 1e-8
