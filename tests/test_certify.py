import itertools
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from conftest import make_grid
from gridcert import certify, control, gridmodel, linalg, protocol
from gridcert.errors import CertificateInvalid, IllConditionedTransform, InvalidInput
from gridcert.data import three_bus_path
from sampling import (
    assemble_blocks,
    build_S,
    build_S_tilde,
    line_block,
    random_grid_tuples,
    random_hurwitz,
    ring_grid_tuples,
    random_semisimple_hurwitz,
    random_spd,
    sample_met_original,
    sample_met_transformed,
)

EPS = np.finfo(float).eps

PRE_ROWS = {1: (22.0, {2: 296.58, 3: 249.13}),
            2: (24.0, {1: 236.70, 3: 135.88}),
            3: (25.0, {1: 325.07, 2: 222.14})}


class TestCertifyDecoupled:
    def test_trivial(self):
        cert, = certify.certify_decoupled([-np.eye(2)], 2.0 * np.eye(2))
        assert np.allclose(cert.P, np.eye(2))
        assert cert.lambda_min_Q == pytest.approx(2.0)
        assert cert.lambda_max_P == pytest.approx(1.0)

    def test_hand_eigenvalue(self):
        # largest eigenvalue of [[1.25, .25], [.25, .25]] = (1.5 + sqrt(1.25)) / 2
        cert, = certify.certify_decoupled([[[0.0, 1.0], [-2.0, -3.0]]], np.eye(2))
        # symmetric 2x2 equation reduces to 3 unknowns; solved by hand
        assert np.allclose(cert.P, [[1.25, 0.25], [0.25, 0.25]], atol=1e-12)
        assert cert.lambda_max_P == pytest.approx((1.5 + math.sqrt(1.25)) / 2.0)
        assert cert.lambda_max_P == pytest.approx(1.3090, abs=5e-5)

    def test_unstable_rejected_with_eigenvalue(self):
        with pytest.raises(CertificateInvalid) as exc:
            certify.certify_decoupled([np.diag([1.0, -2.0])], np.eye(2))
        assert exc.value.offending_eigenvalue == pytest.approx(1.0)

    def test_stack_equals_members(self, rng):
        # a stack is certified in one pass, each member bit for bit as a stack of one
        stacks = [(n, [random_semisimple_hurwitz(rng, n)[0] for _ in range(6)])
                  for n in (2, 3)]
        stacks += [(n, [random_hurwitz(rng, n) for _ in range(7)]) for n in (1, 2, 3, 5)]
        for n, A in stacks:
            A = np.array(A)
            Q = random_spd(rng, n)
            certs = certify.certify_decoupled(A, Q)
            assert len(certs) == len(A)
            for a, cert in zip(A, certs):
                one, = certify.certify_decoupled(a[None], Q)
                assert np.array_equal(cert.P, one.P) and np.array_equal(cert.Q, one.Q)
                assert cert.lambda_max_P == one.lambda_max_P
                assert cert.lambda_min_Q == one.lambda_min_Q

    def test_stack_error_is_first_failing_member(self):
        A = np.array([-np.eye(2), np.diag([2.0, -1.0]), np.diag([3.0, -1.0])])
        with pytest.raises(CertificateInvalid, match=(
                "^subsystem matrix has eigenvalue 2 with nonnegative real part$")) as exc:
            certify.certify_decoupled(A, np.eye(2))
        assert exc.value.offending_eigenvalue == 2.0
        # a member whose Lyapunov operator is singular fails the Hurwitz check
        A[1] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(CertificateInvalid, match=(
                "^subsystem matrix has eigenvalue 0 with nonnegative real part$")) as exc:
            certify.certify_decoupled(A, np.eye(2))
        assert exc.value.offending_eigenvalue == 0.0

    def test_rejects_bad_q(self):
        A = -np.eye(2)[None]
        with pytest.raises(InvalidInput, match="^Q must be symmetric$"):
            certify.certify_decoupled(A, [[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidInput, match="^Q must be positive definite$"):
            certify.certify_decoupled(A, -np.eye(2))


class TestBuildS:
    def test_decoupled_agents(self):
        certs = {1: certify.certify_decoupled([-np.eye(2)], np.eye(2))[0],
                 2: certify.certify_decoupled([-2.0 * np.eye(2)], np.eye(2))[0]}
        reports = build_S(certs, {})
        assert [r.diagonal for r in reports] == pytest.approx([1.0, 1.0])
        assert all(r.offdiag == {} for r in reports)
        assert all(r.met for r in reports)

    def test_single_neighbor_row(self):
        # lambda_min(Q)=4, lambda_max(P)=1, coupling norm 1 -> off entry 2
        certs = {1: certify.certify_decoupled([-2.0 * np.eye(2)], 4.0 * np.eye(2))[0],
                 2: certify.certify_decoupled([-np.eye(2)], np.eye(2))[0]}
        reports = build_S(certs, {(1, 2): np.array([[1.0, 0.0], [0.0, 0.0]])})
        r1 = reports[0]
        assert r1.offdiag == {2: pytest.approx(2.0)}
        assert r1.margin == pytest.approx(2.0)
        assert r1.met

    def test_three_bus_matches_direct_formula(self, three_bus):
        # oracle: evaluate the entry formulas directly on the closed loop,
        # whose couplings carry the global gains when escalated
        for use_global in (False, True):
            res = certify.assess_grid(three_bus, use_global=use_global,
                                      variant=certify.VARIANT_ORIGINAL)
            subs = {s.bus: s for s in res.subsystems}
            for rep in res.reports:
                sub, gs = subs[rep.agent], res.gains[rep.agent]
                assert bool(gs.global_) == use_global
                A_cl = sub.A_hat - np.outer(sub.B, gs.local)
                cert, = certify.certify_decoupled([A_cl], np.eye(3))
                lmax = np.linalg.eigvalsh(cert.P).max()
                assert rep.diagonal == pytest.approx(1.0)
                for j, val in rep.offdiag.items():
                    block = line_block(sub.couplings[j]) - np.outer(
                        sub.B, gs.global_.get(j, 0.0))
                    want = 2.0 * lmax * np.linalg.norm(block, 2)
                    assert val == pytest.approx(want, rel=1e-12)


class TestBuildSTilde:
    def _three_bus_transforms(self, grid, use_global):
        res = certify.assess_grid(grid, use_global=use_global)
        return res

    def test_three_bus_local_only_rows(self, three_bus):
        res = self._three_bus_transforms(three_bus, use_global=False)
        for rep in res.reports:
            diag, offs = PRE_ROWS[rep.agent]
            assert rep.diagonal == pytest.approx(diag, rel=1e-9)
            for j, want in offs.items():
                assert rep.offdiag[j] == pytest.approx(want, rel=0.02)
            assert not rep.met
        assert certify.compositional_verdict(r.met for r in res.reports) == certify.INCONCLUSIVE

    def test_fully_decoupled(self, rng):
        transforms = {k: random_semisimple_hurwitz(rng, 3)[1] for k in (1, 2)}
        reports = build_S_tilde(transforms, {})
        assert all(r.offdiag == {} for r in reports)
        assert all(r.met for r in reports)

    def test_perm_sign_invariance(self, rng, three_bus):
        subs = {s.bus: s for s in gridmodel.build_subsystems(three_bus)}
        res = certify.assess_grid(three_bus, use_global=False)
        base = {r.agent: r.offdiag for r in res.reports}

        # recompute couplings with permuted/sign-flipped eigenvector columns
        twisted = {}
        for b, mt in res.transforms.items():
            P = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
            twisted[b] = linalg.ModalTransform(
                T=mt.T @ P, Lam=P.T @ mt.Lam @ P, eigenvalues=mt.eigenvalues,
                sigma_M=mt.sigma_M)
        coup = {}
        for b, sub in subs.items():
            for j in sub.neighbors:
                coup[(b, j)] = np.linalg.solve(
                    twisted[b].T, line_block(sub.couplings[j]) @ twisted[j].T)
        reports = build_S_tilde(twisted, coup)
        for rep in reports:
            for j, val in rep.offdiag.items():
                assert abs(val - base[rep.agent][j]) <= 1e-9


class TestSpectralNorm:
    """The reference rows' off-diagonal entry, which the rank-one kernel and
    the soundness samplings are checked against, is the largest singular
    value of the coupling block."""

    @staticmethod
    def entry(block):
        mt, = linalg.modal_decompose([-np.eye(2)])
        reports = build_S_tilde({1: mt, 2: mt}, {(1, 2): np.asarray(block, dtype=float)})
        return reports[0].offdiag[2]

    def test_identity(self):
        assert self.entry(np.eye(3)) == pytest.approx(1.0)

    def test_rank_one_single_entry(self):
        C = np.zeros((3, 3))
        C[1, 0] = -7.5
        assert self.entry(C) == pytest.approx(7.5)

    def test_diagonal(self):
        assert self.entry(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_rectangular(self):
        assert self.entry([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]) == pytest.approx(2.0)

    def test_rejects_nonfinite(self):
        # a nonfinite block never meets its row
        mt, = linalg.modal_decompose([-np.eye(2)])
        for blocks in ({(1, 2): np.array([[np.inf]])}, {(1, 2): np.array([[-np.inf]])}):
            reports = build_S_tilde({1: mt, 2: mt}, blocks)
            assert not reports[0].met

    def test_permutation_signflip_invariance(self, rng):
        A = rng.standard_normal((4, 4))
        base = self.entry(A)
        for _ in range(20):
            P = np.eye(4)[rng.permutation(4)]
            S = np.diag(rng.choice([-1.0, 1.0], size=4))
            for M in (P @ S @ A, A @ P @ S, P @ A @ S):
                assert abs(self.entry(M) - base) <= 1e-12 * max(1.0, base)

    def test_random_unit_vector_bound(self, rng):
        A = rng.standard_normal((3, 3))
        sigma = self.entry(A)
        best = 0.0
        for _ in range(1000):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            nv = np.linalg.norm(A @ v)
            assert nv <= sigma * (1.0 + 1e-12)
            best = max(best, nv)
        assert best >= 0.99 * sigma


class TestVerdict:
    def test_all_met(self):
        reports = [certify.ConditionReport(agent=k, diagonal=2.0, offdiag={9: 1.0})
                   for k in (1, 2)]
        assert certify.compositional_verdict(r.met for r in reports) == certify.STABLE

    def test_one_not_met(self):
        reports = [certify.ConditionReport(agent=1, diagonal=2.0, offdiag={2: 1.0}),
                   certify.ConditionReport(agent=2, diagonal=1.0, offdiag={1: 3.0})]
        assert certify.compositional_verdict(r.met for r in reports) == certify.INCONCLUSIVE

    def test_three_bus_certified_rows(self):
        # the certified three-bus transformed rows form a row-dominant M-matrix
        S = np.array([
            [22.0, -11.15, -9.37],
            [-13.0, 24.0, -7.46],
            [-12.23, -8.36, 25.0],
        ])
        reports = [certify.ConditionReport(
            agent=k + 1, diagonal=S[k, k],
            offdiag={j + 1: -S[k, j] for j in range(3) if j != k})
            for k in range(3)]
        assert [r.margin for r in reports] == pytest.approx([1.48, 3.54, 4.41])
        assert all(r.met for r in reports)
        assert certify.compositional_verdict(r.met for r in reports) == certify.STABLE

    def test_report_serialization_shape(self):
        rep = certify.ConditionReport(agent=1, diagonal=22.0,
                                      offdiag={2: 11.15, 3: 9.37})
        doc = json.loads(json.dumps(rep.to_dict()))
        assert set(doc) == {"agent", "variant", "diagonal", "offdiag", "margin", "met"}
        assert doc["met"] is True
        assert doc["offdiag"] == {"2": 11.15, "3": 9.37}


class TestTransformedCertificate:
    """The certificate behind the transformed diagonal ``sigma_M``.

    With ``P = theta*I`` the Lyapunov equation of the modal form forces
    ``Q = -theta*(Lam + Lam^T)``; its decay ratio
    ``lambda_min(Q)/lambda_max(P)`` is ``2*sigma_M`` and no SPD pair does
    better.
    """

    def test_ratio_is_twice_sigma(self, rng):
        _, mt = random_semisimple_hurwitz(rng, 4)
        for theta in (1.0, 7.0):
            P, Q = theta * np.eye(4), -theta * (mt.Lam + mt.Lam.T)
            assert np.allclose(mt.Lam.T @ P + P @ mt.Lam, -Q, atol=1e-12)
            assert np.allclose(Q, np.diag(np.diag(Q)))
            assert np.linalg.eigvalsh(Q).min() > 0.0
            got = np.linalg.eigvalsh(Q).min() / np.linalg.eigvalsh(P).max()
            assert got == pytest.approx(2.0 * mt.sigma_M)

    def test_non_hurwitz_rejected(self):
        # the row kernel refuses a modal form with sigma_M <= 0 in both variants
        A = np.diag([0.5, -1.0])
        mt, = linalg.modal_decompose([A])
        for variant in (certify.VARIANT_TRANSFORMED, certify.VARIANT_ORIGINAL):
            sub = gridmodel.SubsystemModel(bus=1, A_hat=A, B=np.array([0.0, 1.0]),
                                           F=np.zeros(2), couplings={})
            with pytest.raises(CertificateInvalid) as exc:
                certify.agent_rows([sub], [np.zeros(2)], [mt], [{}], [False], variant)
            assert exc.value.offending_eigenvalue == pytest.approx(0.5)

    def test_no_alternative_pair_beats_ratio(self, rng):
        _, mt = random_semisimple_hurwitz(rng, 3)
        best = 2.0 * mt.sigma_M
        for _ in range(50):
            Q = random_spd(rng, 3)
            P = certify.certify_decoupled([mt.Lam], Q)[0].P
            ratio = np.linalg.eigvalsh(Q).min() / np.linalg.eigvalsh(P).max()
            assert ratio <= best + 1e-8


class TestSoundnessSampling:
    def test_original_condition_implies_hurwitz(self, rng):
        for _ in range(30):
            orders, A_blocks, couplings, certs = sample_met_original(rng)
            reports = build_S(certs, couplings)
            assert all(r.met for r in reports)
            full = assemble_blocks(orders, A_blocks, couplings)
            assert linalg.is_hurwitz(full)

    def test_transformed_condition_implies_hurwitz(self, rng):
        for _ in range(30):
            orders, transforms, couplings = sample_met_transformed(rng)
            reports = build_S_tilde(transforms, couplings)
            assert all(r.met for r in reports)
            full = assemble_blocks(orders,
                                   [transforms[i].Lam for i in sorted(transforms)],
                                   couplings)
            assert linalg.is_hurwitz(full)

    @pytest.mark.parametrize("n", [4, 10, 30, 100])
    def test_stable_grid_verdict_implies_hurwitz(self, rng, n):
        # ring grids with reactances scaled from the benchmark's (1) to weak
        # lines (1000): with global gains the transformed rows certify from a
        # scale of about 3 on, with local gains alone at 100 or 1000
        gens, lines = ring_grid_tuples(rng, n)
        stable = Counter()
        for scale in (0.3, 1.0, 10.0, 100.0, 1000.0):
            design = certify.design_grid(make_grid(gens, [(i, j, X * scale) for i, j, X in lines]))
            for use_global in (False, True):
                for variant in certify.VARIANTS:
                    res = design.assess(use_global, variant)
                    if res.verdict == certify.STABLE:
                        assert np.linalg.eigvals(res.A_full).real.max() < 0.0
                        stable[use_global] += 1
        assert stable[False] > 0 and stable[True] > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_of_few_buses_is_drawn_at_once(self, rng, n):
        # a cap on the draws turns a loop that never ends into a failure
        draws = itertools.count()

        def choice(*args, **kwargs):
            assert next(draws) < 1000, "ring_grid_tuples draws without end"
            return rng.choice(*args, **kwargs)

        gens, lines = ring_grid_tuples(mock.Mock(wraps=rng, choice=choice), n)
        pairs = [(i, j) for i, j, _ in lines]
        assert len(gens) == n and len(set(pairs)) == len(pairs)
        assert all(i < j for i, j in pairs)
        assert {tuple(sorted((b, b % n + 1))) for b in range(1, n + 1)} <= set(pairs)

    def test_row_condition_on_transformed_pair_agrees(self, rng):
        # evaluating the original-form row test with the (theta*I, Q) pair on
        # the modal system must reproduce the transformed verdicts
        for _ in range(10):
            orders, transforms, couplings = sample_met_transformed(rng)
            certs = {
                i: certify.certify_decoupled(
                    [transforms[i].Lam], -(transforms[i].Lam + transforms[i].Lam.T))[0]
                for i in sorted(transforms)
            }
            rep_orig = build_S(certs, couplings)
            rep_trans = build_S_tilde(transforms, couplings)
            for a, b in zip(rep_orig, rep_trans):
                assert a.met == b.met


class TestAssessGrid:
    def test_local_then_global(self, three_bus):
        res = certify.assess_grid(three_bus, use_global=False)
        assert res.verdict == certify.INCONCLUSIVE
        res = certify.assess_grid(three_bus, use_global=True)
        assert res.verdict == certify.STABLE
        assert res.hurwitz
        # the original row meets no row here, even with global gains
        res = certify.assess_grid(three_bus, use_global=True,
                                  variant=certify.VARIANT_ORIGINAL)
        assert res.verdict == certify.INCONCLUSIVE

    def test_one_design_serves_every_variant(self, three_bus, rng):
        # the design half runs once; each row half equals a whole assess_grid,
        # and the gains, read from the shared design, are the same in every variant
        for grid in (three_bus, make_grid(*ring_grid_tuples(rng, 30))):
            design = certify.design_grid(grid)
            for use_global in (False, True):
                got = [design.assess(use_global, v) for v in certify.VARIANTS]
                for res in got:
                    want = certify.assess_grid(grid, use_global=use_global,
                                               variant=res.variant)
                    assert (res.reports, res.verdict) == (want.reports, want.verdict)
                    assert res.transforms.keys() == want.transforms.keys()
                for bus, gs in got[0].gains.items():
                    other = got[1].gains[bus]
                    assert np.array_equal(gs.local, other.local)
                    assert gs.global_.keys() == other.global_.keys()
                    for j, k in gs.global_.items():
                        assert np.array_equal(k, other.global_[j])
            with pytest.raises(InvalidInput, match="^unknown variant 'both'$"):
                design.assess(True, "both")

    def test_missing_poles_rejected(self):
        g = make_grid([(1, 8.0, 1.0, 0.9)], [])
        with pytest.raises(InvalidInput, match="no desired poles"):
            certify.assess_grid(g)

    def test_pole_overrides_and_scale(self, three_bus):
        res = certify.assess_grid(three_bus, poles_scale=1.5)
        assert res.reports[0].diagonal == pytest.approx(33.0)
        # the grid's 'control' entries are the only source of poles
        gens = [(g.bus, g.M, g.D, g.T_T, [p.real for p in g.poles])
                for g in three_bus.generators]
        gens[0] = (1, 8.0, 1.0, 0.9, [-30.0, -40.0, -50.0])
        grid = make_grid(gens, [(ln.from_bus, ln.to_bus, ln.X) for ln in three_bus.lines])
        assert certify.assess_grid(grid).reports[0].diagonal == pytest.approx(30.0)

    def test_design_error_keeps_type_and_names_agent(self, three_bus):
        with pytest.raises(IllConditionedTransform, match="^agent 1: eigenvector matrix"):
            certify.assess_grid(three_bus, poles_scale=1e6)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_poles_scale_rejected(self, three_bus, scale):
        with pytest.raises(InvalidInput, match="poles_scale must be finite and > 0"):
            certify.assess_grid(three_bus, poles_scale=scale)

    @pytest.mark.parametrize("scale", ["2", None])
    def test_poles_scale_not_a_number_rejected(self, three_bus, scale):
        # refused before math.isfinite, which would raise TypeError
        want = f"^poles_scale must be finite and > 0, got {scale}$"
        with pytest.raises(InvalidInput, match=want):
            certify.assess_grid(three_bus, poles_scale=scale)

    def test_gain_representations_consistent(self, three_bus):
        # the stored original-coordinate gains, taken to modal coordinates
        # (Kt_ij = T_j^T K_ij), are the projection gains of the modal blocks
        res = certify.assess_grid(three_bus, use_global=True)
        for sub in res.subsystems:
            T = res.transforms[sub.bus].T
            Bt = np.linalg.solve(T, sub.B)
            gs = res.gains[sub.bus]
            assert sorted(gs.global_) == sub.neighbors
            for j, k in gs.global_.items():
                Tj = res.transforms[j].T
                kt, = control.optimal_global_gain(
                    [Bt], [np.linalg.solve(T, line_block(sub.couplings[j]) @ Tj)])
                assert np.abs(kt - Tj.T @ k).max() <= 1e-8


def reference_rows(subs, designs, variant, escalate):
    """Rows and global gains stage by stage on the full 3x3 blocks: modal
    blocks ``inv(T_i) A_hat_ij T_j``, their projection gains, the residual
    blocks, then ``sampling.build_S_tilde`` or ``certify_decoupled`` +
    ``sampling.build_S``."""
    couplings_t, couplings, gains = {}, {}, {}
    for sub in subs:
        T = designs[sub.bus][1].T
        Bt = np.linalg.solve(T, sub.B)
        for j, c in sub.couplings.items():
            C, Tj = line_block(c), designs[j][1].T
            At, k = np.linalg.solve(T, C @ Tj), np.zeros(3)
            if escalate:
                kt, = control.optimal_global_gain([Bt], [At])
                At, k = At - np.outer(Bt, kt), np.linalg.solve(Tj.T, kt)
                gains[(sub.bus, j)] = k
            couplings_t[(sub.bus, j)] = At
            couplings[(sub.bus, j)] = C - np.outer(sub.B, k)
    if variant == certify.VARIANT_TRANSFORMED:
        reports = build_S_tilde({b: mt for b, (_, mt) in designs.items()}, couplings_t)
    else:
        certs = {s.bus: certify.certify_decoupled(
            [s.A_hat - np.outer(s.B, designs[s.bus][0])], np.eye(3))[0] for s in subs}
        reports = build_S(certs, couplings)
    return reports, gains


class TestRankOneKernel:
    """``agent_rows`` forms every row entry from line strengths and
    per-agent scalars; the stage-by-stage reference forms it from blocks."""

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    @pytest.mark.parametrize("escalate", [False, True])
    def test_matches_stage_by_stage_reference(self, rng, variant, escalate):
        for _ in range(12):
            grid = make_grid(*random_grid_tuples(rng))
            subs = gridmodel.build_subsystems(grid)
            designs = {}
            for s in subs:
                (K,), (mt,) = certify.design_agents([s], [grid.generator(s.bus).poles])
                designs[s.bus] = K, mt
            want, want_gains = reference_rows(subs, designs, variant, escalate)
            for sub, ref in zip(subs, want):
                K, mt = designs[sub.bus]
                shares = {j: certify.share([designs[j][1].T]).item() for j in sub.neighbors}
                rows = certify.agent_rows([sub], [K], [mt], [shares], [escalate], variant)
                got, gains = rows.report(0), rows.global_gains(0)
                # the reference takes its gain back through inv(T_j^T), which
                # loses up to cond(T_j) eps; the kernel never inverts T_j
                tol = {j: max(1e-12, EPS * np.linalg.cond(designs[j][1].T))
                       for j in sub.neighbors}
                assert got.diagonal == pytest.approx(ref.diagonal, rel=1e-12)
                assert got.offdiag.keys() == ref.offdiag.keys()
                for j, v in ref.offdiag.items():
                    assert got.offdiag[j] == pytest.approx(v, rel=tol[j])
                assert got.met == ref.met
                assert gains.keys() == ({j for (i, j) in want_gains if i == sub.bus}
                                        if escalate else set())
                for j, k in gains.items():
                    ref_k = want_gains[(sub.bus, j)]
                    assert k[0] == pytest.approx(ref_k[0], rel=tol[j])
                    assert k[1] == 0.0 and k[2] == 0.0
                    assert np.abs(ref_k[1:]).max() <= tol[j] * abs(ref_k[0])

    def test_global_gain_is_line_strength_times_own_scalar(self, three_bus):
        # K_ij = c_ij s_i e1: the ratio K_ij[0] / c_ij is one scalar per agent
        res = certify.assess_grid(three_bus, use_global=True)
        for sub in res.subsystems:
            ratios = {res.gains[sub.bus].global_[j][0] / sub.couplings[j]
                      for j in sub.neighbors}
            assert len(ratios) == 1

    def test_original_row_reads_no_share(self, three_bus):
        # the original row reads nothing of a neighbor; the transformed row
        # reads each neighbor's share and refuses to run without it
        sub = gridmodel.build_subsystems(three_bus)[0]
        K, mt = certify.design_agents([sub], [three_bus.generator(1).poles])
        got = certify.agent_rows([sub], K, mt, [{}], [True], certify.VARIANT_ORIGINAL).report(0)
        res = certify.assess_grid(three_bus, use_global=True,
                                  variant=certify.VARIANT_ORIGINAL)
        assert got == res.reports[0]
        with pytest.raises(InvalidInput, match="agent 1: missing share from neighbor 2"):
            certify.agent_rows([sub], K, mt, [{}], [True], certify.VARIANT_TRANSFORMED)


def member_shares(subs, mts):
    """What each agent holds: the share of each of its neighbors."""
    betas = certify.share([mt.T for mt in mts]).tolist()
    by_bus = dict(zip((sub.bus for sub in subs), betas))
    return [{j: by_bus[j] for j in sub.neighbors} for sub in subs]


def test_share_is_the_norm_of_each_first_row(rng):
    # one stacked pass, bit-equal to np.linalg.norm of each member's e1^T T
    T = rng.normal(size=(50, 3, 3))
    got = certify.share(T)
    assert got.shape == (50,)
    assert got.tolist() == [float(np.linalg.norm(t[0])) for t in T]


class TestStackedRows:
    """``agent_rows`` evaluates every agent's row in one stacked pass; each
    agent evaluated as a stack of one must agree bit for bit."""

    def assert_stack_equals_agents(self, subs, Ks, mts, shares, escalate, variant):
        rows = certify.agent_rows(subs, Ks, mts, shares, escalate, variant)
        assert rows.bus == [sub.bus for sub in subs]
        for k, sub in enumerate(subs):
            one = certify.agent_rows([sub], Ks[k:k + 1], mts[k:k + 1], shares[k:k + 1],
                                     escalate[k:k + 1], variant)
            got, report, global_ = rows.report(k), one.report(0), one.global_gains(0)
            assert got == report and isinstance(got.diagonal, float)
            assert all(type(v) is float for v in got.offdiag.values())
            assert (got.margin, got.met) == (report.margin, report.met)
            assert rows.global_gains(k).keys() == global_.keys()
            for j, g in global_.items():
                assert np.array_equal(rows.global_gains(k)[j], g)

    def check_grid(self, grid, escalations, variant):
        subs = gridmodel.build_subsystems(grid)
        Ks, mts = certify.design_agents(subs, pole_specs(grid))
        shares = member_shares(subs, mts)
        for escalate in escalations:
            self.assert_stack_equals_agents(subs, Ks, mts, shares, escalate, variant)

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    def test_three_bus_every_escalation_mix(self, three_bus, variant):
        mixes = [[bool(m >> k & 1) for k in range(3)] for m in range(8)]
        self.check_grid(three_bus, mixes, variant)

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    def test_seeded_random_grids(self, rng, variant):
        grids = [make_grid(*random_grid_tuples(rng)) for _ in range(10)]
        grids.append(make_grid(*ring_grid_tuples(rng, 40)))
        for grid in grids:
            n = len(grid.bus_ids)
            self.check_grid(grid, [[False] * n, [True] * n, list(rng.random(n) < 0.5)],
                            variant)

    def test_error_is_lowest_numbered_failing_agent(self, three_bus):
        # agent 3 fails the Hurwitz check, which the stack runs first; agent 2,
        # evaluated alone, fails earlier in bus order: its error is raised
        subs = gridmodel.build_subsystems(three_bus)
        Ks, mts = certify.design_agents(subs, pole_specs(three_bus))
        shares = member_shares(subs, mts)
        shares[1] = {}
        mts = [mts[0], mts[1], linalg.modal_decompose([np.diag([0.5, -1.0, -2.0])])[0]]
        with pytest.raises(InvalidInput) as info:
            certify.agent_rows(subs, Ks, mts, shares, [False] * 3,
                               certify.VARIANT_TRANSFORMED)
        assert str(info.value) == "agent 2: missing share from neighbor 1"
        with pytest.raises(CertificateInvalid, match="^agent 3: modal form is not Hurwitz$"):
            certify.agent_rows(subs, Ks, mts, shares, [False] * 3,
                               certify.VARIANT_ORIGINAL)


def bits(values):
    """The exact bits of each float, -0.0 and nan told apart."""
    return [float(v).hex() for v in values]


def own_factor(sub, K, mt, escalate, variant):
    """Agent ``sub``'s own factor and escalation coefficient ``s``, from
    that agent alone: ``u`` and ``Bt`` solved on its ``T``, ``s`` its
    :func:`control.optimal_global_gain`, and for the original variant
    ``lambda_max(P)`` of :func:`certify.certify_decoupled` on its closed loop."""
    e2 = np.array([0.0, 1.0, 0.0])
    u, Bt = np.linalg.solve(mt.T, np.column_stack([e2, sub.B])).T
    s = control.optimal_global_gain(Bt[None], u[None, :, None])[0, 0] if escalate else 0.0
    if variant == certify.VARIANT_TRANSFORMED:
        return float(np.linalg.norm(u - s * Bt)), float(s)
    cert, = certify.certify_decoupled([sub.A_hat - np.outer(sub.B, K)], np.eye(3))
    return 2.0 * cert.lambda_max_P * float(np.linalg.norm(e2 - s * sub.B)), float(s)


class TestRowRecord:
    """The record's line-end products equal, bit for bit, the per-agent
    formulas: ``o * abs(c) * nbr`` at each line end, with the own factor
    ``o`` and the coefficient ``s`` of each agent evaluated alone, and
    ``c * s`` for the global gain; each report's margin is Python's ``sum``
    in coupling order, and the objects built on read carry the same bits."""

    @pytest.mark.parametrize("variant", certify.VARIANTS)
    def test_bit_equal_to_per_agent_formulas(self, rng, variant):
        grids = [make_grid(*random_grid_tuples(rng)) for _ in range(8)]
        grids.append(make_grid(*ring_grid_tuples(rng, 40)))
        for grid in grids:
            subs = gridmodel.build_subsystems(grid)
            Ks, mts = certify.design_agents(subs, pole_specs(grid))
            shares = member_shares(subs, mts)
            n = len(subs)
            for escalate in ([False] * n, [True] * n, list(rng.random(n) < 0.5)):
                rows = certify.agent_rows(subs, Ks, mts, shares, escalate, variant)
                assert rows.j == [j for sub in subs for j in sub.couplings]
                offdiag, K = [], []
                for k, sub in enumerate(subs):
                    o, s = own_factor(sub, Ks[k], mts[k], escalate[k], variant)
                    nbr = (shares[k] if variant == certify.VARIANT_TRANSFORMED
                           else dict.fromkeys(sub.couplings, 1.0))
                    off = {j: o * abs(c) * nbr[j] for j, c in sub.couplings.items()}
                    margin = rows.diagonal[k] - sum(off.values())
                    report = rows.report(k)
                    assert report == certify.ConditionReport(sub.bus, rows.diagonal[k], off,
                                                             variant)
                    assert bits(report.offdiag.values()) == bits(off.values())
                    assert bits([report.margin]) == bits([margin])
                    assert report.met is (margin > 0.0)
                    gains = rows.global_gains(k)
                    assert list(gains) == (list(sub.couplings) if escalate[k] else [])
                    for j, g in gains.items():
                        assert bits(g) == bits([sub.couplings[j] * s, 0.0, 0.0])
                    offdiag += off.values()
                    K += ([c * s, 0.0, 0.0] for c in sub.couplings.values())
                assert bits(rows.offdiag) == bits(offdiag)
                assert bits(rows.K.ravel()) == bits(np.ravel(K))

    def test_original_rows_are_each_closed_loops_certificate(self, rng, three_bus):
        # the diagonal lambda_min(Q) and the own factor 2 lambda_max(P) ||e2||
        # (||e2|| = 1) of each agent's decoupled certificate, bit for bit
        grids = [three_bus, *(make_grid(*random_grid_tuples(rng)) for _ in range(4))]
        for grid in grids:
            res = certify.assess_grid(grid, variant=certify.VARIANT_ORIGINAL)
            for sub, report in zip(res.subsystems, res.reports):
                A_cl = sub.A_hat - np.outer(sub.B, res.gains[sub.bus].local)
                cert, = certify.certify_decoupled([A_cl], np.eye(3))
                assert bits([report.diagonal]) == bits([cert.lambda_min_Q])
                assert bits(report.offdiag.values()) == bits(
                    2.0 * cert.lambda_max_P * abs(c) for c in sub.couplings.values())


def pole_specs(grid):
    return [grid.generator(s.bus).poles for s in gridmodel.build_subsystems(grid)]


PAIRED = [complex(-20.0, 6.0), complex(-20.0, -6.0), -40.0]


class TestStackedDesign:
    """``design_agents`` designs every bus in one stacked pass; each bus
    designed as a stack of one must agree bit for bit."""

    def assert_stack_equals_buses(self, subs, pole_sets):
        Ks, mts = certify.design_agents(subs, pole_sets)
        assert Ks.shape == (len(subs), 3) and len(mts) == len(subs)
        for sub, poles, K, mt in zip(subs, pole_sets, Ks, mts):
            (K1,), (mt1,) = certify.design_agents([sub], [poles])
            assert np.array_equal(K, K1)
            assert np.array_equal(mt.T, mt1.T)
            assert np.array_equal(mt.Lam, mt1.Lam)
            assert mt.sigma_M == mt1.sigma_M and isinstance(mt.sigma_M, float)

    def test_three_bus(self, three_bus):
        self.assert_stack_equals_buses(gridmodel.build_subsystems(three_bus),
                                       pole_specs(three_bus))

    def test_seeded_random_grids(self, rng):
        for _ in range(10):
            grid = make_grid(*random_grid_tuples(rng))
            self.assert_stack_equals_buses(gridmodel.build_subsystems(grid), pole_specs(grid))
        grid = make_grid(*ring_grid_tuples(rng, 40))
        self.assert_stack_equals_buses(gridmodel.build_subsystems(grid), pole_specs(grid))

    @pytest.mark.parametrize("paired_buses", [(1, 2, 3), (2,), (1, 3)])
    def test_complex_pairs_and_mixed_stacks(self, three_bus, paired_buses):
        subs = gridmodel.build_subsystems(three_bus)
        specs = [PAIRED if s.bus in paired_buses else poles
                 for s, poles in zip(subs, pole_specs(three_bus))]
        self.assert_stack_equals_buses(subs, specs)
        _, mts = certify.design_agents(subs, specs)
        for bus in paired_buses:
            # the complex pair opens the modal form with its 2x2 block
            Lam = mts[bus - 1].Lam
            assert np.allclose(np.diag(Lam), [-20.0, -20.0, -40.0])
            assert Lam[0, 1] == pytest.approx(6.0) and Lam[1, 0] == -Lam[0, 1]
            # the placed spectrum in modal order: s + iw, the real pole, s - iw
            assert np.allclose(mts[bus - 1].eigenvalues, [PAIRED[0], PAIRED[2], PAIRED[1]])

    def test_random_pair_stacks(self, rng):
        # stacks of random plants whose closed loops mix complex pairs and real spectra
        subs = gridmodel.build_subsystems(make_grid(*ring_grid_tuples(rng, 30)))
        specs = []
        for _ in subs:
            re = sorted(-rng.uniform(5.0, 50.0, size=3))
            w = rng.uniform(0.5, 20.0)
            specs.append([complex(re[0], w), complex(re[0], -w), re[2]]
                         if rng.random() < 0.5 else re)
        self.assert_stack_equals_buses(subs, specs)

    def test_earlier_bus_wins_whatever_the_stage(self):
        # bus 1 fails in modal_decompose, bus 2 already in pole validation:
        # the error names bus 1, as designing bus by bus would
        with open(three_bus_path(), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["generators"][0]["control"] = [-22e6, -39e6, -43e6]
        doc["generators"][1]["control"] = [1.0, -39.0, -43.0]
        grid = gridmodel.parse_grid(json.dumps(doc))
        with pytest.raises(IllConditionedTransform) as info:
            certify.assess_grid(grid)
        assert str(info.value) == (
            "agent 1: eigenvector matrix condition number 9.98e+14 exceeds 1e+12")
        doc["generators"][0]["control"] = [-22.0, -39.0, -43.0]
        grid = gridmodel.parse_grid(json.dumps(doc))
        with pytest.raises(InvalidInput, match="^agent 2: desired poles must have negative real parts$"):
            certify.assess_grid(grid)

    def test_unresolved_pole_named(self, three_bus):
        with pytest.raises(InvalidInput, match=(
                r"^agent 1: pole -2.2e-99 cannot be placed: it is not resolved against "
                r"\|\|A_hat\|\| = 217.231 \(the placed loop misses it by ")):
            certify.assess_grid(three_bus, poles_scale=1e-100)


def counting(monkeypatch, module, names):
    """Count the calls of ``module``'s functions ``names`` (a Counter)."""
    calls = Counter()
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestDesignCost:
    """The shape of the certificate path's cost, counted, not timed."""

    def test_original_rows_fixed_solve_and_eigvalsh_calls(self, rng, monkeypatch):
        # the rows' solves and the stacked Lyapunov certificates run once
        # per grid, not once per bus; the rows' certificates are one Lyapunov
        # solve, one eigvalsh of Q and one of the stack of P, on the spectra
        # the design holds; certify_decoupled takes its own with one eigvals
        calls = counting(monkeypatch, np.linalg, ("solve", "eigvalsh", "eigvals"))
        for n in (10, 50):
            calls.clear()
            certify.assess_grid(make_grid(*ring_grid_tuples(rng, n)), use_global=True,
                                variant=certify.VARIANT_ORIGINAL)
            assert calls == {"solve": 3, "eigvalsh": 2}
            A = np.array([random_semisimple_hurwitz(rng, 3)[0] for _ in range(n)])
            calls.clear()
            certify.certify_decoupled(A, np.eye(3))
            assert calls == {"solve": 1, "eigvals": 1, "eigvalsh": 2}

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    def test_protocol_one_design_and_one_row_pass_per_round(self, rng, monkeypatch,
                                                            variant):
        calls = counting(monkeypatch, certify, ("design_agents", "agent_rows"))
        grid = make_grid(*ring_grid_tuples(rng, 50))
        res = protocol.run_dsa(grid, max_retries=2)
        assert 0 < calls["design_agents"] <= res.rounds
        assert 0 < calls["agent_rows"] <= res.rounds
        # the centralized assessment, in either row kind, is one round's work
        calls.clear()
        certify.assess_grid(grid, use_global=True, variant=variant)
        assert calls == {"design_agents": 1, "agent_rows": 1}

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    def test_one_eig_call_whatever_the_bus_count(self, rng, monkeypatch, variant):
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
        for n in (10, 50):
            shapes.clear()
            certify.assess_grid(make_grid(*ring_grid_tuples(rng, n)), use_global=True,
                                variant=variant)
            assert shapes == [(n, 3, 3)]

    def test_A_full_assembled_once_on_first_read(self, rng, monkeypatch):
        calls = []
        assemble = gridmodel.assemble_full
        monkeypatch.setattr(gridmodel, "assemble_full",
                            lambda *args: calls.append(1) or assemble(*args))
        res = certify.assess_grid(make_grid(*ring_grid_tuples(rng, 50)), use_global=True)
        assert calls == []
        A = res.A_full
        assert res.A_full is A and res.hurwitz
        assert len(calls) == 1
        assert np.array_equal(A, assemble(res.subsystems, res.gains))
