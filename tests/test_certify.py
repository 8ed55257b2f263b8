import json
import math

import numpy as np
import pytest

from conftest import make_grid
from gridcert import certify, control, gridmodel, linalg
from gridcert.errors import CertificateInvalid, IllConditionedTransform, InvalidInput
from sampling import (
    assemble_blocks,
    line_block,
    random_grid_tuples,
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
        cert = certify.certify_decoupled(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(cert.P, np.eye(2))
        assert cert.lambda_min_Q == pytest.approx(2.0)
        assert cert.lambda_max_P == pytest.approx(1.0)

    def test_hand_eigenvalue(self):
        # largest eigenvalue of [[1.25, .25], [.25, .25]] = (1.5 + sqrt(1.25)) / 2
        cert = certify.certify_decoupled([[0.0, 1.0], [-2.0, -3.0]], np.eye(2))
        assert cert.lambda_max_P == pytest.approx((1.5 + math.sqrt(1.25)) / 2.0)
        assert cert.lambda_max_P == pytest.approx(1.3090, abs=5e-5)

    def test_unstable_rejected_with_eigenvalue(self):
        with pytest.raises(CertificateInvalid) as exc:
            certify.certify_decoupled(np.diag([1.0, -2.0]), np.eye(2))
        assert exc.value.offending_eigenvalue == pytest.approx(1.0)


class TestBuildS:
    def test_decoupled_agents(self):
        certs = {1: certify.certify_decoupled(-np.eye(2), np.eye(2)),
                 2: certify.certify_decoupled(-2.0 * np.eye(2), np.eye(2))}
        S, reports = certify.build_S(certs, {})
        assert np.allclose(S, np.diag([1.0, 1.0]))
        assert all(r.met for r in reports)

    def test_single_neighbor_row(self):
        # lambda_min(Q)=4, lambda_max(P)=1, coupling norm 1 -> off entry 2
        certs = {1: certify.certify_decoupled(-2.0 * np.eye(2), 4.0 * np.eye(2)),
                 2: certify.certify_decoupled(-np.eye(2), np.eye(2))}
        S, reports = certify.build_S(certs, {(1, 2): np.array([[1.0, 0.0], [0.0, 0.0]])})
        r1 = reports[0]
        assert r1.offdiag == {2: pytest.approx(2.0)}
        assert r1.margin == pytest.approx(2.0)
        assert r1.met
        assert S[0, 1] == pytest.approx(-2.0)

    def test_missing_certificate(self):
        certs = {1: certify.certify_decoupled(-np.eye(2), np.eye(2))}
        with pytest.raises(InvalidInput):
            certify.build_S(certs, {(2, 1): np.eye(2)})

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
                P = linalg.solve_lyapunov(A_cl, np.eye(3))
                lmax = np.linalg.eigvalsh(P).max()
                assert rep.diagonal == pytest.approx(1.0)
                for j, val in rep.offdiag.items():
                    block = line_block(sub.couplings[j]) - np.outer(
                        sub.B, gs.global_.get(j, 0.0))
                    want = 2.0 * lmax * linalg.spectral_norm(block)
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
        assert certify.compositional_verdict(res.reports) == certify.INCONCLUSIVE

    def test_fully_decoupled(self, rng):
        transforms = {k: random_semisimple_hurwitz(rng, 3)[1] for k in (1, 2)}
        S, reports = certify.build_S_tilde(transforms, {})
        assert np.count_nonzero(S - np.diag(np.diag(S))) == 0
        assert all(r.met for r in reports)

    def test_non_hurwitz_rejected(self):
        mt = linalg.modal_decompose(np.diag([1.0, -2.0]))
        assert mt.sigma_M < 0
        with pytest.raises(CertificateInvalid):
            certify.build_S_tilde({1: mt}, {})

    def test_perm_sign_invariance(self, rng, three_bus):
        subs = {s.bus: s for s in gridmodel.build_subsystems(three_bus)}
        res = certify.assess_grid(three_bus, use_global=False)
        base = {r.agent: r.offdiag for r in res.reports}

        # recompute couplings with permuted/sign-flipped eigenvector columns
        twisted = {}
        for b, mt in res.transforms.items():
            P = np.eye(3)[:, rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
            twisted[b] = linalg.ModalTransform(
                T=mt.T @ P, Lam=P.T @ mt.Lam @ P, sigma_M=mt.sigma_M)
        coup = {}
        for b, sub in subs.items():
            for j in sub.neighbors:
                coup[(b, j)] = np.linalg.solve(
                    twisted[b].T, line_block(sub.couplings[j]) @ twisted[j].T)
        _, reports = certify.build_S_tilde(twisted, coup)
        for rep in reports:
            for j, val in rep.offdiag.items():
                assert abs(val - base[rep.agent][j]) <= 1e-9


class TestVerdict:
    def test_all_met(self):
        reports = [certify.ConditionReport(agent=k, diagonal=2.0, offdiag={9: 1.0})
                   for k in (1, 2)]
        assert certify.compositional_verdict(reports) == certify.STABLE

    def test_one_not_met(self):
        reports = [certify.ConditionReport(agent=1, diagonal=2.0, offdiag={2: 1.0}),
                   certify.ConditionReport(agent=2, diagonal=1.0, offdiag={1: 3.0})]
        assert certify.compositional_verdict(reports) == certify.INCONCLUSIVE

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
        assert certify.compositional_verdict(reports) == certify.STABLE

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
        mt = linalg.modal_decompose(A)
        for variant in (certify.VARIANT_TRANSFORMED, certify.VARIANT_ORIGINAL):
            sub = gridmodel.SubsystemModel(bus=1, A_hat=A, B=np.array([0.0, 1.0]),
                                           F=np.zeros(2), couplings={})
            with pytest.raises(CertificateInvalid) as exc:
                certify.agent_row(sub, np.zeros(2), mt, {}, False, variant)
            assert exc.value.offending_eigenvalue == pytest.approx(0.5)

    def test_no_alternative_pair_beats_ratio(self, rng):
        _, mt = random_semisimple_hurwitz(rng, 3)
        best = 2.0 * mt.sigma_M
        for _ in range(50):
            Q = random_spd(rng, 3)
            P = linalg.solve_lyapunov(mt.Lam, Q)
            ratio = np.linalg.eigvalsh(Q).min() / np.linalg.eigvalsh(P).max()
            assert ratio <= best + 1e-8


class TestSoundnessSampling:
    def test_original_condition_implies_hurwitz(self, rng):
        for _ in range(30):
            orders, A_blocks, couplings, certs = sample_met_original(rng)
            _, reports = certify.build_S(certs, couplings)
            assert all(r.met for r in reports)
            full = assemble_blocks(orders, A_blocks, couplings)
            assert linalg.is_hurwitz(full)

    def test_transformed_condition_implies_hurwitz(self, rng):
        for _ in range(30):
            orders, transforms, couplings = sample_met_transformed(rng)
            _, reports = certify.build_S_tilde(transforms, couplings)
            assert all(r.met for r in reports)
            full = assemble_blocks(orders,
                                   [transforms[i].Lam for i in sorted(transforms)],
                                   couplings)
            assert linalg.is_hurwitz(full)

    def test_row_condition_on_transformed_pair_agrees(self, rng):
        # evaluating the original-form row test with the (theta*I, Q) pair on
        # the modal system must reproduce the transformed verdicts
        for _ in range(10):
            orders, transforms, couplings = sample_met_transformed(rng)
            certs = {
                i: certify.certify_decoupled(
                    transforms[i].Lam, -(transforms[i].Lam + transforms[i].Lam.T))
                for i in sorted(transforms)
            }
            _, rep_orig = certify.build_S(certs, couplings)
            _, rep_trans = certify.build_S_tilde(transforms, couplings)
            for a, b in zip(rep_orig, rep_trans):
                assert a.met == b.met


class TestAssessGrid:
    def test_local_then_global(self, three_bus):
        res = certify.assess_grid(three_bus, use_global=False)
        assert res.verdict == certify.INCONCLUSIVE
        res = certify.assess_grid(three_bus, use_global=True)
        assert res.verdict == certify.STABLE
        assert res.hurwitz

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
                kt = control.optimal_global_gain(
                    Bt, np.linalg.solve(T, line_block(sub.couplings[j]) @ Tj))
                assert np.abs(kt - Tj.T @ k).max() <= 1e-8


def reference_rows(subs, designs, variant, escalate):
    """Rows and global gains stage by stage on the full 3x3 blocks: modal
    blocks ``inv(T_i) A_hat_ij T_j``, their projection gains, the residual
    blocks, then ``build_S_tilde`` or ``certify_decoupled`` + ``build_S``."""
    couplings_t, couplings, gains = {}, {}, {}
    for sub in subs:
        T = designs[sub.bus][1].T
        Bt = np.linalg.solve(T, sub.B)
        for j, c in sub.couplings.items():
            C, Tj = line_block(c), designs[j][1].T
            At, k = np.linalg.solve(T, C @ Tj), np.zeros(3)
            if escalate:
                kt = control.optimal_global_gain(Bt, At)
                At, k = At - np.outer(Bt, kt), np.linalg.solve(Tj.T, kt)
                gains[(sub.bus, j)] = k
            couplings_t[(sub.bus, j)] = At
            couplings[(sub.bus, j)] = C - np.outer(sub.B, k)
    if variant == certify.VARIANT_TRANSFORMED:
        _, reports = certify.build_S_tilde({b: mt for b, (_, mt) in designs.items()},
                                           couplings_t)
    else:
        certs = {s.bus: certify.certify_decoupled(
            s.A_hat - np.outer(s.B, designs[s.bus][0]), np.eye(3)) for s in subs}
        _, reports = certify.build_S(certs, couplings)
    return reports, gains


class TestRankOneKernel:
    """``agent_row`` forms every row entry from line strengths and
    per-agent scalars; the stage-by-stage reference forms it from blocks."""

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    @pytest.mark.parametrize("escalate", [False, True])
    def test_matches_stage_by_stage_reference(self, rng, variant, escalate):
        for _ in range(12):
            grid = make_grid(*random_grid_tuples(rng))
            subs = gridmodel.build_subsystems(grid)
            designs = {s.bus: certify.design_agent(s, grid.generator(s.bus).poles)
                       for s in subs}
            want, want_gains = reference_rows(subs, designs, variant, escalate)
            for sub, ref in zip(subs, want):
                K, mt = designs[sub.bus]
                got, gains = certify.agent_row(
                    sub, K, mt, {j: certify.share(designs[j][1]) for j in sub.neighbors},
                    escalate, variant)
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
        K, mt = certify.design_agent(sub, three_bus.generator(1).poles)
        got, _ = certify.agent_row(sub, K, mt, {}, True, certify.VARIANT_ORIGINAL)
        res = certify.assess_grid(three_bus, use_global=True,
                                  variant=certify.VARIANT_ORIGINAL)
        assert got == res.reports[0]
        with pytest.raises(InvalidInput, match="agent 1: missing share from neighbor 2"):
            certify.agent_row(sub, K, mt, {}, True, certify.VARIANT_TRANSFORMED)
