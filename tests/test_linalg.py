import numpy as np
import pytest

from gridcert import linalg
from gridcert.errors import (
    CertificateInvalid,
    IllConditionedTransform,
    InvalidInput,
    NoUniqueSolution,
    NotSemiSimple,
)
from sampling import random_hurwitz, random_spd


class TestEigenvalues:
    """Input validation of the spectrum entries (``is_hurwitz`` here)."""

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            linalg.is_hurwitz([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            linalg.is_hurwitz(np.ones((2, 3)))

    def test_rejects_complex_input(self):
        with pytest.raises(InvalidInput, match="real-valued"):
            linalg.is_hurwitz(np.eye(2) * (1 + 1j))


class TestSpectralNorm:
    def test_identity(self):
        assert linalg.spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_rank_one_single_entry(self):
        C = np.zeros((3, 3))
        C[1, 0] = -7.5
        assert linalg.spectral_norm(C) == pytest.approx(7.5)

    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_rectangular(self):
        assert linalg.spectral_norm([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]) == pytest.approx(2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            linalg.spectral_norm([[np.inf]])

    def test_permutation_signflip_invariance(self, rng):
        A = rng.standard_normal((4, 4))
        base = linalg.spectral_norm(A)
        for _ in range(20):
            P = np.eye(4)[rng.permutation(4)]
            S = np.diag(rng.choice([-1.0, 1.0], size=4))
            for M in (P @ S @ A, A @ P @ S, P @ A @ S):
                assert abs(linalg.spectral_norm(M) - base) <= 1e-12 * max(1.0, base)

    def test_random_unit_vector_bound(self, rng):
        A = rng.standard_normal((3, 3))
        sigma = linalg.spectral_norm(A)
        best = 0.0
        for _ in range(1000):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            nv = np.linalg.norm(A @ v)
            assert nv <= sigma * (1.0 + 1e-12)
            best = max(best, nv)
        assert best >= 0.99 * sigma


class TestSolveLyapunov:
    def test_identity_case(self):
        P = linalg.solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(P, np.eye(2), atol=1e-12)

    def test_hand_solved_2x2(self):
        # symmetric 2x2 equation reduces to 3 unknowns; solved by hand
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        P = linalg.solve_lyapunov(A, np.eye(2))
        assert np.allclose(P, [[1.25, 0.25], [0.25, 0.25]], atol=1e-12)

    def test_singular_operator(self):
        with pytest.raises(NoUniqueSolution):
            linalg.solve_lyapunov([[0.0, 1.0], [0.0, 0.0]], np.eye(2))

    def test_not_hurwitz_flagged(self):
        with pytest.raises(CertificateInvalid):
            linalg.solve_lyapunov(np.eye(2), np.eye(2))

    def test_rejects_bad_q(self):
        A = -np.eye(2)
        with pytest.raises(InvalidInput):
            linalg.solve_lyapunov(A, [[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            linalg.solve_lyapunov(A, -np.eye(2))

    def test_roundtrip_property(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = random_hurwitz(rng, n)
            Q = random_spd(rng, n)
            P = linalg.solve_lyapunov(A, Q)
            assert np.allclose(P, P.T, atol=0.0)
            assert np.linalg.eigvalsh(P).min() > 0.0
            resid = np.linalg.norm(A.T @ P + P @ A + Q)
            assert resid <= 1e-9 * np.linalg.norm(Q)


class TestModalDecompose:
    def test_real_diagonal(self):
        mt = linalg.modal_decompose(np.diag([-1.0, -2.0]))
        assert np.allclose(mt.Lam, np.diag([-2.0, -1.0]))
        # T is the identity up to the ordering permutation
        assert np.allclose(np.abs(mt.T), np.eye(2)[:, [1, 0]])
        assert mt.sigma_M == pytest.approx(1.0)

    def test_complex_block(self):
        mt = linalg.modal_decompose([[0.0, 1.0], [-2.0, -2.0]])
        assert np.allclose(mt.Lam, [[-1.0, 1.0], [-1.0, -1.0]], atol=1e-12)
        assert mt.sigma_M == pytest.approx(1.0)

    def test_columns_unit_norm_sign_fixed(self, rng):
        for _ in range(20):
            A = random_hurwitz(rng, 4)
            mt = linalg.modal_decompose(A)
            assert np.allclose(np.linalg.norm(mt.T, axis=0), 1.0, atol=1e-12)
        # real eigenvector sign: largest-magnitude component positive
        mt = linalg.modal_decompose(np.diag([-3.0, -1.0]))
        for col in mt.T.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_roundtrip_property(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            A = random_hurwitz(rng, n)
            mt = linalg.modal_decompose(A)
            err = np.linalg.norm(mt.T @ mt.Lam @ np.linalg.inv(mt.T) - A)
            assert err <= 1e-8 * np.linalg.norm(A)
            got = np.sort_complex(np.linalg.eigvals(mt.Lam))
            want = np.sort_complex(np.linalg.eigvals(A))
            assert np.allclose(got, want, atol=1e-8 * max(1.0, np.abs(want).max()))

    def test_block_layout(self, rng):
        # complex blocks precede real blocks, ascending real part inside groups
        A = np.zeros((5, 5))
        A[:2, :2] = [[-1.0, 2.0], [-2.0, -1.0]]
        A[2:4, 2:4] = [[-3.0, 1.0], [-1.0, -3.0]]
        A[4, 4] = -0.5
        R = rng.standard_normal((5, 5))
        A = R @ A @ np.linalg.inv(R)
        mt = linalg.modal_decompose(A)
        assert np.allclose(mt.Lam[0:2, 0:2], [[-3.0, 1.0], [-1.0, -3.0]], atol=1e-8)
        assert np.allclose(mt.Lam[2:4, 2:4], [[-1.0, 2.0], [-2.0, -1.0]], atol=1e-8)
        assert mt.Lam[4, 4] == pytest.approx(-0.5)

    def test_defective(self):
        with pytest.raises(NotSemiSimple):
            linalg.modal_decompose([[0.0, 1.0], [0.0, 0.0]])

    def test_ill_conditioned(self):
        # distinct eigenvalues but nearly parallel eigenvectors
        with pytest.raises(IllConditionedTransform):
            linalg.modal_decompose([[-1.0, 1e13], [0.0, -2.0]])


class TestIsHurwitz:
    def test_stable(self):
        assert linalg.is_hurwitz(np.diag([-1.0, -2.0]))

    def test_integrator_chain(self):
        assert not linalg.is_hurwitz([[0.0, 1.0], [0.0, 0.0]])
