import re

import numpy as np
import pytest

from gridcert import certify, control, gridmodel, linalg, sim
from gridcert.data import three_bus_path
from gridcert.errors import (
    CertificateInvalid,
    IllConditionedTransform,
    InvalidInput,
    NoUniqueSolution,
    NotSemiSimple,
)
from sampling import random_hurwitz

# each stacked kernel, called with ``A`` in the place of its stack, and the
# message that refuses an input of the wrong rank
STACK_KERNELS = {
    "modal_decompose": (linalg.modal_decompose, "A must be a stack (N, n, n)"),
    "certify_decoupled": (lambda A: certify.certify_decoupled(A, np.eye(3)),
                          "A must be a stack (N, n, n)"),
    "pole_place": (lambda A: control.pole_place(A, [[0.0, 0.0, 1.0]], [[-1.0, -2.0, -3.0]]),
                   "A_hat must be a stack (N, n, n)"),
    "optimal_global_gain": (lambda A: control.optimal_global_gain([[0.0, 0.0, 1.0]], A),
                            "At_ij must be a stack (N, n, m)"),
    "share": (certify.share, "T must be a stack (N, n, n)"),
}


@pytest.mark.parametrize("kernel", sorted(STACK_KERNELS))
@pytest.mark.parametrize("shape", [(3, 3), (1, 1, 3, 3)], ids=["2d", "4d"])
def test_unstacked_input_refused(kernel, shape):
    # the kernels take only stacks: one matrix is a stack of one
    call, message = STACK_KERNELS[kernel]
    with pytest.raises(InvalidInput, match=re.escape(f"{message}, got shape {shape}")):
        call(-np.eye(3).reshape(shape))


RAGGED = [[-1.0, 0.0], [0.0]]
T5 = np.arange(5) * 0.1


def three_bus_subsystems():
    return gridmodel.build_subsystems(gridmodel.load_grid(three_bus_path()))


# each public entry point, called with RAGGED as one array argument, and the
# start of the message that names that argument
RAGGED_ENTRIES = {
    "is_hurwitz-A": (linalg.is_hurwitz, "A must be numeric"),
    "modal_decompose-A": (linalg.modal_decompose, "A must be numeric"),
    "certify_decoupled-A": (lambda v: certify.certify_decoupled(v, np.eye(2)),
                            "A must be numeric"),
    "certify_decoupled-Q": (lambda v: certify.certify_decoupled([-np.eye(2)], v),
                            "Q must be numeric"),
    "share-T": (certify.share, "T must be numeric"),
    "pole_place-A_hat": (lambda v: control.pole_place(v, [[0.0, 1.0]], [[-1.0, -2.0]]),
                         "A_hat must be numeric"),
    "pole_place-B": (lambda v: control.pole_place([[[0.0, 1.0], [0.0, 0.0]]], v,
                                                  [[-1.0, -2.0]]),
                     "B must be numeric"),
    "optimal_global_gain-At_ij": (lambda v: control.optimal_global_gain([[0.0, 1.0]], v),
                                  "At_ij must be numeric"),
    "optimal_global_gain-Bt": (lambda v: control.optimal_global_gain(v, np.ones((2, 2, 1))),
                               "Bt must be numeric"),
    "assemble_full-local": (
        lambda v: gridmodel.assemble_full(three_bus_subsystems(), {1: control.GainSet(v)}),
        "local gain for bus 1 must be finite real numbers"),
    "integrate-A": (lambda v: sim.integrate(v, [[1.0]], np.zeros((T5.size, 1)), T5),
                    "A must be numeric"),
    "simulate-A_full": (lambda v: sim.simulate(v, np.zeros((3, 1)), sim.SimConfig(), [1], {},
                                               eigenvalues=[-1.0, -2.0, -3.0]),
                        "A_full must be numeric"),
}


@pytest.mark.parametrize("entry", sorted(RAGGED_ENTRIES))
def test_ragged_array_named(entry):
    # a ragged list is not an array: InvalidInput naming the argument, not numpy's ValueError
    call, message = RAGGED_ENTRIES[entry]
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}"):
        call(RAGGED)


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


class TestSolveLyapunov:
    """The stacked solve ``_lyapunov`` behind ``certify_decoupled``, whose
    Hurwitz check fails first on every input that reaches these errors."""

    def test_singular_operator(self):
        A = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NoUniqueSolution):
            linalg._lyapunov(A, np.eye(2), np.linalg.eigvals(A))

    def test_not_hurwitz_flagged(self):
        A = np.array([-np.eye(2), np.eye(2)])
        with pytest.raises(CertificateInvalid) as exc:
            linalg._lyapunov(A, np.eye(2), np.linalg.eigvals(A))
        assert exc.value.offending_eigenvalue == 1.0


class TestModalDecompose:
    def test_real_diagonal(self):
        mt, = linalg.modal_decompose([np.diag([-1.0, -2.0])])
        assert np.allclose(mt.Lam, np.diag([-2.0, -1.0]))
        # T is the identity up to the ordering permutation
        assert np.allclose(np.abs(mt.T), np.eye(2)[:, [1, 0]])
        assert mt.sigma_M == pytest.approx(1.0)

    def test_complex_block(self):
        mt, = linalg.modal_decompose([[[0.0, 1.0], [-2.0, -2.0]]])
        assert np.allclose(mt.Lam, [[-1.0, 1.0], [-1.0, -1.0]], atol=1e-12)
        assert mt.sigma_M == pytest.approx(1.0)

    def test_columns_unit_norm_sign_fixed(self, rng):
        for _ in range(20):
            A = random_hurwitz(rng, 4)
            mt, = linalg.modal_decompose([A])
            assert np.allclose(np.linalg.norm(mt.T, axis=0), 1.0, atol=1e-12)
        # real eigenvector sign: largest-magnitude component positive
        mt, = linalg.modal_decompose([np.diag([-3.0, -1.0])])
        for col in mt.T.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_roundtrip_property(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            A = random_hurwitz(rng, n)
            mt, = linalg.modal_decompose([A])
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
        mt, = linalg.modal_decompose([A])
        assert np.allclose(mt.Lam[0:2, 0:2], [[-3.0, 1.0], [-1.0, -3.0]], atol=1e-8)
        assert np.allclose(mt.Lam[2:4, 2:4], [[-1.0, 2.0], [-2.0, -1.0]], atol=1e-8)
        assert mt.Lam[4, 4] == pytest.approx(-0.5)

    def test_defective(self):
        with pytest.raises(NotSemiSimple):
            linalg.modal_decompose([[[0.0, 1.0], [0.0, 0.0]]])

    def test_ill_conditioned(self):
        # distinct eigenvalues but nearly parallel eigenvectors
        with pytest.raises(IllConditionedTransform):
            linalg.modal_decompose([[[-1.0, 1e13], [0.0, -2.0]]])


class TestIsHurwitz:
    def test_stable(self):
        assert linalg.is_hurwitz(np.diag([-1.0, -2.0]))

    def test_integrator_chain(self):
        assert not linalg.is_hurwitz([[0.0, 1.0], [0.0, 0.0]])
