"""Small dense linear-algebra kernels.

Everything here is deterministic and operates on plain ``numpy`` arrays:
spectral norms, Lyapunov solves, the real block-diagonal modal
decomposition and Hurwitz checks.
Matrices are small (subsystems are order 3, assembled systems order 3N), so
simplicity wins over asymptotic speed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateInvalid,
    IllConditionedTransform,
    InvalidInput,
    NoUniqueSolution,
    NotSemiSimple,
)

#: condition number of the eigenvector matrix above which a modal
#: transform is considered singular to working precision
COND_LIMIT = 1e12


def _as_matrix(A, name="matrix", square=True):
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise InvalidInput(f"{name} must be real-valued")
    try:
        A = A.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be numeric: {exc}") from exc
    if A.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {A.shape}")
    if square and A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if A.size == 0:
        raise InvalidInput(f"{name} must have order >= 1")
    if not np.all(np.isfinite(A)):
        raise InvalidInput(f"{name} has non-finite entries")
    return A


def spectral_norm(A):
    """Largest singular value of ``A`` (rectangular allowed)."""
    A = _as_matrix(A, "A", square=False)
    return float(np.linalg.svd(A, compute_uv=False)[0])


def solve_lyapunov(A, Q):
    """Solve the continuous Lyapunov equation ``A^T P + P A = -Q``.

    Uses the stacked n^2-dimensional linear system, which is entirely
    adequate at the orders handled here.  The result is symmetrized before
    being returned.

    Parameters
    ----------
    A : (n, n) array_like
    Q : (n, n) array_like
        Symmetric positive definite right-hand side.

    Returns
    -------
    (n, n) ndarray
        Symmetric positive definite solution ``P``.

    Raises
    ------
    NoUniqueSolution
        If some eigenvalue pair of ``A`` sums to zero.
    CertificateInvalid
        If the solution is not positive definite, which signals that ``A``
        is not Hurwitz.
    """
    A = _as_matrix(A, "A")
    Q = _as_matrix(Q, "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise InvalidInput(f"Q must match A, got {Q.shape} vs {A.shape}")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, abs(Q).max())):
        raise InvalidInput("Q must be symmetric")
    if np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() <= 0.0:
        raise InvalidInput("Q must be positive definite")

    lam = np.linalg.eigvals(A)
    scale = max(1.0, float(np.abs(lam).max()))
    pair_sums = np.abs(lam[:, None] + lam[None, :])
    if pair_sums.min() <= 1e-12 * scale:
        raise NoUniqueSolution(
            "Lyapunov operator is singular: eigenvalue pair sums to zero"
        )

    eye = np.eye(n)
    op = np.kron(eye, A.T) + np.kron(A.T, eye)
    P = np.linalg.solve(op, -Q.reshape(-1, order="F")).reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    if np.linalg.eigvalsh(P).min() <= 0.0:
        raise CertificateInvalid(
            "Lyapunov solution is not positive definite: A is not Hurwitz",
            offending_eigenvalue=complex(lam[np.argmax(lam.real)]),
        )
    return P


@dataclass
class ModalTransform:
    """Real modal form ``Lam = inv(T) @ A @ T`` of a semi-simple matrix.

    ``T`` has unit-norm columns; ``Lam`` is block diagonal with one 2x2
    block ``[[s, w], [-w, s]]`` per complex pair ``s +/- iw`` (complex
    blocks first) and one 1x1 block per real eigenvalue.  ``sigma_M`` is
    the negated largest eigenvalue real part, positive iff ``A`` is
    Hurwitz.
    """

    T: np.ndarray
    Lam: np.ndarray
    sigma_M: float


def _geometric_deficit(A, lam_groups):
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    for lam, alg in lam_groups:
        geo = n - np.linalg.matrix_rank(A - lam * np.eye(n, dtype=complex),
                                        tol=1e-8 * scale)
        if geo < alg:
            return lam
    return None


def modal_decompose(A):
    """Real block-diagonalization of a semi-simple real matrix.

    Complex-pair blocks come first, then real eigenvalues, each group in
    ascending real part.  Columns of ``T`` are normalized to unit 2-norm
    with the sign fixed so that the largest-magnitude component of each
    real column (and of the real part of each complex pair) is positive.

    Raises
    ------
    NotSemiSimple
        If ``A`` is defective.
    IllConditionedTransform
        If the eigenvector matrix has condition number above
        ``COND_LIMIT``.
    """
    A = _as_matrix(A, "A")
    n = A.shape[0]
    lam, V = np.linalg.eig(A)

    # real eigenvectors and the +imag member of each conjugate pair
    real_idx = [k for k in range(n) if lam[k].imag == 0.0]
    plus_idx = [k for k in range(n) if lam[k].imag > 0.0]
    minus = sum(1 for k in range(n) if lam[k].imag < 0.0)
    if len(plus_idx) != minus:
        raise InvalidInput("eigenvalues are not conjugate symmetric")

    plus_idx.sort(key=lambda k: (lam[k].real, lam[k].imag, k))
    real_idx.sort(key=lambda k: (lam[k].real, k))

    cols = []
    blocks = []
    for k in plus_idx:
        sig, om = lam[k].real, lam[k].imag
        v = V[:, k]
        p, q = v.real.copy(), v.imag.copy()
        # rotate v by exp(i*theta) so both real columns have equal norm,
        # then scale both to unit norm; the 2x2 block is unaffected
        theta = 0.5 * np.arctan2(p @ p - q @ q, 2.0 * (p @ q))
        w = np.exp(1j * theta) * v
        p, q = w.real, w.imag
        if p[np.argmax(np.abs(p))] < 0:
            p, q = -p, -q
        nrm = np.linalg.norm(p)
        if nrm == 0.0:
            raise NotSemiSimple("degenerate complex eigenvector")
        cols.extend([p / nrm, q / np.linalg.norm(q)])
        blocks.append(np.array([[sig, om], [-om, sig]]))
    for k in real_idx:
        v = V[:, k].real
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        cols.append(v / np.linalg.norm(v))
        blocks.append(np.array([[lam[k].real]]))

    T = np.column_stack(cols)
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        # distinguish a defective matrix from mere ill-conditioning
        groups = []
        used = np.zeros(n, dtype=bool)
        tol = 1e-8 * max(1.0, float(np.abs(lam).max()))
        for k in range(n):
            if used[k]:
                continue
            close = np.abs(lam - lam[k]) <= tol
            used |= close
            groups.append((lam[k], int(close.sum())))
        bad = _geometric_deficit(A, groups)
        if bad is not None:
            raise NotSemiSimple(
                f"matrix is defective at eigenvalue {bad:.6g}"
            )
        raise IllConditionedTransform(
            f"eigenvector matrix condition number {cond:.3g} exceeds {COND_LIMIT:.0e}"
        )

    Lam = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        m = blk.shape[0]
        Lam[pos:pos + m, pos:pos + m] = blk
        pos += m
    return ModalTransform(T=T, Lam=Lam, sigma_M=float(-lam.real.max()))


def is_hurwitz(A):
    """True iff every eigenvalue of ``A`` has negative real part."""
    A = _as_matrix(A, "A")
    return bool(np.linalg.eigvals(A).real.max() < 0.0)
