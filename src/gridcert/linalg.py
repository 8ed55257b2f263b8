"""Small dense linear-algebra kernels.

Everything here is deterministic and operates on plain ``numpy`` arrays:
the one conversion of caller arrays, the one (stacked) Lyapunov solve, the
real block-diagonal modal decomposition and Hurwitz checks.
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


def _numeric(a, name, dtype=float):
    """``a`` as a ``dtype`` array; InvalidInput naming it if not numeric, or complex for float."""
    try:
        a = np.asarray(a)
        if dtype is float and np.iscomplexobj(a):
            raise InvalidInput(f"{name} must be real-valued")
        return a.astype(dtype, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be numeric: {exc}") from exc


def _as_matrix(A, name="matrix", square=True, stack=False):
    """``A`` as a float matrix, or with ``stack`` as a stack of them."""
    A = _numeric(A, name)
    if A.ndim != (3 if stack else 2):
        want = f"a stack (N, n, {'n' if square else 'm'})" if stack else "2-D"
        raise InvalidInput(f"{name} must be {want}, got shape {A.shape}")
    if square and A.shape[-2] != A.shape[-1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if A.size == 0:
        raise InvalidInput(f"{name} must have order >= 1")
    if not np.isfinite(A).all():
        raise InvalidInput(f"{name} has non-finite entries")
    return A


def _lyapunov(A, Q, lam):
    """``(Q, lambda(Q), P, lambda(P))``: ``Q`` checked symmetric positive definite,
    and ``P`` with ``A^T P + P A = -Q`` for each member of the checked stack ``A``
    (N, n, n) with spectrum ``lam``, in one stacked n^2-dimensional solve, each ``P``
    symmetrized.  Raises :class:`NoUniqueSolution` when an eigenvalue pair sums to zero
    and :class:`CertificateInvalid` when some ``P`` is not positive definite (``A`` is
    not Hurwitz), for the first member that fails."""
    Q = _as_matrix(Q, "Q")
    n = A.shape[-1]
    if Q.shape[0] != n:
        raise InvalidInput(f"Q must match A, got {Q.shape} vs {A.shape}")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, abs(Q).max())):
        raise InvalidInput("Q must be symmetric")
    lam_Q = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    if lam_Q.min() <= 0.0:
        raise InvalidInput("Q must be positive definite")
    scale = np.maximum(1.0, np.abs(lam).max(axis=-1))
    pair_sums = np.abs(lam[:, :, None] + lam[:, None, :])
    if (pair_sums.min(axis=(-2, -1)) <= 1e-12 * scale).any():
        raise NoUniqueSolution(
            "Lyapunov operator is singular: eigenvalue pair sums to zero"
        )

    # kron(I, A^T) + kron(A^T, I), indexed [member, i, a, j, b] before the reshape
    eye = np.eye(n)
    At = np.swapaxes(A, -1, -2)
    op = (eye[:, None, :, None] * At[:, None, :, None, :]
          + At[:, :, None, :, None] * eye[None, :, None, :])
    op = op.reshape(-1, n * n, n * n)
    rhs = -Q.reshape(-1, order="F")
    x = np.linalg.solve(op, np.broadcast_to(rhs[:, None], (len(A), n * n, 1)))
    P = np.swapaxes(x.reshape(-1, n, n), -1, -2)   # each member's x in column order
    P = 0.5 * (P + np.swapaxes(P, -1, -2))
    lam_P = np.linalg.eigvalsh(P)
    bad = lam_P.min(axis=-1) <= 0.0
    if bad.any():
        b = lam[np.argmax(bad)]
        raise CertificateInvalid(
            "Lyapunov solution is not positive definite: A is not Hurwitz",
            offending_eigenvalue=complex(b[np.argmax(b.real)]),
        )
    return Q, lam_Q, P, lam_P


@dataclass
class ModalTransform:
    """Real modal form ``Lam = inv(T) @ A @ T`` of a semi-simple matrix.

    ``T`` has unit-norm columns; ``Lam`` is block diagonal with one 2x2
    block ``[[s, w], [-w, s]]`` per complex pair ``s +/- iw`` (complex
    blocks first) and one 1x1 block per real eigenvalue.  ``eigenvalues``
    is the spectrum in modal order: each pair's ``s + iw``, the real
    eigenvalues, then each pair's ``s - iw``.  ``sigma_M`` is the negated
    largest eigenvalue real part, positive iff ``A`` is Hurwitz.
    """

    T: np.ndarray
    Lam: np.ndarray
    eigenvalues: np.ndarray
    sigma_M: float


def _ill_conditioned(A, lam, cond):
    """The error for a modal transform of ``A`` (spectrum ``lam``) whose
    condition number ``cond`` is too large: defective at the first group
    of equal eigenvalues whose eigenspace is too small, else merely
    ill-conditioned."""
    n = A.shape[0]
    used = np.zeros(n, dtype=bool)
    tol = 1e-8 * max(1.0, float(np.abs(lam).max()))
    rank_tol = 1e-8 * max(1.0, float(np.abs(A).max()))
    for k in range(n):
        if used[k]:
            continue
        close = np.abs(lam - lam[k]) <= tol
        used |= close
        geo = n - np.linalg.matrix_rank(A - lam[k] * np.eye(n, dtype=complex), tol=rank_tol)
        if geo < close.sum():
            return NotSemiSimple(f"matrix is defective at eigenvalue {lam[k]:.6g}")
    return IllConditionedTransform(
        f"eigenvector matrix condition number {cond:.3g} exceeds {COND_LIMIT:.0e}")


def _norms(P):
    # the 2-norm of each row, as np.linalg.norm computes it for one vector
    return np.sqrt(np.vecdot(P, P))[..., None]


def _signs(P, member):
    """-1 for each row of ``P`` whose largest-magnitude entry is negative,
    else 1, shaped to scale the rows of ``P``; ``member`` indexes the stack
    as a column."""
    top = P[member, np.arange(P.shape[1]), np.argmax(np.abs(P), axis=-1)]
    return np.where(top < 0, -1.0, 1.0)[..., None]


def _pair_rows(lam, W, member):
    """For a stack with eigenvalues ``lam`` (real when no member has a
    pair) and eigenvector rows ``W``, both in modal order: the columns of
    ``T`` as rows, the eigenvalue on each column's diagonal entry of
    ``Lam``, and a mask of the columns that open a pair's 2x2 block."""
    N, n = lam.shape
    pairs = (lam.imag > 0.0).sum(axis=-1)[:, None]
    is_pair = np.arange(n) < pairs
    p, q = W.real.copy(), W.imag.copy()
    # rotate each pair's v by exp(i*theta) so both real columns have
    # equal norm, then scale both to unit norm; the 2x2 block is unaffected
    theta = 0.5 * np.arctan2(np.vecdot(p, p) - np.vecdot(q, q), 2.0 * np.vecdot(p, q))
    w = np.where(is_pair[..., None], np.exp(1j * theta)[..., None] * W, W)
    sign = _signs(w.real, member)
    p, q = w.real * sign, w.imag * sign
    nrm = _norms(p)
    degenerate = is_pair & (nrm[..., 0] == 0.0)
    if degenerate.any():
        raise NotSemiSimple("degenerate complex eigenvector")
    p /= nrm
    q /= np.where(is_pair[..., None], _norms(q), 1.0)
    # row o of T: p of pair o // 2 (even o) or its q (odd o) among the
    # first 2 * pairs rows, then the real eigenvector at position o - pairs
    o = np.arange(n)
    in_pair = o < 2 * pairs
    src = np.where(in_pair, o // 2, o - pairs)
    rows = np.where((in_pair & (o % 2 == 1))[..., None], q[member, src], p[member, src])
    return rows, lam[member, src], in_pair & (o % 2 == 0)


def modal_decompose(A):
    """Real block-diagonalization of each semi-simple member of a stack
    ``(N, n, n)`` in one pass: one :class:`ModalTransform` each, in a list.

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

    The error is that of the first check any member fails.
    """
    A = _as_matrix(A, "A", stack=True)
    N, n, _ = A.shape
    lam, V = np.linalg.eig(A)
    member = np.arange(N)[:, None]
    plus, minus = lam.imag > 0.0, lam.imag < 0.0
    if (plus.sum(axis=-1) != minus.sum(axis=-1)).any():
        raise InvalidInput("eigenvalues are not conjugate symmetric")
    # modal order: the +imag member of each conjugate pair, then the
    # real eigenvalues, each group by ascending real part (lexsort is
    # stable, so ties go by index); the -imag members last
    order = np.lexsort((np.where(plus, lam.imag, 0.0), lam.real,
                        minus.view(np.int8) - plus), axis=-1)
    modal = lam[member, order]
    rows, lam_T, first = _pair_rows(modal, np.swapaxes(V, -1, -2)[member, order], member)
    first = first[:, :-1]
    Lam = np.zeros((N, n, n))
    diag = np.arange(n)
    Lam[:, diag[:-1], diag[1:]] = np.where(first, lam_T.imag[:, :-1], 0.0)
    Lam[:, diag[1:], diag[:-1]] = np.where(first, -lam_T.imag[:, :-1], 0.0)
    Lam[:, diag, diag] = lam_T.real
    T = np.ascontiguousarray(np.swapaxes(rows, -1, -2))

    s = np.linalg.svd(T, compute_uv=False)
    bad = ~(s[:, 0] <= COND_LIMIT * s[:, -1])   # cond(T) = s_max / s_min, inf when singular
    if bad.any():
        b = np.argmax(bad)
        raise _ill_conditioned(A[b], lam[b], np.linalg.cond(T[b]))

    sigma_M = -lam.real.max(axis=-1)
    return [ModalTransform(T[b], Lam[b], modal[b], float(sigma_M[b])) for b in range(N)]


def is_hurwitz(A):
    """True iff every eigenvalue of ``A`` has negative real part."""
    A = _as_matrix(A, "A")
    return bool(np.linalg.eigvals(A).real.max() < 0.0)
