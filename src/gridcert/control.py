"""Local and global feedback design.

Local gains place the poles of a single-input subsystem (Ackermann's
formula).  Global gains shrink the interconnection blocks via the
Moore-Penrose projection onto the input column, evaluated in the modal
coordinates where the certification conditions live.  Gains are stored in
original coordinates only (``u = -K^T x``); a rank-one line coupling makes
each global gain one scalar on the neighbor's angle (see
:func:`gridcert.certify.agent_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, InvalidInput, Uncontrollable
from .linalg import _as_matrix, _numeric


@dataclass
class GainSet:
    """Feedback gains for one agent, acting on original states:
    ``u_i = -K_i^T x_i - sum_j K_ij^T x_j`` with ``local`` = ``K_i`` and
    ``global_[j]`` = ``K_ij``."""

    local: np.ndarray
    global_: dict[int, np.ndarray] = field(default_factory=dict)


def _as_column(v, n, name, N):
    """The (N, n) input columns of a stack of N members."""
    v = _numeric(v, name)
    if v.shape != (N, n):
        raise InvalidInput(f"{name} must have shape ({N}, {n}), got shape {v.shape}")
    return _as_matrix(v, name, square=False)


def _pole_sets(pole_sets, n):
    """The (N, n) complex array of N desired pole sets of length n, all stable."""
    for poles in pole_sets:
        try:
            if len(poles) != n:
                raise InvalidInput(f"expected {n} poles, got {len(poles)}")
        except TypeError:
            raise InvalidInput(f"pole set {poles!r} is not a sequence of {n} poles") from None
    P = _numeric(pole_sets, "desired poles", complex)
    if P.size != len(pole_sets) * n:    # each pole a sequence, such as a (re, im) pair
        raise InvalidInput(f"desired poles must be numeric, got pole sets of shape {P.shape}")
    P = P.reshape(len(pole_sets), n)
    if (P.real >= 0).any():
        raise InvalidInput("desired poles must have negative real parts")
    return P


def _krylov(A, B):
    cols = [B]
    for _ in range(A.shape[-1] - 1):
        cols.append((A @ cols[-1][..., None])[..., 0])
    return np.stack(cols, axis=-1)


def _char_poly(P):
    """Complex coefficients, highest power first, of the monic polynomials
    whose roots are the rows of ``P``: ``np.poly``'s recurrence on all rows
    at once.  A product with a real root ``x + 0j`` is exact, so real rows
    get ``np.poly``'s bits; a row's coefficients are real iff it is conjugate-closed."""
    N, n = P.shape
    c = np.zeros((N, n + 1), dtype=complex)
    c[:, 0] = 1.0
    for k in range(n):
        c[:, 1:k + 2] -= c[:, :k + 1] * P[:, k:k + 1]
    return c


def pole_place(A_hat, B, poles):
    """Single-input pole placement (Ackermann) of N plants in one pass.

    ``A_hat`` (N, n, n), ``B`` (N, n) and ``poles`` N pole sets give the
    gain columns ``K`` (N, n) such that each ``A_hat - B K^T`` has its
    requested eigenvalues.  Multi-column ``B`` is rejected: the plants
    handled here have one control input per bus.

    Raises
    ------
    Uncontrollable
        If the controllability matrix is rank deficient.
    InvalidInput
        If the controllability matrix overflows, the desired characteristic
        polynomial overflows at ``A_hat``, or a pole set is not conjugate-closed
        (a coefficient's imaginary part exceeds ``1e-9`` of its real part).

    The error is that of the first check any member fails.
    """
    A = _as_matrix(A_hat, "A_hat", stack=True)
    N, n, _ = A.shape
    B = _as_column(B, n, "B", N)
    P = _pole_sets(poles, n)
    if len(P) != N:
        raise InvalidInput(f"expected {N} pole sets, got {len(P)}")

    with np.errstate(over="ignore", invalid="ignore"):   # overflow is reported below
        C = _krylov(A, B)
    if not np.isfinite(C).all():
        raise InvalidInput("controllability matrix overflows: A_hat or B is too large")
    # rank < n: the least singular value within n eps of the largest (np.linalg.matrix_rank)
    s = np.linalg.svd(C, compute_uv=False)
    bad = s[:, -1] <= s[:, 0] * (n * np.finfo(float).eps)
    if bad.any():
        k = np.argmax(bad)
        r, c = divmod(int(np.abs(A[k]).argmax()), n)
        raise Uncontrollable("controllability matrix is rank deficient" + (
            f" to working precision: its least singular value {s[k, -1]:.3g} is within {n} eps"
            f" of its largest, {s[k, 0]:.3g}, with A_hat's largest entry {A[k, r, c]:.3g} at"
            f" ({r + 1}, {c + 1}) and B = [{', '.join(f'{b:.3g}' for b in B[k])}]"
            if s[k, 0] else ""))      # B = 0: C is exactly zero

    # desired characteristic polynomial evaluated at A_hat
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is reported below
        c = _char_poly(P)
        coeffs = c.real[:, :, None, None]
        pA = coeffs[:, -1] * np.eye(n)
        Ak = np.eye(n)
        for k in range(1, n + 1):
            Ak = Ak @ A
            pA = pA + coeffs[:, n - k] * Ak
    if not np.isfinite(pA).all():
        raise InvalidInput("desired characteristic polynomial overflows at these poles")
    unclosed = np.flatnonzero((np.abs(c.imag) > 1e-9 * np.abs(c.real)).any(axis=-1))
    if unclosed.size:
        raise InvalidInput(f"pole set {P[unclosed[0]].tolist()} is not conjugate-closed")
    return np.linalg.solve(C, pA)[:, -1]   # e_n^T inv(C) p(A_hat)


def optimal_global_gain(Bt, At_ij):
    """Norm-minimizing global gains for N coupling blocks in one pass.

    Solves ``min_K || At_ij - Bt K^T ||`` in closed form through the
    Moore-Penrose inverse of the input column:
    ``K^T = (Bt^T Bt)^-1 Bt^T At_ij``.  The residual is orthogonal to
    ``Bt`` (normal equations).  ``Bt`` (N, n) and ``At_ij`` (N, n, m)
    give (N, m); an n x 1 block gives the scalar projection coefficient.
    """
    At = _as_matrix(At_ij, "At_ij", square=False, stack=True)
    Bt = _as_column(Bt, At.shape[-2], "Bt", len(At))
    denom = np.vecdot(Bt, Bt)
    if (denom == 0.0).any():
        raise Degenerate("input column is zero")
    return np.vecdot(Bt[:, :, None], At, axis=-2) / denom[:, None]
