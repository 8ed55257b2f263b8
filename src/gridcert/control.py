"""Local and global feedback design.

Local gains place the poles of a single-input subsystem (Ackermann's
formula).  Global gains shrink the interconnection blocks via the
Moore-Penrose projection onto the input column, evaluated in the modal
coordinates where the certification conditions live.  Gains are stored in
original coordinates only (``u = -K^T x``); a rank-one line coupling makes
each global gain one scalar on the neighbor's angle (see
:func:`gridcert.certify.agent_row`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, InvalidInput, Uncontrollable, Unsupported
from .linalg import ModalTransform, _as_matrix, modal_decompose

__all__ = [
    "GainSet", "ModalTransform", "validate_poles", "pole_place",
    "optimal_global_gain", "design_local",
]


@dataclass
class GainSet:
    """Feedback gains for one agent, acting on original states:
    ``u_i = -K_i^T x_i - sum_j K_ij^T x_j`` with ``local`` = ``K_i`` and
    ``global_[j]`` = ``K_ij``."""

    local: np.ndarray | None = None
    global_: dict[int, np.ndarray] = field(default_factory=dict)


def _as_column(v, n, name):
    v = np.asarray(v)
    if np.iscomplexobj(v):
        raise InvalidInput(f"{name} must be real-valued")
    v = v.astype(float, copy=False)
    if v.ndim == 2:
        if 1 not in v.shape:
            raise Unsupported(f"{name} must be a single column, got shape {v.shape}")
        v = v.reshape(-1)
    if v.shape != (n,):
        raise InvalidInput(f"{name} must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{name} has non-finite entries")
    return v


def validate_poles(poles, n):
    """Check a desired pole set: length n, all stable, conjugate-closed."""
    poles = [complex(p) for p in poles]
    if len(poles) != n:
        raise InvalidInput(f"expected {n} poles, got {len(poles)}")
    if any(p.real >= 0 for p in poles):
        raise InvalidInput("desired poles must have negative real parts")
    remaining = [p for p in poles if p.imag != 0.0]
    while remaining:
        p = remaining.pop()
        match = next((k for k, q in enumerate(remaining)
                      if abs(q - p.conjugate()) <= 1e-9 * max(1.0, abs(p))), None)
        if match is None:
            raise InvalidInput(f"pole set is not conjugate-closed at {p}")
        remaining.pop(match)
    return poles


def controllability_matrix(A, B):
    A = _as_matrix(A, "A")
    B = _as_column(B, A.shape[0], "B")
    cols = [B]
    for _ in range(A.shape[0] - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def pole_place(A_hat, B, poles):
    """Single-input pole placement (Ackermann).

    Returns the gain column ``K`` such that ``A_hat - B K^T`` has the
    requested eigenvalues.  Multi-column ``B`` is rejected: the plants
    handled here have one control input per bus.

    Raises
    ------
    Uncontrollable
        If the controllability matrix is rank deficient.
    """
    A_hat = _as_matrix(A_hat, "A_hat")
    n = A_hat.shape[0]
    B = _as_column(B, n, "B")
    poles = validate_poles(poles, n)

    C = controllability_matrix(A_hat, B)
    if np.linalg.matrix_rank(C) < n:
        raise Uncontrollable("controllability matrix is rank deficient")

    # desired characteristic polynomial evaluated at A_hat
    coeffs = np.real(np.poly(np.array(poles)))
    pA = coeffs[-1] * np.eye(n)
    Ak = np.eye(n)
    for k in range(1, n + 1):
        Ak = Ak @ A_hat
        pA = pA + coeffs[n - k] * Ak
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    return e_last @ np.linalg.solve(C, pA)


def design_local(A_hat, B, poles):
    """Place local poles and modal-decompose the closed loop.

    Returns ``(K, ModalTransform)`` for ``A = A_hat - B K^T``.
    """
    K = pole_place(A_hat, B, poles)
    mt = modal_decompose(A_hat - np.outer(np.asarray(B, dtype=float).reshape(-1), K))
    return K, mt


def optimal_global_gain(Bt, At_ij):
    """Norm-minimizing global gain for one coupling block.

    Solves ``min_K || At_ij - Bt K^T ||`` in closed form through the
    Moore-Penrose inverse of the input column:
    ``K^T = (Bt^T Bt)^-1 Bt^T At_ij``.  The residual is orthogonal to
    ``Bt`` (normal equations).  ``At_ij`` may have any number of columns;
    an n x 1 block gives the scalar projection coefficient.
    """
    At_ij = _as_matrix(At_ij, "At_ij", square=False)
    Bt = _as_column(Bt, At_ij.shape[0], "Bt")
    denom = float(Bt @ Bt)
    if denom == 0.0:
        raise Degenerate("input column is zero")
    return (Bt @ At_ij) / denom
