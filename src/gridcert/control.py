"""Local and global feedback design.

Local gains place the poles of a single-input subsystem (Ackermann's
formula); global gains shrink the interconnection blocks via the
Moore-Penrose projection, computed in the modal coordinates where the
certification conditions are evaluated.  Gains are stored in transformed
coordinates as primary, with the original-coordinate equivalents populated
eagerly through ``K^T = Kt^T inv(T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, InvalidInput, Uncontrollable, Unsupported
from .linalg import ModalTransform, _as_matrix, modal_decompose

__all__ = [
    "GainSet", "ModalTransform", "validate_poles", "pole_place",
    "transform_subsystem", "optimal_global_gain", "close_loop",
    "design_local", "convert_global_gain",
]


@dataclass
class GainSet:
    """Feedback gains for one agent, in both coordinate systems.

    ``local``/``global_`` act on original states (``u = -K^T x``),
    ``t_local``/``t_global`` on modal states.  Whenever both forms are
    populated they satisfy ``Kt_i^T = K_i^T T_i`` and
    ``Kt_ij^T = K_ij^T T_j``.
    """

    local: np.ndarray | None = None
    global_: dict[int, np.ndarray] = field(default_factory=dict)
    t_local: np.ndarray | None = None
    t_global: dict[int, np.ndarray] = field(default_factory=dict)

    def copy(self):
        return GainSet(local=self.local, global_=dict(self.global_),
                       t_local=self.t_local, t_global=dict(self.t_global))

    def consistency_error(self, T_self, T_neighbors=None):
        """Largest violation of the coordinate-change relations."""
        err = 0.0
        if self.local is not None and self.t_local is not None:
            err = max(err, float(np.abs(self.t_local - T_self.T @ self.local).max()))
        for j, kt in self.t_global.items():
            if j in self.global_ and T_neighbors and j in T_neighbors:
                err = max(err, float(np.abs(kt - T_neighbors[j].T @ self.global_[j]).max()))
        return err


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


def transform_subsystem(A_hat, B, couplings, T_self, T_neighbors):
    """Change of coordinates ``x = T xt`` applied to one subsystem.

    Returns ``(At, Bt, couplings_t)`` with ``At = inv(T_i) A_hat T_i``,
    ``Bt = inv(T_i) B`` and ``couplings_t[j] = inv(T_i) A_hat_ij T_j``.
    """
    A_hat = _as_matrix(A_hat, "A_hat")
    n = A_hat.shape[0]
    B = _as_column(B, n, "B")
    T_self = _as_matrix(T_self, "T_self")
    if T_self.shape[0] != n:
        raise InvalidInput(f"T_self must be {n}x{n}")
    At = np.linalg.solve(T_self, A_hat @ T_self)
    Bt = np.linalg.solve(T_self, B)
    couplings_t = {}
    for j, C in couplings.items():
        if j not in T_neighbors:
            raise InvalidInput(f"missing transform for neighbor {j}")
        C = _as_matrix(C, f"coupling[{j}]", square=False)
        couplings_t[j] = np.linalg.solve(T_self, C @ _as_matrix(T_neighbors[j], f"T[{j}]"))
    return At, Bt, couplings_t


def optimal_global_gain(Bt, At_ij):
    """Norm-minimizing global gain for one coupling block.

    Solves ``min_K || At_ij - Bt K^T ||`` in closed form through the
    Moore-Penrose inverse of the input column:
    ``K^T = (Bt^T Bt)^-1 Bt^T At_ij``.  The residual is orthogonal to
    ``Bt`` (normal equations).
    """
    At_ij = _as_matrix(At_ij, "At_ij")
    Bt = _as_column(Bt, At_ij.shape[0], "Bt")
    denom = float(Bt @ Bt)
    if denom == 0.0:
        raise Degenerate("input column is zero")
    return (Bt @ At_ij) / denom


def convert_global_gain(Kt_ij, T_j):
    """Original-coordinate gain from the transformed one: ``K^T = Kt^T inv(T_j)``."""
    T_j = _as_matrix(T_j, "T_j")
    Kt_ij = _as_column(Kt_ij, T_j.shape[0], "Kt_ij")
    return np.linalg.solve(T_j.T, Kt_ij)


def close_loop(A_hat, B, K, couplings=None, K_ij=None):
    """Apply ``u = -K^T x - sum_j K_ij^T x_j`` to one subsystem.

    Returns ``(A, couplings_closed)`` with ``A = A_hat - B K^T`` and
    ``A_ij = A_hat_ij - B K_ij^T`` (``K_ij`` defaults to zero per
    neighbor).
    """
    A_hat = _as_matrix(A_hat, "A_hat")
    n = A_hat.shape[0]
    B = _as_column(B, n, "B")
    K = _as_column(K, n, "K")
    A = A_hat - np.outer(B, K)
    closed = {}
    for j, C in (couplings or {}).items():
        C = np.asarray(C, dtype=float)
        kj = (K_ij or {}).get(j)
        if kj is None:
            closed[j] = C.copy()
        else:
            closed[j] = C - np.outer(B, _as_column(kj, C.shape[1], f"K_ij[{j}]"))
    return A, closed
