"""Distributed stability conditions and compositional verdicts.

Each agent contributes one row of a test matrix built from its local
Lyapunov certificate and the norms of the couplings entering its
dynamics.  If every row is strictly diagonally dominant with nonpositive
off-diagonal entries the test matrix is an M-matrix and the interconnected
system is asymptotically stable; the check is sufficient only, so the
negative verdict is "inconclusive", never "unstable".

Two variants exist: the original-coordinates matrix (diagonal
``lambda_min(Q_i)``, off-diagonal ``-2 lambda_max(P_i) ||A_ij||``) and the
relaxed transformed variant in modal coordinates (diagonal ``sigma_M_i``,
off-diagonal ``-||At_ij||``).  :func:`agent_row` evaluates one agent's
row of a designed grid; the centralized :func:`assess_grid` and the
protocol agents both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import control, gridmodel
from .errors import CertificateInvalid, InvalidInput
from .linalg import (
    ModalTransform,
    _as_matrix,
    eigenvalues,
    is_hurwitz,
    solve_lyapunov,
    spectral_norm,
)

STABLE = "stable"
INCONCLUSIVE = "inconclusive"

VARIANT_ORIGINAL = "original"
VARIANT_TRANSFORMED = "transformed"


@dataclass
class LyapunovCertificate:
    """SPD pair (P, Q) with ``A^T P + P A = -Q`` for a decoupled subsystem."""

    P: np.ndarray
    Q: np.ndarray
    lambda_min_Q: float
    lambda_max_P: float


@dataclass
class ConditionReport:
    """One agent's row of the test matrix with its verdict.

    ``offdiag`` holds the magnitudes of the nonpositive off-diagonal
    entries; ``met`` is strict row dominance, and every row meeting it
    makes the test matrix an M-matrix.
    """

    agent: int
    diagonal: float
    offdiag: dict[int, float] = field(default_factory=dict)
    variant: str = VARIANT_TRANSFORMED

    @property
    def margin(self):
        return self.diagonal - sum(self.offdiag.values())

    @property
    def met(self):
        return self.margin > 0.0

    def to_dict(self):
        return {
            "agent": self.agent,
            "variant": self.variant,
            "diagonal": self.diagonal,
            "offdiag": {str(j): v for j, v in sorted(self.offdiag.items())},
            "margin": self.margin,
            "met": self.met,
        }


def certify_decoupled(A, Q):
    """Lyapunov certificate for one decoupled subsystem.

    Raises :class:`CertificateInvalid` (carrying the offending eigenvalue)
    when ``A`` is not Hurwitz.
    """
    A = _as_matrix(A, "A")
    lam = eigenvalues(A)
    worst = lam[np.argmax(lam.real)]
    if worst.real >= 0.0:
        raise CertificateInvalid(
            f"subsystem matrix has eigenvalue {worst:.6g} with nonnegative real part",
            offending_eigenvalue=complex(worst),
        )
    P = solve_lyapunov(A, Q)
    Q = np.asarray(Q, dtype=float)
    return LyapunovCertificate(
        P=P, Q=Q,
        lambda_min_Q=float(np.linalg.eigvalsh(Q).min()),
        lambda_max_P=float(np.linalg.eigvalsh(P).max()),
    )


def _require_hurwitz(agent, mt):
    if mt.sigma_M <= 0:
        raise CertificateInvalid(
            f"agent {agent}: modal form is not Hurwitz",
            offending_eigenvalue=-mt.sigma_M,
        )


def _row(agent, diagonal, weight, blocks, variant):
    """Row with off-diagonal magnitudes ``weight * ||block||`` per neighbor."""
    return ConditionReport(
        agent=agent, diagonal=diagonal,
        offdiag={j: weight * spectral_norm(b) for j, b in blocks.items()},
        variant=variant)


def _blocks_by_agent(agents, couplings):
    """Group ``(i, j) -> block`` couplings by the receiving agent i."""
    blocks = {}
    for (i, j), block in couplings.items():
        if i not in agents or j not in agents:
            raise InvalidInput(f"coupling ({i}, {j}) references unknown agent")
        blocks.setdefault(i, {})[j] = block
    return blocks


def _matrix(reports):
    index = {r.agent: k for k, r in enumerate(reports)}
    S = np.diag([float(r.diagonal) for r in reports])
    for r in reports:
        for j, v in r.offdiag.items():
            S[index[r.agent], index[j]] = -v
    return S


def build_S(certificates, couplings):
    """Original-coordinates test matrix and per-agent reports.

    ``certificates`` maps agent id to :class:`LyapunovCertificate`;
    ``couplings`` maps ordered pairs ``(i, j)`` to the closed-loop block
    ``A_ij`` through which neighbor j drives agent i.
    """
    blocks = _blocks_by_agent(certificates, couplings)
    reports = [_row(a, c.lambda_min_Q, 2.0 * c.lambda_max_P, blocks.get(a, {}),
                    VARIANT_ORIGINAL)
               for a, c in sorted(certificates.items())]
    return _matrix(reports), reports


def build_S_tilde(transforms, couplings_t):
    """Transformed-coordinates test matrix and per-agent reports.

    ``transforms`` maps agent id to :class:`ModalTransform` (all must be
    Hurwitz); ``couplings_t`` maps ordered pairs ``(i, j)`` to the
    closed-loop transformed block ``At_ij``.
    """
    for a, mt in sorted(transforms.items()):
        _require_hurwitz(a, mt)
    blocks = _blocks_by_agent(transforms, couplings_t)
    reports = [_row(a, mt.sigma_M, 1.0, blocks.get(a, {}), VARIANT_TRANSFORMED)
               for a, mt in sorted(transforms.items())]
    return _matrix(reports), reports


def agent_row(agent, A_hat, B, K, mt, couplings, T_nbrs, escalate, variant):
    """One agent's row condition from its own model and its neighbors' shares.

    ``K`` is the agent's local gain and ``mt`` the modal form of its closed
    loop ``A_hat - B K^T``; ``couplings[j]`` is the open-loop block
    ``A_hat_ij`` and ``T_nbrs[j]`` the modal transform neighbor j shared.
    With ``escalate`` each coupling gets its norm-minimizing global gain
    and the row is built from the residual blocks; the transformed residual
    is ``At_ij - Bt Kt_ij^T``, the quantity the projection minimizes.

    Returns ``(report, t_global, global_)``: the row and the global gains
    in modal and original coordinates (both empty unless ``escalate``).
    ``assess_grid`` and the protocol agents both evaluate rows here.
    """
    _require_hurwitz(agent, mt)
    t_global, global_ = {}, {}
    if escalate or variant == VARIANT_TRANSFORMED:
        _, Bt, blocks_t = control.transform_subsystem(A_hat, B, couplings, mt.T, T_nbrs)
    if escalate:
        for j, C_t in list(blocks_t.items()):
            kt = control.optimal_global_gain(Bt, C_t)
            t_global[j] = kt
            global_[j] = control.convert_global_gain(kt, T_nbrs[j])
            blocks_t[j] = C_t - np.outer(Bt, kt)
    if variant == VARIANT_TRANSFORMED:
        return _row(agent, mt.sigma_M, 1.0, blocks_t, variant), t_global, global_
    A_cl, blocks = control.close_loop(A_hat, B, K, couplings, global_)
    cert = certify_decoupled(A_cl, np.eye(A_cl.shape[0]))
    row = _row(agent, cert.lambda_min_Q, 2.0 * cert.lambda_max_P, blocks, variant)
    return row, t_global, global_


def compositional_verdict(reports):
    """``stable`` iff every agent met its row condition, else ``inconclusive``."""
    return STABLE if all(r.met for r in reports) else INCONCLUSIVE


@dataclass
class AssessmentResult:
    """Outcome of a centralized design-and-certify pass over a grid."""

    variant: str
    use_global: bool
    reports: list[ConditionReport]
    verdict: str
    gains: dict[int, control.GainSet]
    transforms: dict[int, ModalTransform]
    subsystems: list[gridmodel.SubsystemModel]
    A_full: np.ndarray

    @property
    def hurwitz(self):
        return is_hurwitz(self.A_full)


def resolve_pole_specs(grid, overrides=None, scale=1.0):
    """Desired poles per bus: overrides first, then the grid 'control' entries."""
    specs = {}
    for bus in grid.bus_ids:
        poles = None if overrides is None else overrides.get(bus)
        if poles is None:
            poles = grid.generator(bus).poles
        if poles is None:
            raise InvalidInput(
                f"bus {bus} has no desired poles (grid 'control' entry or override)")
        specs[bus] = [scale * complex(p) for p in poles]
    return specs


def assess_grid(grid, pole_overrides=None, use_global=False,
                variant=VARIANT_TRANSFORMED, poles_scale=1.0):
    """Design feedback for every bus and evaluate the chosen condition.

    This is the centralized (no message passing) counterpart of the
    distributed protocol: local pole placement per bus, then each agent's
    :func:`agent_row` with every neighbor transform at hand, escalated to
    coupling-minimizing global gains when ``use_global``.
    """
    if variant not in (VARIANT_ORIGINAL, VARIANT_TRANSFORMED):
        raise InvalidInput(f"unknown variant {variant!r}")
    subsystems = gridmodel.build_subsystems(grid)
    specs = resolve_pole_specs(grid, pole_overrides, poles_scale)
    designs = {sub.bus: control.design_local(sub.A_hat, sub.B, specs[sub.bus])
               for sub in subsystems}
    transforms = {bus: mt for bus, (_, mt) in designs.items()}

    gains, reports = {}, []
    for sub in subsystems:
        K, mt = designs[sub.bus]
        report, t_global, global_ = agent_row(
            sub.bus, sub.A_hat, sub.B, K, mt, sub.couplings,
            {j: transforms[j].T for j in sub.neighbors}, use_global, variant)
        reports.append(report)
        gains[sub.bus] = control.GainSet(local=K, global_=global_,
                                         t_local=mt.T.T @ K, t_global=t_global)

    return AssessmentResult(
        variant=variant,
        use_global=use_global,
        reports=reports,
        verdict=compositional_verdict(reports),
        gains=gains,
        transforms=transforms,
        subsystems=subsystems,
        A_full=gridmodel.assemble_full(subsystems, gains),
    )
