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
off-diagonal ``-||At_ij||``).  :func:`build_S` and :func:`build_S_tilde`
form either matrix from arbitrary blocks.  :func:`agent_row` evaluates one
agent's row of a designed grid, where every line coupling is rank one, from
the line strengths and three scalars of the agent and its neighbors; the
centralized :func:`assess_grid` and the protocol agents both go through it.
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


def agent_row(sub, K, mt, T_nbrs, escalate, variant):
    """One agent's row condition from its own model and its neighbors' shares.

    ``sub`` is the agent's :class:`~gridcert.gridmodel.SubsystemModel`,
    ``K`` its local gain and ``mt`` the modal form of its closed loop
    ``A_hat - B K^T``; ``T_nbrs[j]`` is the modal transform neighbor j
    shared.  Every line coupling is rank one, ``A_hat_ij = c_ij e2 e1^T``,
    so each row entry is a product of scalars.  With ``u = inv(T_i) e2``
    and ``Bt = inv(T_i) B`` the transformed block is
    ``c_ij u (e1^T T_j)``; escalating to the norm-minimizing global gain
    projects ``u`` off ``Bt`` with the coefficient
    ``s = Bt^T u / Bt^T Bt``, which gives ``K_ij = c_ij s e1`` whatever
    ``T_j`` is.  Off-diagonal entries are then

    * transformed: ``|c_ij| ||u - s Bt|| ||e1^T T_j||``;
    * original: ``2 lambda_max(P_i) |c_ij| ||e2 - s B||``;

    with ``s = 0`` unless ``escalate``.

    Returns ``(report, global_)``: the row and the global gains
    ``{j: K_ij}`` (empty unless ``escalate``).  ``assess_grid`` and the
    protocol agents both evaluate rows here.
    """
    _require_hurwitz(sub.bus, mt)
    for j in sub.couplings:
        if j not in T_nbrs:
            raise InvalidInput(f"agent {sub.bus}: missing transform for neighbor {j}")
    c = {j: sub.coupling_gain(j) for j in sub.couplings}
    e2 = np.array([0.0, 1.0, 0.0])
    s = 0.0
    if escalate or variant == VARIANT_TRANSFORMED:
        u, Bt = np.linalg.solve(mt.T, np.column_stack([e2, sub.B])).T
        if escalate:
            s = float(control.optimal_global_gain(Bt, u[:, None])[0])
    global_ = {j: np.array([c[j] * s, 0.0, 0.0]) for j in c} if escalate else {}
    if variant == VARIANT_TRANSFORMED:
        alpha = float(np.linalg.norm(u - s * Bt))
        offdiag = {j: abs(c[j]) * alpha * float(np.linalg.norm(T_nbrs[j][0])) for j in c}
        diagonal = mt.sigma_M
    else:
        A_cl = sub.A_hat - np.outer(sub.B, K)
        cert = certify_decoupled(A_cl, np.eye(len(A_cl)))
        weight = 2.0 * cert.lambda_max_P * float(np.linalg.norm(e2 - s * sub.B))
        offdiag = {j: weight * abs(c[j]) for j in c}
        diagonal = cert.lambda_min_Q
    return ConditionReport(agent=sub.bus, diagonal=diagonal, offdiag=offdiag,
                           variant=variant), global_


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
        report, global_ = agent_row(
            sub, K, mt, {j: transforms[j].T for j in sub.neighbors}, use_global, variant)
        reports.append(report)
        gains[sub.bus] = control.GainSet(local=K, global_=global_)

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
