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
off-diagonal ``-||At_ij||``).  :func:`agent_rows` evaluates the rows of
many agents of a designed grid in one stacked pass, where every line
coupling is rank one, each row from the line strengths, the agent's own
factor and its neighbors' :func:`share`, into one array record,
:class:`Rows`, that builds each agent's :class:`ConditionReport`; the
centralized :func:`assess_grid` and the protocol rounds both go through it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import control, gridmodel
from .errors import (
    CertificateInvalid,
    GridcertError,
    IllConditionedTransform,
    InvalidInput,
    NotSemiSimple,
)
from .linalg import (
    ModalTransform,
    _as_matrix,
    _lyapunov,
    _norms,
    is_hurwitz,
    modal_decompose,
)

STABLE = "stable"
INCONCLUSIVE = "inconclusive"

VARIANT_ORIGINAL = "original"
VARIANT_TRANSFORMED = "transformed"
#: the row kinds, in the order ``assess --variant both`` evaluates them
VARIANTS = (VARIANT_ORIGINAL, VARIANT_TRANSFORMED)


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
    """Lyapunov certificates for each decoupled subsystem of a stack
    ``(N, n, n)`` in one pass: a list, one per member.

    Raises :class:`CertificateInvalid` (carrying the offending eigenvalue)
    for the first member that is not Hurwitz.
    """
    A = _as_matrix(A, "A", stack=True)
    lam = np.linalg.eigvals(A)
    worst = lam[np.arange(len(lam)), np.argmax(lam.real, axis=-1)]
    if (worst.real >= 0.0).any():
        w = worst[np.argmax(worst.real >= 0.0)]
        raise CertificateInvalid(
            f"subsystem matrix has eigenvalue {w:.6g} with nonnegative real part",
            offending_eigenvalue=complex(w),
        )
    Q, lam_Q, P, lam_P = _lyapunov(A, Q, lam)
    return [LyapunovCertificate(p, Q, float(lam_Q.min()), float(lmax))
            for p, lmax in zip(P, lam_P.max(axis=-1))]


def share(T):
    """What each agent of a stack sends its neighbors: ``beta = ||e1^T T||``
    of its modal transform ``T``, the one number of ``T`` a neighbor's row
    reads.  ``T`` is the stack ``(N, n, n)`` of the agents' transforms; the
    N shares come from one norm pass over the first rows."""
    T = _as_matrix(T, "T", stack=True)
    return _norms(T[:, 0])[:, 0]


@dataclass
class Rows:
    """The rows of a stack of agents as one array record.  Agent k is bus
    ``bus[k]``, with diagonal entry ``diagonal[k]``; its line ends are
    ``start[k]:start[k + 1]``, in coupling order: end e, the line to bus
    ``j[e]``, carries the off-diagonal magnitude ``offdiag[e]`` and the
    global gain ``K_ij = c_ij s_i e1``, row ``K[e]`` (zero unless
    ``escalate[k]``).  Agent k's :meth:`report` holds its row test."""

    variant: str
    bus: list[int]
    diagonal: list[float]
    escalate: list[bool]
    j: list[int]
    start: list[int]
    offdiag: list[float]
    K: np.ndarray

    def _ends(self, k, values):
        a, b = self.start[k], self.start[k + 1]
        return zip(self.j[a:b], values[a:b])

    def report(self, k):
        return ConditionReport(self.bus[k], self.diagonal[k], dict(self._ends(k, self.offdiag)),
                               self.variant)

    def global_gains(self, k):
        """Agent k's ``{j: K_ij}``, empty unless escalated."""
        return dict(self._ends(k, self.K)) if self.escalate[k] else {}


def _rows_stack(subs, Ks, mts, shares, escalate, variant):
    """The :class:`Rows` of a stack of agents.  An error says that some
    agent fails, not which: :func:`agent_rows` finds it."""
    for mt in mts:
        if mt.sigma_M <= 0:
            raise CertificateInvalid("modal form is not Hurwitz",
                                     offending_eigenvalue=-mt.sigma_M)
    deg = [len(sub.couplings) for sub in subs]
    start = [0, *itertools.accumulate(deg)]
    i = np.arange(len(subs)).repeat(deg)    # the agent of each line end
    j = [nb for sub in subs for nb in sub.couplings]
    c = np.array([cj for sub in subs for cj in sub.couplings.values()], dtype=float)
    transformed = variant == VARIANT_TRANSFORMED
    B = np.array([sub.B for sub in subs])
    e2 = np.array([0.0, 1.0, 0.0])
    s = np.zeros(len(subs))
    if transformed or any(escalate):
        T = np.array([mt.T for mt in mts])
        rhs = np.empty(B.shape + (2,))   # the columns e2 and B of each agent
        rhs[..., 0], rhs[..., 1] = e2, B
        X = np.linalg.solve(T, rhs)
        u, Bt = X[..., 0], X[..., 1]
        if any(escalate):
            esc = np.array(escalate, dtype=bool)
            s[esc] = control.optimal_global_gain(Bt[esc], u[esc][..., None])[:, 0]
    if transformed:
        try:
            nbr = [shares[k][nb] for k, nb in zip(i.tolist(), j)]
        except KeyError as exc:
            raise InvalidInput(f"missing share from neighbor {exc.args[0]}") from None
        own = _norms(u - s[:, None] * Bt)[:, 0]
        diagonal = [mt.sigma_M for mt in mts]
        # own factor, coupling strength, neighbor's factor
        offdiag = own[i] * np.abs(c) * nbr
    else:
        # the certificates of the closed loops the design decomposed, on their spectra
        A_cl = (np.array([sub.A_hat for sub in subs])
                - B[:, :, None] * np.asarray(Ks, dtype=float)[:, None, :])
        _, lam_Q, _, lam_P = _lyapunov(A_cl, np.eye(A_cl.shape[-1]),
                                       np.array([mt.eigenvalues for mt in mts]))
        own = 2.0 * lam_P.max(axis=-1) * _norms(e2 - s[:, None] * B)[:, 0]
        diagonal = [float(lam_Q.min())] * len(subs)
        offdiag = own[i] * np.abs(c)    # no share: a neighbor factor of 1
    K = np.zeros((len(c), 3))
    K[:, 0] = c * s[i]
    return Rows(variant, [sub.bus for sub in subs], diagonal, list(escalate), j, start,
                offdiag.tolist(), K)


def agent_rows(subs, Ks, mts, shares, escalate, variant):
    """Many agents' row conditions in one stacked pass, each from its own
    model and its neighbors' shares.

    Agent k is ``subs[k]``, its :class:`~gridcert.gridmodel.SubsystemModel`,
    with local gain ``Ks[k]``, ``mts[k]`` the modal form of its closed loop
    ``A_hat - B K^T``, ``shares[k]`` the neighbor shares it holds
    (``shares[k][j]`` is neighbor j's :func:`share` ``beta_j``) and
    ``escalate[k]``.  Every line coupling is rank one,
    ``A_hat_ij = c_ij e2 e1^T``, so each row entry is a product of scalars.
    With ``u = inv(T_i) e2`` and ``Bt = inv(T_i) B`` the transformed block
    is ``c_ij u (e1^T T_j)``; escalating to the norm-minimizing global gain
    projects ``u`` off ``Bt`` with the coefficient ``s = Bt^T u / Bt^T Bt``,
    which gives ``K_ij = c_ij s e1`` whatever ``T_j`` is.  Off-diagonal
    entries are then

    * transformed: ``|c_ij| ||u - s Bt|| beta_j``;
    * original: ``2 lambda_max(P_i) |c_ij| ||e2 - s B||`` (reads no share);

    with ``s = 0`` unless ``escalate[k]``.  The solves for ``u`` and
    ``Bt``, the projections, the norms and the original variant's Lyapunov
    certificates each run once over the stack, and the certificates reuse
    the spectra ``mts`` carry; row k reads only agent k's inputs and equals
    that of agent k evaluated alone.

    Returns the :class:`Rows` record, or None for no agents.
    ``assess_grid`` evaluates rows of either variant here, the protocol
    rounds transformed rows.  An error keeps its type and names the
    lowest-numbered failing agent, whichever stage it fails at: when the
    stack fails, the agents are evaluated one at a time and the first error
    is raised.
    """
    if variant not in VARIANTS:
        raise InvalidInput(f"unknown variant {variant!r}")
    if not subs:
        return None
    return _first_failure(functools.partial(_rows_stack, variant=variant),
                          [sub.bus for sub in subs], subs, Ks, mts, shares, escalate)


def compositional_verdict(met):
    """``stable`` iff every agent met its row condition (each of ``met``
    true), else ``inconclusive``."""
    return STABLE if all(met) else INCONCLUSIVE


@dataclass
class AssessmentResult:
    """Outcome of a centralized design-and-certify pass over a grid.

    ``A_full``, the dense closed loop of order 3N, is assembled on first
    read and kept: a pass that reads no oracle never holds it."""

    variant: str
    reports: list[ConditionReport]
    verdict: str
    gains: dict[int, control.GainSet]
    transforms: dict[int, ModalTransform]
    subsystems: list[gridmodel.SubsystemModel]

    @functools.cached_property
    def A_full(self):
        return gridmodel.assemble_full(self.subsystems, self.gains)

    @property
    def hurwitz(self):
        return is_hurwitz(self.A_full)


def resolve_pole_specs(grid, scale=1.0):
    """Desired poles per bus: the grid 'control' entries times ``scale``."""
    if not (isinstance(scale, numbers.Real) and math.isfinite(scale) and scale > 0.0):
        raise InvalidInput(f"poles_scale must be finite and > 0, got {scale}")
    specs = {}
    for bus in grid.bus_ids:
        poles = grid.generator(bus).poles
        if poles is None:
            raise InvalidInput(f"bus {bus} has no desired poles (grid 'control' entry)")
        specs[bus] = [scale * complex(p) for p in poles]
    return specs


#: a placed pole farther than this fraction of its modulus from the
#: requested one is misplaced (:func:`misplaced_poles`)
POLE_TOLERANCE = 0.01


def _pole_text(p):
    return f"{p.real:.6g}" if p.imag == 0.0 else f"{p:.6g}"


def misplaced_poles(transforms, specs):
    """The buses whose closed loop misses some requested pole by more than
    ``POLE_TOLERANCE`` relative, worst first: ``(bus, requested, placed)``
    with the pole the bus misses worst and the placed pole nearest it.

    ``transforms`` maps bus to the :class:`ModalTransform` of its closed
    loop, which carries its spectrum; ``specs`` maps bus to its requested
    poles.  Rounding moves the poles of a loop whose gains are large
    against its requested poles; the design raises only when the loop is
    no longer stable or well-conditioned.
    """
    buses = sorted(transforms)
    if not buses:
        return []
    placed = np.array([transforms[b].eigenvalues for b in buses])
    wanted = np.array([specs[b] for b in buses], dtype=complex)
    dist = np.abs(wanted[:, :, None] - placed[:, None, :])
    nearest = dist.argmin(axis=-1)
    rel = dist.min(axis=-1) / np.abs(wanted)
    worst = rel.argmax(axis=-1)
    out = []
    for k in np.argsort(-rel.max(axis=-1), kind="stable"):
        p = worst[k]
        if rel[k, p] > POLE_TOLERANCE:
            out.append((buses[k], complex(wanted[k, p]), complex(placed[k, nearest[k, p]])))
    return out


def _unresolved(A_hat, poles, lam):
    """The error for a placement that failed to resolve ``poles``: when the
    spectrum ``lam`` of the placed loop misses some requested pole by
    more than that pole's distance to the imaginary axis, the worst such
    pole; else None."""
    misses = [(float(np.abs(lam - p).min()), complex(p)) for p in poles]
    miss, p = max(misses, key=lambda mp: mp[0] / -mp[1].real)
    if miss < -p.real:
        return None
    return InvalidInput(
        f"pole {_pole_text(p)} cannot be placed: it is not resolved against "
        f"||A_hat|| = {np.linalg.norm(A_hat, 2):.6g} (the placed loop misses it by {miss:.3g})")


def _design_stack(A, B, pole_sets):
    """The gains and closed-loop modal forms of a stack of buses.  An error
    says that some bus fails, not which: :func:`design_agents` finds it."""
    K = control.pole_place(A, B, pole_sets)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        A_cl = A - B[:, :, None] * K[:, None, :]
    if not np.isfinite(A_cl).all():
        k, r, c = np.argwhere(~np.isfinite(A_cl))[0]
        raise InvalidInput(
            f"entry ({r + 1}, {c + 1}) of the closed loop A_hat - B K^T is not finite: placing "
            f"these poles takes the gain K = [{', '.join(f'{x:.3g}' for x in K[k])}] at "
            f"B = [{', '.join(f'{x:.3g}' for x in B[k])}]")
    try:
        mts = modal_decompose(A_cl)
    except (IllConditionedTransform, NotSemiSimple) as exc:
        bad = next(filter(None, map(_unresolved, A, pole_sets, np.linalg.eigvals(A_cl))), None)
        if bad is None:
            raise
        raise bad from exc
    for a, poles, mt in zip(A, pole_sets, mts):
        # every requested pole is stable, so only rounding can leave the loop unstable
        bad = _unresolved(a, poles, mt.eigenvalues) if mt.sigma_M <= 0 else None
        if bad is not None:
            raise bad
    return K, mts


def design_agents(subsystems, pole_sets):
    """Local design of every bus in one stacked pass: the gains ``K``
    (N, 3) placing ``pole_sets[k]`` for ``subsystems[k]``, and the modal
    forms of the closed loops ``A_hat - B K^T``.

    An error keeps its type and names the lowest-numbered failing bus,
    whichever stage it fails at: when the stack fails, the buses are
    designed one at a time and the first error is raised.
    """
    if not subsystems:
        return np.empty((0, gridmodel.SUBSYSTEM_ORDER)), []
    A = np.array([s.A_hat for s in subsystems])
    B = np.array([s.B for s in subsystems])
    return _first_failure(_design_stack, [s.bus for s in subsystems], A, B, pole_sets)


def _first_failure(run, buses, *stacks):
    """``run(*stacks)``, member k of each stack being bus ``buses[k]``'s.
    When it fails, the first error of a member run alone, in bus order, is
    raised with ``agent <bus>: `` before its text, its type and attributes
    kept; else the stack's own error."""
    try:
        return run(*stacks)
    except GridcertError:
        for k, bus in enumerate(buses):
            try:
                run(*(stack[k:k + 1] for stack in stacks))
            except GridcertError as exc:
                exc.args = (f"agent {bus}: {exc}",)
                raise
        raise


@dataclass
class GridDesign:
    """The design half of :func:`assess_grid`: gains ``Ks[k]`` and modal
    form ``mts[k]`` of ``subsystems[k]``'s closed loop and each bus's
    :func:`share`, which the rows of every variant read."""

    subsystems: list[gridmodel.SubsystemModel]
    Ks: np.ndarray
    mts: list[ModalTransform]
    shares: dict[int, float]

    def assess(self, use_global=False, variant=VARIANT_TRANSFORMED):
        """The row half: every agent's row in one :func:`agent_rows` pass
        with every neighbor's share at hand, escalated to
        coupling-minimizing global gains when ``use_global``, and the verdict."""
        subs, n = self.subsystems, len(self.subsystems)
        rows = agent_rows(subs, self.Ks, self.mts, [self.shares] * n, [use_global] * n,
                          variant)
        gains = {sub.bus: control.GainSet(K, rows.global_gains(k))
                 for k, (sub, K) in enumerate(zip(subs, self.Ks))}
        transforms = {sub.bus: mt for sub, mt in zip(subs, self.mts)}
        reports = [rows.report(k) for k in range(n)]
        return AssessmentResult(variant, reports, compositional_verdict(r.met for r in reports),
                                gains, transforms, subs)


def design_grid(grid, poles_scale=1.0):
    """Local pole placement for every bus in one stacked
    :func:`design_agents` pass, and every bus's share.  Nothing of it
    depends on the variant: one design serves every :meth:`GridDesign.assess`."""
    subsystems = gridmodel.build_subsystems(grid)
    specs = resolve_pole_specs(grid, poles_scale)
    Ks, mts = design_agents(subsystems, [specs[sub.bus] for sub in subsystems])
    shares = dict(zip((sub.bus for sub in subsystems), share([mt.T for mt in mts]).tolist()))
    return GridDesign(subsystems, Ks, mts, shares)


def assess_grid(grid, use_global=False, variant=VARIANT_TRANSFORMED, poles_scale=1.0):
    """Design feedback for every bus and evaluate the chosen condition: the
    centralized (no message passing) counterpart of the distributed
    protocol, :func:`design_grid` then :meth:`GridDesign.assess`."""
    return design_grid(grid, poles_scale).assess(use_global, variant)
