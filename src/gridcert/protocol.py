"""Deterministic multi-agent simulation of the distributed assessment.

Agents run in synchronous rounds under a single-threaded scheduler: each
round every agent (ascending id) consumes the messages addressed to it in
the previous round and emits new ones; the operator then consumes this
round's condition statuses.  Messages produced within a round are ordered
by (from, to, kind), so two runs with identical inputs yield identical
traces.

An agent's lifecycle: design local gains and, in the transformed variant,
send each neighbor its share (:func:`certify.share`); once every
neighbor's share has arrived (the original row reads none), evaluate its
row condition (:func:`certify.agent_row`) and report the outcome to the
operator.  On failure it either retries the local design with every pole
scaled by ``RETRY_POLE_SCALE`` or, when retries are exhausted, escalates to
global gains and re-evaluates.  The operator broadcasts a single stable
verdict when every agent has reported "met"; if the system goes quiescent
without unanimity the verdict is inconclusive.

Privacy: each agent knows only its own bus model (``AgentState.model``),
incoming line strengths included (they depend on its own inertia and the
line reactances).  What an agent tells a neighbor about its design is one
float, ``beta = ||e1^T T||`` of its modal transform, and only in the
transformed variant; no message carries a matrix.  Local system matrices,
gains, transforms and Lyapunov certificates never leave an agent.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from . import certify, control, gridmodel
from .errors import InvalidInput, ProtocolViolation
from .linalg import ModalTransform

OPERATOR = "operator"
BROADCAST = "*"

SHARE_FACTOR = "ShareFactor"
CONDITION_STATUS = "ConditionStatus"
OPERATOR_VERDICT = "OperatorVerdict"

#: every desired pole is scaled by this factor on each local redesign
RETRY_POLE_SCALE = 1.15


@dataclass
class Message:
    kind: str
    sender: int | str
    to: int | str
    round: int
    payload: dict

    def digest(self):
        blob = json.dumps(self.payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json_line(self, full=False):
        doc = {"round": self.round, "from": self.sender, "to": self.to,
               "kind": self.kind}
        if full:
            doc["payload"] = self.payload
        else:
            doc["digest"] = self.digest()
        return json.dumps(doc, sort_keys=True)


def _addr_key(addr):
    return (0, addr, "") if isinstance(addr, int) else (1, 0, str(addr))


def _msg_key(m):
    return (_addr_key(m.sender), _addr_key(m.to), m.kind)


@dataclass
class ProtocolConfig:
    max_retries: int = 0
    allow_global: bool = True
    variant: str = certify.VARIANT_TRANSFORMED

    def __post_init__(self):
        if self.max_retries < 0:
            raise InvalidInput(f"max_retries must be >= 0, got {self.max_retries}")
        if self.variant not in (certify.VARIANT_ORIGINAL, certify.VARIANT_TRANSFORMED):
            raise InvalidInput(f"unknown variant {self.variant!r}")

    @property
    def exchanges_shares(self):
        """Only the transformed row reads the neighbors' shares."""
        return self.variant == certify.VARIANT_TRANSFORMED


@dataclass
class AgentState:
    id: int
    model: gridmodel.SubsystemModel     # its own bus model, all it knows a priori
    designing: bool = True              # designs (again) on its next step
    retry_count: int = 0
    poles: tuple[complex, ...] = ()
    escalated: bool = False
    gains: control.GainSet | None = None
    transform: ModalTransform | None = None
    received_shares: dict[int, float] = field(default_factory=dict)
    report: certify.ConditionReport | None = None
    needs_evaluation: bool = False
    verdict: bool | None = None

    def has_work(self):
        return self.designing or self.needs_evaluation


@dataclass
class OperatorState:
    expected: tuple[int, ...]
    statuses: dict[int, bool] = field(default_factory=dict)
    verdict: bool | None = None


def _ingest(st, inbox):
    for msg in inbox:
        if msg.kind == SHARE_FACTOR:
            if msg.sender not in st.model.couplings:
                raise ProtocolViolation(
                    f"agent {st.id} got share from non-neighbor {msg.sender}",
                    offending=msg)
            beta = msg.payload["beta"]
            # the norm of a row of an invertible T: a forged 0 or -1 would meet any row
            if not (isinstance(beta, float) and math.isfinite(beta) and beta > 0.0):
                raise ProtocolViolation(
                    f"agent {st.id} got share {beta!r} from {msg.sender}", offending=msg)
            st.received_shares[msg.sender] = beta
            st.needs_evaluation = True
        elif msg.kind == OPERATOR_VERDICT:
            st.verdict = bool(msg.payload["stable"])
            st.designing = False
            st.needs_evaluation = False
        else:
            raise ProtocolViolation(
                f"agent {st.id} cannot handle {msg.kind}", offending=msg)


def _design(st, out, config, rnd):
    sub = st.model
    K, mt = certify.design_agent(sub, list(st.poles))
    st.gains = control.GainSet(local=K)
    st.transform = mt
    st.escalated = False
    if config.exchanges_shares:
        beta = certify.share(mt)
        for j in sub.neighbors:
            out.append(Message(SHARE_FACTOR, st.id, j, rnd, {"beta": beta}))
    st.designing = False
    st.needs_evaluation = True


def _evaluate(st, config):
    st.report, global_ = certify.agent_row(
        st.model, st.gains.local, st.transform,
        st.received_shares, st.escalated, config.variant)
    st.gains = control.GainSet(local=st.gains.local, global_=global_)
    return st.report


def agent_step(state, inbox, config, rnd):
    """Pure transition for one agent; returns ``(new_state, outbox)``."""
    st = replace(state, received_shares=dict(state.received_shares))
    out = []
    _ingest(st, inbox)
    if st.designing:
        _design(st, out, config, rnd)
        return st, out
    missing = config.exchanges_shares and set(st.model.couplings) - set(st.received_shares)
    if not st.needs_evaluation or missing:
        return st, out
    report = _evaluate(st, config)
    st.needs_evaluation = False
    out.append(Message(CONDITION_STATUS, st.id, OPERATOR, rnd, {"met": report.met}))
    if report.met:
        return st, out
    if st.retry_count < config.max_retries:
        st.retry_count += 1
        st.poles = tuple(RETRY_POLE_SCALE * complex(p) for p in st.poles)
        st.designing = True
    elif config.allow_global and not st.escalated:
        st.escalated = True
        st.needs_evaluation = True
    return st, out


def operator_step(state, inbox, rnd):
    """Consume condition statuses; broadcast the verdict once unanimous."""
    st = replace(state, statuses=dict(state.statuses))
    seen = {}
    for msg in inbox:
        if msg.kind != CONDITION_STATUS:
            raise ProtocolViolation(
                f"operator cannot handle {msg.kind}", offending=msg)
        if msg.sender not in st.expected:
            raise ProtocolViolation(
                f"status from unknown agent {msg.sender}", offending=msg)
        met = bool(msg.payload["met"])
        if msg.sender in seen and seen[msg.sender] != met:
            raise ProtocolViolation(
                f"conflicting statuses from agent {msg.sender} in round {rnd}",
                offending=msg)
        seen[msg.sender] = met
        st.statuses[msg.sender] = met
    out = []
    if (st.verdict is None and len(st.statuses) == len(st.expected)
            and all(st.statuses.values())):
        st.verdict = True
        out.append(Message(OPERATOR_VERDICT, OPERATOR, BROADCAST, rnd,
                           {"stable": True}))
    return st, out


def _finalize_operator(state, rnd):
    st = replace(state, statuses=dict(state.statuses))
    st.verdict = False
    return st, [Message(OPERATOR_VERDICT, OPERATOR, BROADCAST, rnd,
                        {"stable": False})]


@dataclass
class DsaResult:
    verdict: str
    trace: list[Message]
    agents: dict[int, AgentState]
    rounds: int
    subsystems: list[gridmodel.SubsystemModel]

    @property
    def gains(self):
        return {a: st.gains for a, st in self.agents.items()}

    @property
    def reports(self):
        return [self.agents[a].report for a in sorted(self.agents)]

    def trace_lines(self, full=False):
        return [m.to_json_line(full=full) for m in self.trace]


def run_dsa(grid, max_retries=0, allow_global=True,
            variant=certify.VARIANT_TRANSFORMED):
    """Run the distributed assessment on a grid and return its trace.

    The run is deterministic: agents act in ascending bus order, messages
    are canonically ordered within each round.

    The round cap follows from the retry budget R.  Each of the N agents
    designs at most R + 1 times and escalates at most once, so a run has at
    most N (R + 2) designs and escalations.  Every round before quiescence
    contains one of them or an evaluation one of them caused in the round
    before, so at most 2 N (R + 2) rounds are active; two more finalize and
    deliver the verdict.  Running past the cap raises
    :class:`ProtocolViolation`.
    """
    config = ProtocolConfig(max_retries=max_retries, allow_global=allow_global,
                            variant=variant)
    subsystems = gridmodel.build_subsystems(grid)
    specs = certify.resolve_pole_specs(grid)

    states = {}
    for sub in subsystems:
        states[sub.bus] = AgentState(id=sub.bus, model=sub, poles=tuple(specs[sub.bus]))
    operator = OperatorState(expected=tuple(sorted(states)))
    max_rounds = 2 * len(states) * (config.max_retries + 2) + 2

    trace = []
    pending = []
    rounds_used = 0
    for rnd in range(max_rounds):
        rounds_used = rnd
        inboxes = {}
        for m in pending:
            if m.to == BROADCAST:
                for a in states:
                    inboxes.setdefault(a, []).append(m)
            else:
                inboxes.setdefault(m.to, []).append(m)
        pending = []

        produced = []
        for a in sorted(states):
            states[a], out = agent_step(states[a], inboxes.get(a, []), config, rnd)
            produced.extend(out)
        produced.sort(key=_msg_key)
        operator, op_out = operator_step(
            operator, [m for m in produced if m.to == OPERATOR], rnd)
        produced.extend(op_out)

        trace.extend(produced)
        pending = [m for m in produced if m.to != OPERATOR]
        if not pending:
            idle = not any(st.has_work() for st in states.values())
            if operator.verdict is not None:
                break
            if idle and not produced:
                operator, op_out = _finalize_operator(operator, rnd)
                trace.extend(op_out)
                pending = op_out
    else:
        raise ProtocolViolation(f"no termination within {max_rounds} rounds")

    verdict = certify.STABLE if operator.verdict else certify.INCONCLUSIVE
    return DsaResult(verdict=verdict, trace=trace, agents=states,
                     rounds=rounds_used + 1, subsystems=subsystems)

