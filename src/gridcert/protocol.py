"""Deterministic multi-agent simulation of the distributed assessment.

Agents run in synchronous rounds under a single-threaded scheduler: each
round every agent consumes the messages addressed to it in the previous
round and emits new ones; the operator then consumes this round's
condition statuses.  Agents step in ascending id order, so a round's
messages are produced in (from, to, kind) order, not sorted, and two runs
with identical inputs yield identical traces.  Trace lines are written
from one template, and each distinct payload is encoded and hashed once.

A round is stepped as stacked passes (:func:`step_agents`): every agent
with mail or work ingests its inbox, one stacked design pass designs the
agents that design this round, one stacked row pass evaluates the agents
whose row is due, and each of those then takes its own report, retry and
escalation step.  The result, errors included, is that of stepping the
agents one at a time in ascending id order, each as a stack of one.

An agent's lifecycle: design local gains and send each neighbor its share
(:func:`certify.share`); once every neighbor's share has arrived, evaluate
its transformed row condition (:func:`certify.agent_rows`) and report the
outcome to the operator.  On failure it either retries the local design
with every pole scaled by ``RETRY_POLE_SCALE`` or, when retries are
exhausted, escalates to global gains and re-evaluates.  The operator
broadcasts a single stable verdict when every agent has reported "met"; if
the system goes quiescent without unanimity the verdict is inconclusive.

Privacy: each agent knows only its own bus model (``AgentState.model``),
incoming line strengths included (they depend on its own inertia and the
line reactances).  What an agent tells a neighbor about its design is one
float, ``beta = ||e1^T T||`` of its modal transform; no message carries a
matrix.  Local system matrices, gains, transforms and Lyapunov
certificates never leave an agent.  The stacked passes are how this
single-process simulator executes a round, not an information flow: each
member of a stack reads only its own agent's model, gains, transform and
received shares.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

from . import certify, control, gridmodel
from .errors import GridcertError, InvalidInput, ProtocolViolation
from .linalg import ModalTransform

OPERATOR = "operator"
BROADCAST = "*"

SHARE_FACTOR = "ShareFactor"
CONDITION_STATUS = "ConditionStatus"
OPERATOR_VERDICT = "OperatorVerdict"

#: every desired pole is scaled by this factor on each local redesign
RETRY_POLE_SCALE = 1.15

#: the wire format's one JSON encoder, ``json.dumps(obj, sort_keys=True)``
#: without building an encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_addr(addr):
    return addr if type(addr) is int else encode_basestring_ascii(addr)


def _json_lines(messages, full):
    """The trace lines of ``messages``, each ``json.dumps`` of its message with
    sorted keys, from one template.  Each distinct payload (told apart by its
    ``repr``: ``0.0``/``-0.0``, ``1``/``1.0``/``True``) is encoded and hashed once."""
    memo = {}
    lines = []
    for m in messages:
        key = repr(m.payload)
        fields = memo.get(key)
        if fields is None:      # the payload's fields, before "from" and after "kind"
            fields = memo[key] = (("", f'"payload": {_encode(m.payload)}, ') if full
                                  else (f'"digest": "{m.digest()}", ', ""))
        head, mid = fields
        lines.append(f'{{{head}"from": {_json_addr(m.sender)}, "kind": '
                     f'{encode_basestring_ascii(m.kind)}, {mid}"round": {m.round}, '
                     f'"to": {_json_addr(m.to)}}}')
    return lines


@dataclass
class Message:
    kind: str
    sender: int | str
    to: int | str
    round: int
    payload: dict

    def digest(self):
        return hashlib.sha256(_encode(self.payload).encode()).hexdigest()

    def to_json_line(self, full=False):
        return _json_lines([self], full)[0]


@dataclass
class ProtocolConfig:
    max_retries: int = 0
    allow_global: bool = True

    def __post_init__(self):
        if type(self.max_retries) is not int or self.max_retries < 0:   # a bool too
            raise InvalidInput(f"max_retries must be >= 0, got {self.max_retries!r}")
        if not isinstance(self.allow_global, bool):
            raise InvalidInput(f"allow_global must be a bool, got {self.allow_global!r}")


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

    def copy(self):
        """A copy with its own ``received_shares``, field by field (a
        fraction of what ``dataclasses.replace`` costs per agent)."""
        new = object.__new__(AgentState)
        new.__dict__.update(self.__dict__)
        new.received_shares = dict(self.received_shares)
        return new


@dataclass
class OperatorState:
    expected: tuple[int, ...]
    statuses: dict[int, bool] = field(default_factory=dict)
    verdict: bool | None = None


def _flag(msg, key, receiver):
    """The JSON bool ``msg.payload[key]``; anything else, a missing key
    included, breaks the protocol (``bool("false")`` would read true)."""
    value = msg.payload.get(key)
    if not isinstance(value, bool):
        raise ProtocolViolation(f"{receiver} got {key} {value!r} from {msg.sender}, not a bool")
    return value


def _ingest(st, inbox):
    for msg in inbox:
        if msg.kind == SHARE_FACTOR:
            if msg.sender not in st.model.couplings:
                raise ProtocolViolation(f"agent {st.id} got share from non-neighbor {msg.sender}")
            beta = msg.payload.get("beta")
            # the norm of a row of an invertible T: a forged 0 or -1 would meet any row
            if not (isinstance(beta, float) and math.isfinite(beta) and beta > 0.0):
                raise ProtocolViolation(f"agent {st.id} got share {beta!r} from {msg.sender}")
            st.received_shares[msg.sender] = beta
            st.needs_evaluation = True
        elif msg.kind == OPERATOR_VERDICT:
            st.verdict = _flag(msg, "stable", f"agent {st.id}")
            st.designing = False
            st.needs_evaluation = False
        else:
            raise ProtocolViolation(f"agent {st.id} cannot handle {msg.kind}")


def _step_stack(states, inboxes, config, rnd):
    """One round for a stack of agents.  An error says that some agent
    fails, not which: :func:`step_agents` finds it."""
    sts = [st.copy() for st in states]
    outs = [[] for _ in sts]
    for st, inbox in zip(sts, inboxes):
        _ingest(st, inbox)

    designing = [k for k, st in enumerate(sts) if st.designing]
    evaluating = [k for k, st in enumerate(sts) if not st.designing and st.needs_evaluation
                  and len(st.received_shares) == len(st.model.couplings)]
    Ks, mts = certify.design_agents([sts[k].model for k in designing],
                                    [list(sts[k].poles) for k in designing])
    betas = certify.share([mt.T for mt in mts]).tolist() if mts else []
    for k, K, mt, beta in zip(designing, Ks, mts, betas):
        st = sts[k]
        st.gains = control.GainSet(local=K)
        st.transform = mt
        st.escalated = False
        outs[k] = [Message(SHARE_FACTOR, st.id, j, rnd, {"beta": beta})
                   for j in st.model.neighbors]
        st.designing = False
        st.needs_evaluation = True

    ev = [sts[k] for k in evaluating]
    reports, globals_ = certify.agent_rows(
        [st.model for st in ev], [st.gains.local for st in ev], [st.transform for st in ev],
        [st.received_shares for st in ev], [st.escalated for st in ev],
        certify.VARIANT_TRANSFORMED)
    for k, st, report, global_ in zip(evaluating, ev, reports, globals_):
        st.report = report
        st.gains = control.GainSet(local=st.gains.local, global_=global_)
        st.needs_evaluation = False
        met = st.report.met
        outs[k] = [Message(CONDITION_STATUS, st.id, OPERATOR, rnd, {"met": met})]
        if met:
            continue
        if st.retry_count < config.max_retries:
            st.retry_count += 1
            st.poles = tuple(RETRY_POLE_SCALE * complex(p) for p in st.poles)
            st.designing = True
        elif config.allow_global and not st.escalated:
            st.escalated = True
            st.needs_evaluation = True
    return sts, outs


def step_agents(states, inboxes, config, rnd):
    """One round for many agents as stacked passes; returns ``(new_states,
    outboxes)``, one of each per agent, and leaves ``states`` untouched.

    Every agent ingests its inbox; then one :func:`certify.design_agents`
    call designs the agents that design this round and one
    :func:`certify.agent_rows` call evaluates those whose transformed row
    is due (all their neighbors' shares at hand); then each evaluated agent
    reports and takes its own retry or escalation step.  Each agent's
    result equals that of the agent stepped alone.  An error keeps its type
    and text and is that of the first failing agent in ``states``, whatever
    the phase: when the stack fails, the agents are stepped one at a time
    and the first error is raised.
    """
    try:
        return _step_stack(states, inboxes, config, rnd)
    except GridcertError:
        for st, inbox in zip(states, inboxes):
            _step_stack([st], [inbox], config, rnd)
        raise


def operator_step(state, inbox, rnd):
    """Consume condition statuses; broadcast the verdict once unanimous."""
    st = replace(state, statuses=dict(state.statuses))
    expected = set(st.expected)
    seen = {}
    for msg in inbox:
        if msg.kind != CONDITION_STATUS:
            raise ProtocolViolation(f"operator cannot handle {msg.kind}")
        if msg.sender not in expected:
            raise ProtocolViolation(f"status from unknown agent {msg.sender}")
        met = _flag(msg, "met", "operator")
        if msg.sender in seen and seen[msg.sender] != met:
            raise ProtocolViolation(
                f"conflicting statuses from agent {msg.sender} in round {rnd}")
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
        return _json_lines(self.trace, full)


def run_dsa(grid, max_retries=0, allow_global=True):
    """Run the distributed assessment on a grid and return its trace.

    The run is deterministic: each round is one :func:`step_agents` call
    over the agents with mail or work, in ascending bus order, which
    produces the round's messages in canonical order.

    The round cap follows from the retry budget R.  Each of the N agents
    designs at most R + 1 times and escalates at most once, so a run has at
    most N (R + 2) designs and escalations.  Every round before quiescence
    contains one of them or an evaluation one of them caused in the round
    before, so at most 2 N (R + 2) rounds are active; two more finalize and
    deliver the verdict.  Running past the cap raises
    :class:`ProtocolViolation`.
    """
    config = ProtocolConfig(max_retries=max_retries, allow_global=allow_global)
    subsystems = gridmodel.build_subsystems(grid)
    specs = certify.resolve_pole_specs(grid)

    states = {sub.bus: AgentState(id=sub.bus, model=sub, poles=tuple(specs[sub.bus]))
              for sub in subsystems}
    operator = OperatorState(expected=tuple(sorted(states)))
    max_rounds = 2 * len(states) * (config.max_retries + 2) + 2

    trace = []
    pending = []
    for rnd in range(max_rounds):
        inboxes = {}
        for m in pending:
            for a in (states if m.to == BROADCAST else (m.to,)):
                inboxes.setdefault(a, []).append(m)

        # an agent with an empty inbox and no work would not change: not stepped
        active = [a for a in sorted(states) if a in inboxes or states[a].has_work()]
        stepped, outs = step_agents([states[a] for a in active],
                                    [inboxes.get(a, []) for a in active], config, rnd)
        states.update(zip(active, stepped))
        produced = [m for out in outs for m in out]
        operator, op_out = operator_step(
            operator, [m for m in produced if m.to == OPERATOR], rnd)
        produced.extend(op_out)

        trace.extend(produced)
        pending = [m for m in produced if m.to != OPERATOR]
        if not pending:
            if operator.verdict is not None:
                break
            if not produced and not any(st.has_work() for st in states.values()):
                operator, op_out = _finalize_operator(operator, rnd)
                trace.extend(op_out)
                pending = op_out
    else:
        raise ProtocolViolation(f"no termination within {max_rounds} rounds")

    verdict = certify.STABLE if operator.verdict else certify.INCONCLUSIVE
    return DsaResult(verdict=verdict, trace=trace, agents=states,
                     rounds=rnd + 1, subsystems=subsystems)

