import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_grid
from gridcert import certify, gridmodel, linalg, protocol
from gridcert.errors import InvalidInput, ProtocolViolation
from sampling import random_grid_tuples, ring_grid_tuples

ALLOWED_PAYLOAD_KEYS = {
    protocol.SHARE_FACTOR: {"beta"},
    protocol.CONDITION_STATUS: {"met"},
    protocol.OPERATOR_VERDICT: {"stable"},
}


# flag values that are not a JSON bool; MISSING leaves the key out
MISSING = object()
NOT_BOOL = ["false", 0, 1, None, MISSING]
NOT_BOOL_IDS = ["str", "zero", "one", "none", "missing"]


def flag_payload(key, value):
    return {} if value is MISSING else {key: value}


def kind_counts(trace):
    return Counter((m.round, m.kind) for m in trace)


def assert_matches_centralized(st, cen):
    """Agent state ``st`` has exactly the gains and row of ``cen``."""
    want = cen.gains[st.id]
    assert np.array_equal(st.gains.local, want.local)
    assert st.gains.global_.keys() == want.global_.keys()
    for j in want.global_:
        assert np.array_equal(st.gains.global_[j], want.global_[j])
    rep = next(r for r in cen.reports if r.agent == st.id)
    assert st.report.variant == rep.variant
    assert st.report.diagonal == rep.diagonal
    assert st.report.offdiag == rep.offdiag


def assert_rows_replay(got, want, escalate, variant):
    """The row pass of ``variant`` over the designed agents ``got``, as one
    stack with escalation flags ``escalate``, equals that over the agents
    ``want``, each alone.  The global gains it gives are those the agents
    hold, in either row kind; in the transformed kind, the protocol's own,
    so are the reports."""
    def rows(sts, esc):
        return certify.agent_rows(
            [st.model for st in sts], [st.gains.local for st in sts],
            [st.transform for st in sts], [st.received_shares for st in sts], esc, variant)

    stack = rows(got, escalate)
    assert len(stack.bus) == len(got) == len(want)
    for k, (st, w, esc) in enumerate(zip(got, want, escalate)):
        report, global_ = stack.report(k), stack.global_gains(k)
        alone = rows([w], [esc])
        w_report, w_global = alone.report(0), alone.global_gains(0)
        assert report == w_report
        assert (report.agent, report.variant) == (st.id, variant)
        assert global_.keys() == w_global.keys() == st.gains.global_.keys()
        for j, k in global_.items():
            assert np.array_equal(k, w_global[j])
            assert np.array_equal(k, st.gains.global_[j])
        if variant == certify.VARIANT_TRANSFORMED:
            assert report == st.report


class TestRunDsaThreeBus:
    def test_message_sequence(self, three_bus):
        res = protocol.run_dsa(three_bus)
        assert res.verdict == certify.STABLE
        counts = kind_counts(res.trace)
        assert counts[(0, protocol.SHARE_FACTOR)] == 6
        assert counts[(1, protocol.CONDITION_STATUS)] == 3
        assert counts[(2, protocol.CONDITION_STATUS)] == 3
        assert counts[(2, protocol.OPERATOR_VERDICT)] == 1
        assert sum(counts.values()) == len(res.trace) == 13
        statuses = [m for m in res.trace if m.kind == protocol.CONDITION_STATUS]
        assert [m.payload["met"] for m in statuses] == [False] * 3 + [True] * 3
        for st in res.agents.values():
            assert st.escalated
            assert st.verdict is True
            assert set(st.gains.global_) == set(st.model.neighbors)

    def test_determinism_byte_identical(self, three_bus):
        a = protocol.run_dsa(three_bus).trace_lines(full=True)
        b = protocol.run_dsa(three_bus).trace_lines(full=True)
        assert a == b

    def test_privacy_invariant(self, three_bus):
        subs = {s.bus: s for s in gridmodel.build_subsystems(three_bus)}
        res = protocol.run_dsa(three_bus)
        for m in res.trace:
            assert set(m.payload) == ALLOWED_PAYLOAD_KEYS[m.kind]
            if m.kind == protocol.SHARE_FACTOR:
                # one finite float: the sender's share of its own design
                beta = m.payload["beta"]
                assert type(beta) is float and math.isfinite(beta)
                assert beta == certify.share([res.agents[m.sender].transform.T]).item()
        # each agent starts from its own bus model alone: the incoming line
        # strengths carry its own inertia and the line reactance, nothing
        # of a neighbor
        for bus, st in res.agents.items():
            model, own = st.model, subs[bus]
            assert model.bus == bus
            for name in ("A_hat", "B", "F"):
                assert np.array_equal(getattr(model, name), getattr(own, name))
            assert model.neighbors == own.neighbors
            for j in own.neighbors:
                assert model.couplings[j] == own.couplings[j]
                X = next(ln.X for ln in three_bus.lines if {ln.from_bus, ln.to_bus} == {bus, j})
                assert model.couplings[j] == pytest.approx(
                    three_bus.omega_b / (three_bus.generator(bus).M * X), rel=1e-15)

    def test_escalation_monotonicity(self, three_bus):
        pre = {r.agent: r.offdiag
               for r in certify.assess_grid(three_bus, use_global=False).reports}
        res = protocol.run_dsa(three_bus)
        for st in res.agents.values():
            for j, val in st.report.offdiag.items():
                assert val <= pre[st.id][j] + 1e-12

    def test_message_count_bound(self, three_bus):
        res = protocol.run_dsa(three_bus, max_retries=2)
        n_edges = len(three_bus.lines)
        n_agents = len(three_bus.bus_ids)
        per_round = Counter()
        for m in res.trace:
            per_round[(m.round, m.kind)] += 1
        for (rnd, kind), count in per_round.items():
            if kind == protocol.SHARE_FACTOR:
                assert count <= 2 * n_edges
            elif kind == protocol.CONDITION_STATUS:
                assert count <= n_agents
            else:
                assert count <= n_agents

    def test_verdict_soundness(self, three_bus):
        res = protocol.run_dsa(three_bus)
        assert res.verdict == certify.STABLE
        A = gridmodel.assemble_full(res.subsystems, res.gains)
        assert linalg.is_hurwitz(A)


def reference_line(m, full):
    """``m``'s trace line as ``json.dumps(..., sort_keys=True)`` writes it."""
    doc = {"round": m.round, "from": m.sender, "to": m.to, "kind": m.kind}
    if full:
        doc["payload"] = m.payload
    else:
        doc["digest"] = hashlib.sha256(json.dumps(m.payload, sort_keys=True).encode()).hexdigest()
    return json.dumps(doc, sort_keys=True)


class TestWireFormat:
    """Every trace line is ``json.dumps(..., sort_keys=True)`` of its message,
    the digest the sha256 of the payload in that form."""

    @pytest.mark.parametrize("which", ["three_bus", "ring30"])
    def test_lines_are_sorted_json_dumps(self, three_bus, rng, which):
        grid = three_bus if which == "three_bus" else make_grid(*ring_grid_tuples(rng, 30))
        res = protocol.run_dsa(grid, max_retries=2)
        assert {m.kind for m in res.trace} == set(ALLOWED_PAYLOAD_KEYS)
        for full in (False, True):
            lines = res.trace_lines(full=full)
            assert lines == [reference_line(m, full) for m in res.trace]

    @pytest.mark.parametrize("full", [False, True])
    def test_equal_payloads_of_different_json_stay_apart(self, full):
        # payloads that compare equal (0.0 == -0.0 == False, 1 == 1.0 == True)
        # but are written differently, each seen twice; string addresses,
        # one of them needing escapes
        Msg = protocol.Message
        payloads = [{"beta": 0.0}, {"beta": -0.0}, {"beta": 1}, {"beta": 1.0},
                    {"met": True}, {"met": 1}, {"met": False}, {"met": 0.0}]
        trace = [Msg(protocol.SHARE_FACTOR, 3, 12, rnd, p)
                 for rnd in range(2) for p in payloads]
        trace += [Msg(protocol.CONDITION_STATUS, 7, protocol.OPERATOR, 2, {"met": True}),
                  Msg(protocol.OPERATOR_VERDICT, protocol.OPERATOR, protocol.BROADCAST, 3,
                      {"stable": True}),
                  Msg(protocol.SHARE_FACTOR, 'bus "é"\\', -1, 4, {"beta": -0.0})]
        res = protocol.DsaResult(verdict=certify.INCONCLUSIVE, trace=trace, agents={},
                                 rounds=5, subsystems=[])
        lines = res.trace_lines(full=full)
        assert lines == [reference_line(m, full) for m in trace]
        assert lines == [m.to_json_line(full=full) for m in trace]
        assert len(set(lines[:len(payloads)])) == len(payloads)


class TestAgentStep:
    def _fresh(self, grid, bus):
        subs = {s.bus: s for s in gridmodel.build_subsystems(grid)}
        return subs, protocol.AgentState(
            id=bus, model=subs[bus], poles=tuple(grid.generator(bus).poles))

    def test_designing_emits_share_pairs(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        (st2,), (out,) = protocol.step_agents([st], [[]], cfg, 0)
        assert not st2.designing
        kinds = Counter(m.kind for m in out)
        assert kinds == {protocol.SHARE_FACTOR: 2}
        assert {m.to for m in out} == {2, 3}
        # purity: the input state is untouched
        assert st.designing
        assert st.gains is None

    def test_missing_share_keeps_awaiting(self, three_bus):
        subs, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        (st,), _ = protocol.step_agents([st], [[]], cfg, 0)
        mt2, = linalg.modal_decompose([np.diag([-1.0, -2.0, -3.0])])
        inbox = [protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0,
                                  {"beta": certify.share([mt2.T]).item()})]
        (st2,), (out,) = protocol.step_agents([st], [inbox], cfg, 1)
        assert not st2.designing and st2.needs_evaluation
        assert out == []

    def test_weak_coupling_reports_met(self):
        grid = make_grid(
            [(1, 8.0, 1.0, 0.9, [-22, -39, -43]),
             (2, 12.0, 1.0, 1.0, [-24, -43, -37])],
            [(1, 2, 500.0)])   # enormous reactance: negligible coupling
        subs, st = self._fresh(grid, 1)
        cfg = protocol.ProtocolConfig()
        (st,), _ = protocol.step_agents([st], [[]], cfg, 0)
        mt2, = linalg.modal_decompose([np.diag([-1.0, -2.0, -3.0])])
        inbox = [protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0,
                                  {"beta": certify.share([mt2.T]).item()})]
        (st2,), (out,) = protocol.step_agents([st], [inbox], cfg, 1)
        assert len(out) == 1
        assert out[0].kind == protocol.CONDITION_STATUS
        assert out[0].payload["met"] is True
        assert out[0].to == protocol.OPERATOR
        assert not (st2.designing or st2.has_work())

    def test_step_does_not_mutate_prior_state(self, three_bus):
        # drive agent 1 to escalation, then confirm the pre-escalation
        # snapshot keeps its own (empty) gain dictionaries
        subs, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        (st,), _ = protocol.step_agents([st], [[]], cfg, 0)
        inbox = []
        for j in (2, 3):
            _, (mt,) = certify.design_agents([subs[j]], [three_bus.generator(j).poles])
            inbox.append(protocol.Message(protocol.SHARE_FACTOR, j, 1, 0,
                                          {"beta": certify.share([mt.T]).item()}))
        (st_failed,), (out,) = protocol.step_agents([st], [inbox], cfg, 1)
        assert out[0].payload["met"] is False
        assert st_failed.escalated and st_failed.gains.global_ == {}
        (st_after,), (out,) = protocol.step_agents([st_failed], [[]], cfg, 2)
        assert out[0].payload["met"] is True
        assert set(st_after.gains.global_) == {2, 3}
        assert st_failed.gains.global_ == {}   # snapshot untouched

    def test_rejects_share_from_non_neighbor(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        (st,), _ = protocol.step_agents([st], [[]], cfg, 0)
        bad = protocol.Message(protocol.SHARE_FACTOR, 99, 1, 0, {"beta": 1.0})
        with pytest.raises(ProtocolViolation):
            protocol.step_agents([st], [[bad]], cfg, 1)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, "1.0", 1])
    def test_rejects_malformed_share(self, three_bus, beta):
        # a share is the norm of a row of an invertible transform: a finite
        # float > 0; a forged 0 or negative share would meet any row
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        (st,), _ = protocol.step_agents([st], [[]], cfg, 0)
        bad = protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0, {"beta": beta})
        with pytest.raises(ProtocolViolation, match="agent 1 got share .* from 2"):
            protocol.step_agents([st], [[bad]], cfg, 1)

    def test_rejects_share_coupling(self, three_bus):
        # an agent holds its own incoming couplings; a neighbor that ships
        # one breaks the protocol
        subs, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        (st,), _ = protocol.step_agents([st], [[]], cfg, 0)
        bad = protocol.Message("ShareCoupling", 2, 1, 0,
                               {"block": subs[1].couplings[2]})
        with pytest.raises(ProtocolViolation, match="cannot handle ShareCoupling"):
            protocol.step_agents([st], [[bad]], cfg, 1)

    @pytest.mark.parametrize("value", NOT_BOOL, ids=NOT_BOOL_IDS)
    def test_rejects_verdict_not_bool(self, three_bus, value):
        # bool("false") is True: only a JSON bool may carry a verdict
        _, st = self._fresh(three_bus, 1)
        bad = protocol.Message(protocol.OPERATOR_VERDICT, protocol.OPERATOR,
                               protocol.BROADCAST, 1, flag_payload("stable", value))
        with pytest.raises(ProtocolViolation, match="agent 1 got stable .* not a bool"):
            protocol.step_agents([st], [[bad]], protocol.ProtocolConfig(), 1)

    def test_uncontrollable_aborts_with_agent_id(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        st = replace(st, model=replace(st.model, B=np.zeros(3)))
        from gridcert.errors import Uncontrollable
        with pytest.raises(Uncontrollable, match="agent 1"):
            protocol.step_agents([st], [[]], protocol.ProtocolConfig(), 0)

    def test_rejects_malformed_kind(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        bad = protocol.Message("StateSample", 2, 1, 0,
                               {"x": np.zeros(3), "t": 0.0})
        with pytest.raises(ProtocolViolation):
            protocol.step_agents([st], [[bad]], cfg, 0)


class TestOperatorStep:
    def _status(self, agent, met, rnd=1):
        return protocol.Message(protocol.CONDITION_STATUS, agent, protocol.OPERATOR,
                                rnd, {"met": met})

    def test_unanimous_broadcast(self):
        op = protocol.OperatorState(expected=(1, 2, 3))
        op, out = protocol.operator_step(
            op, [self._status(a, True) for a in (1, 2, 3)], 1)
        assert op.verdict is True
        assert len(out) == 1
        assert out[0].kind == protocol.OPERATOR_VERDICT
        assert out[0].to == protocol.BROADCAST
        assert out[0].payload == {"stable": True}
        # never broadcast twice
        op, out = protocol.operator_step(op, [self._status(1, True, 2)], 2)
        assert out == []

    def test_partial_no_verdict(self):
        op = protocol.OperatorState(expected=(1, 2))
        op, out = protocol.operator_step(
            op, [self._status(1, True), self._status(2, False)], 1)
        assert op.verdict is None
        assert out == []

    def test_empty_inbox_no_change(self):
        op = protocol.OperatorState(expected=(1,))
        op2, out = protocol.operator_step(op, [], 0)
        assert out == []
        assert op2.statuses == {}

    def test_conflicting_duplicate(self):
        op = protocol.OperatorState(expected=(1, 2))
        with pytest.raises(ProtocolViolation):
            protocol.operator_step(
                op, [self._status(1, True), self._status(1, False)], 1)

    @pytest.mark.parametrize("value", NOT_BOOL, ids=NOT_BOOL_IDS)
    def test_rejects_status_not_bool(self, value):
        # a "false" string once counted as met and the operator broadcast stable
        op = protocol.OperatorState(expected=(1,))
        bad = protocol.Message(protocol.CONDITION_STATUS, 1, protocol.OPERATOR, 1,
                               flag_payload("met", value))
        with pytest.raises(ProtocolViolation, match="operator got met .* not a bool"):
            protocol.operator_step(op, [bad], 1)

    def test_many_agents_broadcast_once(self):
        expected = tuple(range(1, 2001))
        op = protocol.OperatorState(expected=expected)
        op, out = protocol.operator_step(op, [self._status(a, True) for a in expected], 1)
        assert op.verdict is True
        assert [m.payload for m in out] == [{"stable": True}]
        op, out = protocol.operator_step(op, [self._status(a, True, 2) for a in expected], 2)
        assert out == []
        with pytest.raises(ProtocolViolation, match="^status from unknown agent 2001$"):
            protocol.operator_step(op, [self._status(2001, True, 3)], 3)

    def test_rejects_bad_messages(self):
        op = protocol.OperatorState(expected=(1,))
        with pytest.raises(ProtocolViolation):
            protocol.operator_step(
                op, [protocol.Message(protocol.SHARE_FACTOR, 1,
                                      protocol.OPERATOR, 0, {"beta": 1.0})], 0)
        with pytest.raises(ProtocolViolation):
            protocol.operator_step(op, [self._status(9, True)], 0)


class TestScenarios:
    def test_isolated_agent_met_round_one(self):
        grid = make_grid([(4, 5.0, 1.0, 0.8, [-3, -4, -5])], [])
        res = protocol.run_dsa(grid)
        assert res.verdict == certify.STABLE
        counts = kind_counts(res.trace)
        assert counts[(1, protocol.CONDITION_STATUS)] == 1
        assert not any(m.kind == protocol.SHARE_FACTOR for m in res.trace)
        assert not res.agents[4].escalated

    def test_no_options_inconclusive(self, three_bus):
        res = protocol.run_dsa(three_bus, max_retries=0, allow_global=False)
        assert res.verdict == certify.INCONCLUSIVE
        assert not any(st.has_work() for st in res.agents.values())
        verdicts = [m for m in res.trace if m.kind == protocol.OPERATOR_VERDICT]
        assert len(verdicts) == 1
        assert verdicts[0].payload == {"stable": False}

    @pytest.mark.parametrize("retries", [1.5, "1", None, True])
    def test_max_retries_not_an_int_rejected(self, three_bus, retries):
        # range() or the >= 0 comparison would raise TypeError, and True would retry once
        with pytest.raises(InvalidInput, match=f"^max_retries must be >= 0, got {retries!r}$"):
            protocol.run_dsa(three_bus, max_retries=retries)

    def test_retries_rescale_and_reshare(self, three_bus):
        res = protocol.run_dsa(three_bus, max_retries=2, allow_global=True)
        assert res.verdict == certify.STABLE
        counts = kind_counts(res.trace)
        share_rounds = sorted(r for (r, k) in counts if k == protocol.SHARE_FACTOR)
        assert len(share_rounds) == 3   # initial design + two retries
        for st in res.agents.values():
            assert st.retry_count == 2
            assert st.escalated
            # retry policy scales every pole by 1.15 per attempt
            want = tuple(1.15 ** 2 * complex(p) for p in three_bus.generator(st.id).poles)
            assert np.allclose(np.array(st.poles), np.array(want))

    def test_matches_centralized_assessment(self, three_bus):
        # the message-passing route and the centralized route evaluate rows
        # through the same kernel, so gains and row entries agree exactly
        dsa = protocol.run_dsa(three_bus)
        cen = certify.assess_grid(three_bus, use_global=True)
        for bus in three_bus.bus_ids:
            assert dsa.agents[bus].escalated
            assert_matches_centralized(dsa.agents[bus], cen)

    def test_matches_centralized_on_random_grids(self, rng):
        escalated = 0
        for _ in range(6):
            grid = make_grid(*random_grid_tuples(rng))
            dsa = protocol.run_dsa(grid)
            cen = certify.assess_grid(grid, use_global=True)
            for st in dsa.agents.values():
                if st.escalated:
                    escalated += 1
                    assert_matches_centralized(st, cen)
        assert escalated > 0

    def test_noncontiguous_bus_ids(self):
        grid = make_grid(
            [(42, 8.0, 1.0, 0.9, [-22, -39, -43]),
             (7, 12.0, 1.0, 1.0, [-24, -43, -37])],
            [(42, 7, 0.4)])
        res = protocol.run_dsa(grid)
        assert sorted(res.agents) == [7, 42]
        assert res.verdict in (certify.STABLE, certify.INCONCLUSIVE)
        cen = certify.assess_grid(grid, use_global=True)
        assert cen.A_full.shape == (6, 6)
        assert cen.verdict == res.verdict
        if res.verdict == certify.STABLE:
            A = gridmodel.assemble_full(res.subsystems, res.gains)
            assert linalg.is_hurwitz(A)

    def test_random_grids_verdict_soundness(self, rng):
        stable_seen = 0
        for _ in range(25):
            grid = make_grid(*random_grid_tuples(rng))
            res = protocol.run_dsa(grid, max_retries=int(rng.integers(0, 2)))
            if res.verdict == certify.STABLE:
                stable_seen += 1
                A = gridmodel.assemble_full(res.subsystems, res.gains)
                assert linalg.is_hurwitz(A)
        assert stable_seen > 0


def canonical_key(m):
    """A message's place in its round: by sender, then addressee, then kind;
    bus ids ascending, before the operator's string addresses."""
    def addr(a):
        return (0, a, "") if isinstance(a, int) else (1, 0, str(a))
    return (addr(m.sender), addr(m.to), m.kind)


def sequential_dsa(grid, max_retries, allow_global):
    """The one-agent-at-a-time scheduler: every agent, in ascending id
    order, is stepped alone, as a stack of one, each round.  Returns
    ``(trace, agents, rounds, verdict)`` as ``run_dsa`` would."""
    config = protocol.ProtocolConfig(max_retries=max_retries, allow_global=allow_global)
    specs = certify.resolve_pole_specs(grid)
    states = {s.bus: protocol.AgentState(id=s.bus, model=s, poles=tuple(specs[s.bus]))
              for s in gridmodel.build_subsystems(grid)}
    operator = protocol.OperatorState(expected=tuple(sorted(states)))
    trace, pending = [], []
    for rnd in range(10_000):
        inboxes = {}
        for m in pending:
            for a in (states if m.to == protocol.BROADCAST else [m.to]):
                inboxes.setdefault(a, []).append(m)
        produced = []
        for a in sorted(states):
            (states[a],), (out,) = protocol.step_agents([states[a]], [inboxes.get(a, [])],
                                                        config, rnd)
            produced.extend(out)
        produced.sort(key=canonical_key)
        operator, op_out = protocol.operator_step(
            operator, [m for m in produced if m.to == protocol.OPERATOR], rnd)
        produced.extend(op_out)
        trace.extend(produced)
        pending = [m for m in produced if m.to != protocol.OPERATOR]
        if not pending:
            if operator.verdict is not None:
                verdict = certify.STABLE if operator.verdict else certify.INCONCLUSIVE
                return trace, states, rnd + 1, verdict
            if not produced and not any(st.has_work() for st in states.values()):
                operator, pending = protocol._finalize_operator(operator, rnd)
                trace.extend(pending)
    raise AssertionError("the sequential scheduler did not terminate")


class TestRoundStep:
    """A round runs as one stacked design pass and one stacked row pass;
    the run equals that of the one-agent-at-a-time scheduler."""

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    @pytest.mark.parametrize("allow_global", [True, False])
    @pytest.mark.parametrize("retries", [0, 2, 10])
    def test_matches_sequential_scheduler(self, three_bus, rng, variant, allow_global,
                                          retries):
        # on the ring, agents that retry, escalate and re-evaluate on a
        # neighbor's new share meet in one round's stacks; the final designs
        # carry what either row kind reads
        grids = [three_bus, make_grid(*ring_grid_tuples(rng, 30))]
        grids += [make_grid(*random_grid_tuples(rng)) for _ in range(4)]
        for grid in grids:
            res = protocol.run_dsa(grid, max_retries=retries, allow_global=allow_global)
            trace, agents, rounds, verdict = sequential_dsa(grid, retries, allow_global)
            assert res.trace_lines(full=True) == [m.to_json_line(full=True) for m in trace]
            assert res.trace_lines() == [m.to_json_line() for m in trace]
            assert (res.rounds, res.verdict) == (rounds, verdict)
            assert res.agents.keys() == agents.keys()
            for a, want in agents.items():
                got = res.agents[a]
                assert got.report == want.report
                assert (got.poles, got.retry_count, got.escalated, got.verdict) == (
                    want.poles, want.retry_count, want.escalated, want.verdict)
                assert np.array_equal(got.gains.local, want.gains.local)
                assert got.gains.global_.keys() == want.gains.global_.keys()
                for j, k in want.gains.global_.items():
                    assert np.array_equal(got.gains.global_[j], k)
            final = [res.agents[a] for a in sorted(agents)]
            assert_rows_replay(final, [agents[a] for a in sorted(agents)],
                               [st.escalated for st in final], variant)

    @pytest.mark.parametrize("retries", [0, 2, 10])
    def test_rounds_are_produced_in_canonical_order(self, three_bus, rng, retries):
        # run_dsa does not sort a round: agents step in ascending id order and
        # each sends its shares to its neighbors in ascending order, or its
        # one status; the operator's messages close the round
        grids = [three_bus, make_grid(*ring_grid_tuples(rng, 30))]
        grids += [make_grid(*random_grid_tuples(rng)) for _ in range(4)]
        for grid in grids:
            for allow_global in (True, False):
                res = protocol.run_dsa(grid, max_retries=retries, allow_global=allow_global)
                rounds = {}
                for m in res.trace:
                    rounds.setdefault(m.round, []).append(m)
                for msgs in rounds.values():
                    agents = [m for m in msgs if m.sender != protocol.OPERATOR]
                    assert msgs[:len(agents)] == agents
                    keys = [canonical_key(m) for m in agents]
                    assert keys == sorted(keys) and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("variant", [certify.VARIANT_TRANSFORMED,
                                         certify.VARIANT_ORIGINAL])
    def test_round_equals_agents_stepped_alone(self, three_bus, variant):
        # one round whose row stack mixes an escalated agent with local-only ones
        cfg = protocol.ProtocolConfig()
        stepped = [protocol.step_agents([self._fresh(three_bus, b)], [[]], cfg, 0)
                   for b in three_bus.bus_ids]
        mail = [m for _, (out,) in stepped for m in out]
        states = [st for (st,), _ in stepped]
        states[1] = replace(states[1], escalated=True)
        inboxes = [[m for m in mail if m.to == st.id] for st in states]
        got, outs = protocol.step_agents(states, inboxes, cfg, 1)
        wants = []
        for st, inbox, g, out in zip(states, inboxes, got, outs):
            (want,), (want_out,) = protocol.step_agents([st], [inbox], cfg, 1)
            wants.append(want)
            assert out == want_out and len(out) == 1
            assert g.report == want.report
            assert (g.escalated, g.needs_evaluation) == (want.escalated, want.needs_evaluation)
            assert g.gains.global_.keys() == want.gains.global_.keys()
            assert bool(g.gains.global_) == (st.id == 2)
            for j, k in want.gains.global_.items():
                assert np.array_equal(g.gains.global_[j], k)
        # the rows were evaluated with the flags the agents held on entry
        assert_rows_replay(got, wants, [st.escalated for st in states], variant)

    def _fresh(self, grid, bus, **model):
        sub = next(s for s in gridmodel.build_subsystems(grid) if s.bus == bus)
        return protocol.AgentState(id=bus, model=replace(sub, **model),
                                   poles=tuple(grid.generator(bus).poles))

    def _designed(self, grid, bus, cfg):
        (st,), _ = protocol.step_agents([self._fresh(grid, bus)], [[]], cfg, 0)
        return st

    def assert_round_raises(self, states, inboxes, cfg, exc_type, text):
        # the round raises what stepping the agents one by one raises first
        with pytest.raises(exc_type) as info:
            protocol.step_agents(states, inboxes, cfg, 1)
        assert str(info.value) == text
        with pytest.raises(exc_type) as first:
            for st, inbox in zip(states, inboxes):
                protocol.step_agents([st], [inbox], cfg, 1)
        assert str(first.value) == text

    def test_lower_ingest_error_wins_over_higher_design_error(self, three_bus):
        cfg = protocol.ProtocolConfig()
        forged = protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0, {"beta": 0.0})
        states = [self._designed(three_bus, 1, cfg), self._fresh(three_bus, 3, B=np.zeros(3))]
        self.assert_round_raises(states, [[forged], []], cfg, ProtocolViolation,
                                 "agent 1 got share 0.0 from 2")

    def test_lower_design_error_wins_over_higher_ingest_error(self, three_bus):
        from gridcert.errors import Uncontrollable
        cfg = protocol.ProtocolConfig()
        forged = protocol.Message(protocol.SHARE_FACTOR, 2, 3, 0, {"beta": -1.0})
        states = [self._fresh(three_bus, 1, B=np.zeros(3)), self._designed(three_bus, 3, cfg)]
        self.assert_round_raises(states, [[], [forged]], cfg, Uncontrollable,
                                 "agent 1: controllability matrix is rank deficient")

    def test_lower_row_error_wins_over_higher_design_error(self, three_bus):
        from gridcert.errors import CertificateInvalid
        cfg = protocol.ProtocolConfig()
        unstable, = linalg.modal_decompose([np.diag([0.5, -1.0, -2.0])])
        # agents 1 and 2 hold every neighbor's share, so their rows are due
        due = [replace(st, received_shares=dict.fromkeys(st.model.couplings, 1.0))
               for st in (self._designed(three_bus, b, cfg) for b in (1, 2))]
        states = [due[0], replace(due[1], transform=unstable),
                  self._fresh(three_bus, 3, B=np.zeros(3))]
        self.assert_round_raises(states, [[], [], []], cfg, CertificateInvalid,
                                 "agent 2: modal form is not Hurwitz")


class TestTraceSerialization:
    def test_digest_and_full_lines(self, three_bus):
        res = protocol.run_dsa(three_bus)
        import json
        short = json.loads(res.trace_lines()[0])
        assert set(short) == {"round", "from", "to", "kind", "digest"}
        full = json.loads(res.trace_lines(full=True)[0])
        assert set(full) == {"round", "from", "to", "kind", "payload"}
