import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_grid
from gridcert import certify, gridmodel, linalg, protocol
from gridcert.errors import ProtocolViolation
from sampling import random_grid_tuples

ALLOWED_PAYLOAD_KEYS = {
    protocol.SHARE_FACTOR: {"beta"},
    protocol.CONDITION_STATUS: {"met"},
    protocol.OPERATOR_VERDICT: {"stable"},
}


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
                assert beta == certify.share(res.agents[m.sender].transform)
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


class TestAgentStep:
    def _fresh(self, grid, bus):
        subs = {s.bus: s for s in gridmodel.build_subsystems(grid)}
        return subs, protocol.AgentState(
            id=bus, model=subs[bus], poles=tuple(grid.generator(bus).poles))

    def test_designing_emits_share_pairs(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        st2, out = protocol.agent_step(st, [], cfg, 0)
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
        st, _ = protocol.agent_step(st, [], cfg, 0)
        mt2 = linalg.modal_decompose(np.diag([-1.0, -2.0, -3.0]))
        inbox = [protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0,
                                  {"beta": certify.share(mt2)})]
        st2, out = protocol.agent_step(st, inbox, cfg, 1)
        assert not st2.designing and st2.needs_evaluation
        assert out == []

    def test_weak_coupling_reports_met(self):
        grid = make_grid(
            [(1, 8.0, 1.0, 0.9, [-22, -39, -43]),
             (2, 12.0, 1.0, 1.0, [-24, -43, -37])],
            [(1, 2, 500.0)])   # enormous reactance: negligible coupling
        subs, st = self._fresh(grid, 1)
        cfg = protocol.ProtocolConfig()
        st, _ = protocol.agent_step(st, [], cfg, 0)
        mt2 = linalg.modal_decompose(np.diag([-1.0, -2.0, -3.0]))
        inbox = [protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0,
                                  {"beta": certify.share(mt2)})]
        st2, out = protocol.agent_step(st, inbox, cfg, 1)
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
        st, _ = protocol.agent_step(st, [], cfg, 0)
        inbox = []
        for j in (2, 3):
            _, mt = certify.design_agent(subs[j], three_bus.generator(j).poles)
            inbox.append(protocol.Message(protocol.SHARE_FACTOR, j, 1, 0,
                                          {"beta": certify.share(mt)}))
        st_failed, out = protocol.agent_step(st, inbox, cfg, 1)
        assert out[0].payload["met"] is False
        assert st_failed.escalated and st_failed.gains.global_ == {}
        st_after, out = protocol.agent_step(st_failed, [], cfg, 2)
        assert out[0].payload["met"] is True
        assert set(st_after.gains.global_) == {2, 3}
        assert st_failed.gains.global_ == {}   # snapshot untouched

    def test_rejects_share_from_non_neighbor(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        st, _ = protocol.agent_step(st, [], cfg, 0)
        bad = protocol.Message(protocol.SHARE_FACTOR, 99, 1, 0, {"beta": 1.0})
        with pytest.raises(ProtocolViolation):
            protocol.agent_step(st, [bad], cfg, 1)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, "1.0", 1])
    def test_rejects_malformed_share(self, three_bus, beta):
        # a share is the norm of a row of an invertible transform: a finite
        # float > 0; a forged 0 or negative share would meet any row
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        st, _ = protocol.agent_step(st, [], cfg, 0)
        bad = protocol.Message(protocol.SHARE_FACTOR, 2, 1, 0, {"beta": beta})
        with pytest.raises(ProtocolViolation, match="agent 1 got share .* from 2"):
            protocol.agent_step(st, [bad], cfg, 1)

    def test_rejects_share_coupling(self, three_bus):
        # an agent holds its own incoming couplings; a neighbor that ships
        # one breaks the protocol
        subs, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        st, _ = protocol.agent_step(st, [], cfg, 0)
        bad = protocol.Message("ShareCoupling", 2, 1, 0,
                               {"block": subs[1].couplings[2]})
        with pytest.raises(ProtocolViolation, match="cannot handle ShareCoupling"):
            protocol.agent_step(st, [bad], cfg, 1)

    def test_uncontrollable_aborts_with_agent_id(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        st = replace(st, model=replace(st.model, B=np.zeros(3)))
        from gridcert.errors import Uncontrollable
        with pytest.raises(Uncontrollable, match="agent 1"):
            protocol.agent_step(st, [], protocol.ProtocolConfig(), 0)

    def test_rejects_malformed_kind(self, three_bus):
        _, st = self._fresh(three_bus, 1)
        cfg = protocol.ProtocolConfig()
        bad = protocol.Message("StateSample", 2, 1, 0,
                               {"x": np.zeros(3), "t": 0.0})
        with pytest.raises(ProtocolViolation):
            protocol.agent_step(st, [bad], cfg, 0)


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
        for variant in (certify.VARIANT_TRANSFORMED, certify.VARIANT_ORIGINAL):
            dsa = protocol.run_dsa(three_bus, variant=variant)
            cen = certify.assess_grid(three_bus, use_global=True, variant=variant)
            for bus in three_bus.bus_ids:
                assert dsa.agents[bus].escalated
                assert_matches_centralized(dsa.agents[bus], cen)

    def test_matches_centralized_on_random_grids(self, rng):
        escalated = 0
        for _ in range(6):
            grid = make_grid(*random_grid_tuples(rng))
            for variant in (certify.VARIANT_TRANSFORMED, certify.VARIANT_ORIGINAL):
                dsa = protocol.run_dsa(grid, variant=variant)
                cen = certify.assess_grid(grid, use_global=True, variant=variant)
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

    def test_original_variant_more_conservative(self, three_bus):
        # the original-coordinates row test stays infeasible here even after
        # escalation; the relaxed modal variant certifies the same grid
        res = protocol.run_dsa(three_bus, variant="original")
        assert res.verdict == certify.INCONCLUSIVE
        assert all(r.variant == "original" for r in res.reports)
        assert protocol.run_dsa(three_bus).verdict == certify.STABLE

    def test_original_variant_sends_no_shares(self, three_bus):
        # the original row reads nothing of a neighbor, so agents share
        # nothing and evaluate in the round after they design
        res = protocol.run_dsa(three_bus, variant="original")
        assert not any(m.kind == protocol.SHARE_FACTOR for m in res.trace)
        assert len(res.trace) == 7
        counts = kind_counts(res.trace)
        assert counts[(1, protocol.CONDITION_STATUS)] == 3
        assert counts[(2, protocol.CONDITION_STATUS)] == 3
        assert res.rounds == 5

class TestTraceSerialization:
    def test_digest_and_full_lines(self, three_bus):
        res = protocol.run_dsa(three_bus)
        import json
        short = json.loads(res.trace_lines()[0])
        assert set(short) == {"round", "from", "to", "kind", "digest"}
        full = json.loads(res.trace_lines(full=True)[0])
        assert set(full) == {"round", "from", "to", "kind", "payload"}
