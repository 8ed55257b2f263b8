import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, make_grid
from gridcert import control, gridmodel
from gridcert.data import three_bus_path
from gridcert.errors import GridFormatError, InvalidInput
from sampling import line_block

WB = 2.0 * math.pi * 60.0


class TestParse:
    def test_three_bus(self, three_bus):
        assert three_bus.omega_b == pytest.approx(WB)
        assert three_bus.bus_ids == [1, 2, 3]
        assert len(three_bus.lines) == 3
        assert three_bus.lines[0] == gridmodel.Line(from_bus=1, to_bus=2, X=0.4)
        assert three_bus.generator(2).T_T == 1.0
        assert three_bus.disturbances[0].delta_PL == 0.1
        assert three_bus.generator(1).poles == [-22, -39, -43]

    def test_single_bus_no_lines(self):
        g = make_grid([(7, 5.0, 1.0, 0.8, [[-2.0, 3.0], [-2.0, -3.0], -5.0])], [])
        assert g.bus_ids == [7]
        assert g.generator(7).poles == [complex(-2, 3), complex(-2, -3), complex(-5)]
        subs = gridmodel.build_subsystems(g)
        assert subs[0].couplings == {}
        assert subs[0].A_hat[1, 0] == 0.0

    def test_zero_reactance(self):
        with pytest.raises(GridFormatError, match=r"\$\.lines\[0\]\.X: nonpositive reactance"):
            make_grid([(1, 8, 1, 0.9), (2, 12, 1, 1.0)], [(1, 2, 0.0)])

    @pytest.mark.parametrize("gens,lines,msg", [
        ([(1, 8, 1, 0.9)], [(1, 9, 0.4)], "unknown bus 9"),
        ([(1, 8, 1, 0.9)], [(1, 1, 0.4)], "self-loop"),
        ([(1, 8, 1, 0.9), (2, 12, 1, 1.0)],
         [(1, 2, 0.4), (2, 1, 0.5)], "duplicate line"),
        ([(1, 8, 1, 0.9), (1, 12, 1, 1.0)], [], "duplicate generator"),
        ([(1, -8, 1, 0.9)], [], "nonpositive inertia"),
        ([(1, 8, 1, 0.0)], [], "nonpositive turbine"),
        ([(1, 8, -1, 0.9)], [], "negative damping"),
    ])
    def test_invariant_violations(self, gens, lines, msg):
        with pytest.raises(GridFormatError, match=msg):
            make_grid(gens, lines)

    def test_structural_errors(self):
        with pytest.raises(GridFormatError, match="invalid JSON"):
            gridmodel.parse_grid("{nope")
        with pytest.raises(GridFormatError, match="root must be an object"):
            gridmodel.parse_grid("[1]")
        with pytest.raises(GridFormatError, match=r"\$\.generators\[0\]\.M: missing"):
            gridmodel.parse_grid(json.dumps(
                {"base_frequency_hz": 60, "generators": [{"bus": 1, "D": 1, "T_T": 1}]}))
        with pytest.raises(GridFormatError, match="expected number"):
            gridmodel.parse_grid(json.dumps(
                {"base_frequency_hz": 60,
                 "generators": [{"bus": 1, "M": "big", "D": 1, "T_T": 1}]}))
        with pytest.raises(GridFormatError, match="pole must be"):
            gridmodel.parse_grid(json.dumps(
                {"base_frequency_hz": 60,
                 "generators": [{"bus": 1, "M": 1, "D": 1, "T_T": 1,
                                 "control": ["fast"]}]}))
        with pytest.raises(GridFormatError, match="unknown bus"):
            gridmodel.parse_grid(json.dumps(
                {"base_frequency_hz": 60,
                 "generators": [{"bus": 1, "M": 1, "D": 1, "T_T": 1}],
                 "disturbances": [{"bus": 2, "delta_PL": 0.1, "t_step": 0.0}]}))

    def test_nonfinite_numbers_rejected(self):
        with pytest.raises(GridFormatError, match="non-finite"):
            gridmodel.parse_grid('{"base_frequency_hz": 60, "generators": '
                                 '[{"bus": 1, "M": Infinity, "D": 1, "T_T": 1}]}')
        with pytest.raises(GridFormatError, match="non-finite"):
            gridmodel.parse_grid('{"base_frequency_hz": 60, "generators": '
                                 '[{"bus": 1, "M": 1, "D": 1, "T_T": 1, '
                                 '"control": [NaN]}]}')

    @pytest.mark.parametrize("text,message", [
        ('{"base_frequency_hz": 1%s}' % ("0" * 400), "$.base_frequency_hz: non-finite number"),
        ('{"base_frequency_hz": 1%s}' % ("0" * 5000), "$: invalid JSON: "),
        ("[" * 100000 + "]" * 100000, "$: invalid JSON: "),
        ('{"base_frequency_hz": 60, "generators": [{"bus": 1, "M": 1, "D": 1, "T_T": 1, '
         '"control": [[-1, 1%s], -2, -3]}]}' % ("0" * 400),
         "$.generators[0].control[0]: non-finite pole"),
        ('{"base_frequency_hz": 60, "generators": [{"bus": 1, "M": 1, "D": 1, "T_T": 1, '
         '"control": {}}]}', "$.generators[0].control: expected list, got dict"),
    ])
    def test_out_of_range_numbers_and_nesting(self, text, message):
        with pytest.raises(GridFormatError) as exc:
            gridmodel.parse_grid(text)
        assert str(exc.value).startswith(message)

    def test_parse_loads_no_other_gridcert_module(self):
        # a fresh interpreter parsing a grid compiles only what the parse uses
        code = ("import sys, gridcert.gridmodel as gm; gm.load_grid(sys.argv[1]); "
                "print(*(m for m in sys.modules if m.split('.')[0] == 'gridcert'))")
        proc = subprocess.run([sys.executable, "-c", code, three_bus_path()],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) == {"gridcert", "gridcert.errors", "gridcert.gridmodel"}


class TestBuildSubsystems:
    def test_bus1_entries(self, three_bus):
        sub = gridmodel.build_subsystems(three_bus)[0]
        # arithmetic straight from the swing/turbine equations
        assert sub.A_hat[1, 0] == pytest.approx(-(WB / 8.0) * (1 / 0.4 + 1 / 0.5))
        assert sub.A_hat[1, 0] == pytest.approx(-212.0575, abs=5e-4)
        assert sub.A_hat[0, 1] == 1.0
        assert sub.A_hat[1, 1] == pytest.approx(-1.0 / 8.0)
        assert sub.A_hat[1, 2] == pytest.approx(WB / 8.0)
        assert sub.A_hat[2, 2] == pytest.approx(-1.0 / 0.9)
        assert sub.B[2] == pytest.approx(1.0 / 0.9)
        assert sub.F[1] == pytest.approx(-WB / 8.0)
        assert sub.couplings[2] == (WB / 8.0) / 0.4
        assert sub.couplings[2] == pytest.approx(117.810, abs=5e-4)

    def test_zero_pattern(self, three_bus):
        for sub in gridmodel.build_subsystems(three_bus):
            A = sub.A_hat
            assert A[0, 0] == A[0, 2] == A[2, 0] == A[2, 1] == 0.0
            assert A[0, 1] == 1.0
            assert sub.B[0] == sub.B[1] == 0.0
            assert sub.F[0] == sub.F[2] == 0.0
            for c in sub.couplings.values():
                assert type(c) is float and c > 0.0

    @pytest.mark.parametrize("attr", ["A_hat", "B", "F"])
    def test_models_are_read_only(self, three_bus, attr):
        # the buses' matrices are rows of one stack: a write into one bus's
        # model raises instead of reaching another bus
        subs = gridmodel.build_subsystems(three_bus)
        before = [getattr(s, attr).copy() for s in subs]
        with pytest.raises(ValueError, match="read-only"):
            getattr(subs[0], attr)[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(subs[1], attr)[0] += 1.0
        for s, b in zip(subs, before):
            assert np.array_equal(getattr(s, attr), b)

    @pytest.mark.parametrize("gens, lines, message", [
        ([(1, 5e-324, 1.0, 0.9), (2, 8.0, 1.0, 0.9)], [(1, 2, 0.4)], "bus 1: wb/M overflows"),
        ([(1, 8.0, 1.0, 0.9), (2, 1e-300, 1e10, 0.9)], [(1, 2, 0.4)], "bus 2: D/M overflows"),
        ([(1, 8.0, 1.0, 0.9), (2, 8.0, 1.0, 5e-324)], [(1, 2, 0.4)], "bus 2: 1/T_T overflows"),
        ([(1, 8.0, 1.0, 0.9), (2, 8.0, 1.0, 0.9)], [(1, 2, 5e-324)],
         "bus 1: (wb/M) sum_j(1/X_ij) overflows"),
        ([(1, 1e-300, 0.0, 0.9), (2, 8.0, 1.0, 0.9)], [(1, 2, 1e-6)],
         "bus 1: (wb/M) sum_j(1/X_ij) overflows"),   # each factor is finite
    ], ids=["M", "D", "T_T", "X", "M-and-X"])
    def test_overflowing_entry_named(self, gens, lines, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            gridmodel.build_subsystems(make_grid(gens, lines))

    def test_symmetric_coupling_magnitudes(self, three_bus):
        subs = {s.bus: s for s in gridmodel.build_subsystems(three_bus)}
        for ln in three_bus.lines:
            i, j = ln.from_bus, ln.to_bus
            lhs = subs[i].couplings[j] * three_bus.generator(i).M
            rhs = subs[j].couplings[i] * three_bus.generator(j).M
            assert lhs == pytest.approx(rhs)
            assert lhs == pytest.approx(WB / ln.X)


class TestAssemble:
    def test_zero_gains_blocks(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        A = gridmodel.assemble_full(subs, {})
        for k, sub in enumerate(subs):
            assert np.array_equal(A[3 * k:3 * k + 3, 3 * k:3 * k + 3], sub.A_hat)
        assert np.array_equal(A[3:6, 0:3], line_block(subs[1].couplings[1]))
        # single isolated bus: assembly is just its open-loop matrix
        g1 = make_grid([(1, 8, 1, 0.9)], [])
        s1 = gridmodel.build_subsystems(g1)
        assert np.array_equal(gridmodel.assemble_full(s1, {}), s1[0].A_hat)

    def test_decoupled_spectrum_is_union(self):
        g = make_grid([(1, 8.0, 1.0, 0.9), (2, 12.0, 1.0, 1.0)], [])
        subs = gridmodel.build_subsystems(g)
        gains = {}
        locals_ = {1: [-2.0, -3.0, -4.0], 2: [-1.0, -5.0, -6.0]}
        for sub in subs:
            K, = control.pole_place([sub.A_hat], [sub.B], [locals_[sub.bus]])
            gains[sub.bus] = control.GainSet(local=K)
        A = gridmodel.assemble_full(subs, gains)
        assert np.allclose(A[0:3, 3:6], 0.0)
        assert np.allclose(A[3:6, 0:3], 0.0)
        got = np.sort(np.linalg.eigvals(A).real)
        assert np.allclose(got, sorted(locals_[1] + locals_[2]), atol=1e-8)

    def test_closed_loop_blocks(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        gains = {s.bus: control.GainSet(local=np.array([1.0, 2.0, 3.0]))
                 for s in subs}
        gains[1].global_[2] = np.array([0.5, 0.0, 0.0])
        A = gridmodel.assemble_full(subs, gains)
        expect_diag = subs[0].A_hat - np.outer(subs[0].B, [1.0, 2.0, 3.0])
        assert np.allclose(A[0:3, 0:3], expect_diag)
        expect_off = line_block(subs[0].couplings[2]) - np.outer(subs[0].B, [0.5, 0.0, 0.0])
        assert np.allclose(A[0:3, 3:6], expect_off)

    def test_unknown_neighbor_rejected(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        gains = {1: control.GainSet(local=np.zeros(3))}
        gains[1].global_[9] = np.zeros(3)
        with pytest.raises(InvalidInput):
            gridmodel.assemble_full(subs, gains)

    def test_global_gain_off_the_lines_rejected(self):
        # buses 1 and 2 share no line, so no block carries a gain 1 -> 2
        g = make_grid([(1, 8.0, 1.0, 0.9), (2, 12.0, 1.0, 1.0)], [])
        subs = gridmodel.build_subsystems(g)
        gains = {1: control.GainSet(local=np.zeros(3), global_={2: np.zeros(3)})}
        with pytest.raises(InvalidInput, match=r"global gain 1->2 is not on a line of bus 1"):
            gridmodel.assemble_full(subs, gains)

    def test_gain_shape_located(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        with pytest.raises(InvalidInput, match=r"local gain for bus 2 has shape \(2,\)"):
            gridmodel.assemble_full(subs, {2: control.GainSet(local=np.zeros(2))})
        gains = {1: control.GainSet(local=np.zeros(3), global_={3: np.zeros((3, 1))})}
        with pytest.raises(InvalidInput, match=r"global gain 1->3 has shape \(3, 1\)"):
            gridmodel.assemble_full(subs, gains)

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 0.0], [0.0, np.inf, 0.0], [0.0, "a", 0.0],
                                     [0.0, 1j, 0.0]])
    def test_non_finite_or_non_real_gain_located(self, three_bus, bad):
        subs = gridmodel.build_subsystems(three_bus)
        with pytest.raises(InvalidInput, match=r"local gain for bus 2 must be finite real"):
            gridmodel.assemble_full(subs, {2: control.GainSet(local=bad)})
        gains = {1: control.GainSet(local=np.zeros(3), global_={3: bad})}
        with pytest.raises(InvalidInput, match=r"global gain 1->3 must be finite real"):
            gridmodel.assemble_full(subs, gains)

    def test_disturbance_matrix(self, three_bus):
        subs = gridmodel.build_subsystems(three_bus)
        F = gridmodel.disturbance_matrix(subs)
        assert F.shape == (9, 3)
        assert F[1, 0] == pytest.approx(-WB / 8.0)
        assert F[4, 1] == pytest.approx(-WB / 12.0)
        assert np.count_nonzero(F) == 3
