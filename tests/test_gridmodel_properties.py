"""Property tests of grid parsing and the grid index on random documents."""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gridcert import gridmodel
from gridcert.errors import GridFormatError, InvalidInput

SETTINGS = settings(max_examples=60, deadline=None, database=None)

positive = st.floats(min_value=0.05, max_value=50.0)
pole = st.one_of(
    st.floats(min_value=-80.0, max_value=-0.1),
    st.lists(st.floats(min_value=-80.0, max_value=20.0), min_size=2, max_size=2))


@st.composite
def grid_docs(draw, max_buses=10):
    """Valid grid documents: non-contiguous buses, lines in either orientation."""
    buses = draw(st.lists(st.integers(-50, 200), min_size=1, max_size=max_buses, unique=True))
    generators = []
    for bus in buses:
        item = {"bus": bus, "M": draw(positive), "D": draw(st.floats(0.0, 5.0)),
                "T_T": draw(positive)}
        if draw(st.booleans()):
            item["control"] = draw(st.lists(pole, min_size=3, max_size=3))
        generators.append(item)
    pairs = [(i, j) for k, i in enumerate(buses) for j in buses[k + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=15)) if pairs else []
    lines = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        lines.append({"from": i, "to": j, "X": draw(positive)})
    disturbances = draw(st.lists(st.fixed_dictionaries({
        "bus": st.sampled_from(buses),
        "delta_PL": st.floats(-1.0, 1.0),
        "t_step": st.floats(0.0, 10.0),
    }), max_size=3))
    return {"base_frequency_hz": draw(st.sampled_from([50.0, 60.0])),
            "generators": generators, "lines": lines, "disturbances": disturbances}


# Reference lookups: a full scan of the generator and line lists per call.

def scan_generator(grid, bus):
    for g in grid.generators:
        if g.bus == bus:
            return g
    raise InvalidInput(f"no generator at bus {bus}")


def scan_neighbors(grid, bus):
    out = set()
    for ln in grid.lines:
        if ln.from_bus == bus:
            out.add(ln.to_bus)
        elif ln.to_bus == bus:
            out.add(ln.from_bus)
    return sorted(out)


def scan_reactance(grid, i, j):
    for ln in grid.lines:
        if (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus)) == (min(i, j), max(i, j)):
            return ln.X
    raise InvalidInput(f"no line between buses {i} and {j}")


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except InvalidInput as exc:
        return "error", str(exc)


@SETTINGS
@given(grid_docs())
def test_index_agrees_with_scan(doc):
    grid = gridmodel.parse_grid(json.dumps(doc))
    assert grid.bus_ids == sorted(g.bus for g in grid.generators)
    probe = grid.bus_ids + [max(grid.bus_ids) + 1]   # plus one unknown bus
    for i in probe:
        assert outcome(grid.generator, i) == outcome(scan_generator, grid, i)


@SETTINGS
@given(grid_docs())
def test_subsystems_match_scanned_formula(doc):
    grid = gridmodel.parse_grid(json.dumps(doc))
    wb = grid.omega_b
    for sub in gridmodel.build_subsystems(grid):
        g = scan_generator(grid, sub.bus)
        nbrs = scan_neighbors(grid, sub.bus)
        # same summation order as the scan, so the entries are bit-equal
        total = sum(1.0 / scan_reactance(grid, sub.bus, j) for j in nbrs)
        assert sub.A_hat[1, 0] == -(wb / g.M) * total
        assert list(sub.couplings) == nbrs
        for j in nbrs:
            assert sub.couplings[j] == (wb / g.M) / scan_reactance(grid, sub.bus, j)


# values of the wrong type or range for some field: non-lists, huge integers,
# non-finite floats, lists of the wrong length
WRONG_VALUES = [None, True, 0, -1, 5, 10 ** 400, float("inf"), float("nan"), "x",
                [], [1.0, 2.0], [[1.0, 2.0, 3.0]], {}, {"bus": 1}]
DELETE = object()


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _paths(v, prefix + (k,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or removed by DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _perturbations(doc):
    """Every copy of ``doc`` with one value replaced by a wrong one, removed,
    or, for a list, made one entry shorter or longer."""
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        values = WRONG_VALUES + ([DELETE] if path else [])
        if isinstance(node, list):
            values = values + [node[:-1], node + node[:1]]
        for value in values:
            yield _replaced(doc, path, value)


def _parse_or_format_error(data):
    """Parse ``data``; any failure other than GridFormatError propagates."""
    try:
        gridmodel.parse_grid(data)
    except GridFormatError as exc:
        assert str(exc).startswith("$")


@settings(max_examples=20, deadline=None, database=None)
@given(grid_docs(max_buses=3))
def test_perturbed_documents_raise_only_format_errors(doc):
    for bad in _perturbations(doc):
        _parse_or_format_error(json.dumps(bad).encode())


@settings(max_examples=100, deadline=None, database=None)
@given(grid_docs(), st.integers(0, 10 ** 6), st.integers(0, 8), st.binary(max_size=8))
def test_corrupted_bytes_raise_only_format_errors(doc, at, width, noise):
    text = json.dumps(doc).encode()
    at %= len(text) + 1
    _parse_or_format_error(text[:at] + noise + text[at + width:])


@settings(max_examples=100, deadline=None, database=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_raise_only_format_errors(data):
    _parse_or_format_error(data)
