import json
import os

import hypothesis
import numpy as np
import pytest

import gridcert
from gridcert import gridmodel
from gridcert.data import three_bus_path

# child interpreters import the same gridcert as this one, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(gridcert.__file__))

# GRIDCERT_SEED pins every randomized sampling in the suite
SEED = int(os.environ.get("GRIDCERT_SEED", "20260809"))

# hypothesis draws from SEED too, and keeps no example database, whose
# replays of earlier failures would make a run depend on the runs before it
hypothesis.settings.register_profile("gridcert", database=None)
hypothesis.settings.load_profile("gridcert")


def pytest_collection_modifyitems(items):
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)   # a method: its function
        if getattr(test, "is_hypothesis_test", False):
            hypothesis.seed(SEED)(test)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def three_bus():
    return gridmodel.load_grid(three_bus_path())


def child_env(**extra):
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def make_grid(gens, lines, disturbances=(), f=60.0):
    """Grid from terse tuples: gens (bus, M, D, T_T[, poles]), lines (i, j, X)."""
    doc = {"base_frequency_hz": f, "generators": [], "lines": [], "disturbances": []}
    for g in gens:
        item = {"bus": g[0], "M": g[1], "D": g[2], "T_T": g[3]}
        if len(g) > 4:
            item["control"] = list(g[4])
        doc["generators"].append(item)
    for i, j, X in lines:
        doc["lines"].append({"from": i, "to": j, "X": X})
    for bus, mag, t0 in disturbances:
        doc["disturbances"].append({"bus": bus, "delta_PL": mag, "t_step": t0})
    return gridmodel.parse_grid(json.dumps(doc))
