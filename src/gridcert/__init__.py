"""Compositional small-signal stability assessment for interconnected grids.

The toolkit designs local (pole-placement) and global (coupling-minimizing)
feedback for per-bus swing/turbine models, evaluates per-agent M-matrix
row conditions in original or modal coordinates, simulates the distributed
certification protocol between bus agents and a system operator, and
cross-checks every verdict against a full-system eigenvalue oracle.

Each submodule is imported on first attribute access (PEP 562), so
``import gridcert.gridmodel`` loads the parser without the other modules.
"""

__version__ = "0.1.0"

from .errors import GridcertError  # noqa: F401

_SUBMODULES = ("certify", "control", "gridmodel", "linalg", "protocol", "sim")


def __getattr__(name):
    if name in _SUBMODULES:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
