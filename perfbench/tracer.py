"""Per-layer timing from outside the program.

``Tracer.install`` replaces the public functions of the gridcert modules
(and a few public methods) by wrappers at every module attribute that binds
them, so a name imported into another module (``certify.spectral_norm``,
``protocol.spectral_norm`` ...) is timed as the same layer.  The dense
eigenvalue oracle is ``numpy.linalg.eigvals`` called on a full-order
matrix; smaller calls pass through and count toward their caller.

While a step runs inside ``Tracer.step``, each wrapped call adds to its
name's call count, total time and self time (its duration minus the time
of wrapped calls it made).  Outside a step the wrappers only forward, and
``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYER_MODULES = ("gridmodel", "control", "linalg", "certify", "protocol", "sim", "cli")
METHODS = (
    ("protocol", "Message", "digest"),
    ("protocol", "Message", "to_json_line"),
    ("protocol", "DsaResult", "trace_lines"),
    ("sim", "SimResult", "to_csv"),
)
ORACLE = "oracle"


class Tracer:
    def __init__(self, full_order, clock=perf_counter):
        self.full_order = full_order    # order of A_full: 3 x buses
        self.clock = clock              # seconds; may leave out the speed probes
        self.active = False
        self.steps = {}                 # step -> {name: [calls, total_s, self_s]}
        self.step_wall = {}             # step -> wall time around the root call
        self._stats = None
        self._stack = []
        self._patches = []              # (owner, attribute, original)

    def _record(self, name, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.clock() - t0
            child = stack.pop()
            stack[-1] += dur
            s = self._stats.get(name)
            if s is None:
                s = self._stats[name] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)
        return wrapper

    def _wrap_oracle(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.active and np.shape(a) == (self.full_order, self.full_order):
                return self._record(ORACLE, fn, (a,) + args, kwargs)
            return fn(a, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the layer functions of ``package`` (the imported gridcert)."""
        modules = [getattr(package, m) for m in LAYER_MODULES]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, name, wrapper)
        for mod, cls, attr in METHODS:
            owner = getattr(getattr(package, mod), cls)
            self._patch(owner, attr, self._wrap(f"{mod}.{cls}.{attr}", vars(owner)[attr]))
        self._patch(np.linalg, "eigvals", self._wrap_oracle(np.linalg.eigvals))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def step(self, name):
        """Trace the calls made inside the block under step ``name``."""
        self._stats = self.steps.setdefault(name, {})
        self._stack = [0.0]
        self.active = True
        t0 = self.clock()
        try:
            yield
        finally:
            self.step_wall[name] = self.clock() - t0
            self.active = False

    def take(self):
        """Return ``(steps, step_wall)`` recorded so far and start afresh."""
        taken = self.steps, self.step_wall
        self.steps, self.step_wall = {}, {}
        return taken


def totals(steps):
    """{name: [calls, total_s, self_s]} summed over the steps of ``take()``."""
    out = {}
    for stats in steps.values():
        for name, (calls, total, self_s) in stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    return out
