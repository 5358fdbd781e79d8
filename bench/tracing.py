"""Per-layer tracing of axiblow, installed from outside the package.

Every public function of a layer module, and every public method of a
public class defined there, is replaced by a wrapper that records the
call's wall time.  A layer is one module of ``axiblow``.  The wrappers
keep a stack of open spans, so each layer gets a total time (its
outermost spans) and a self time (its spans minus the wrapped calls made
under them).  Nothing inside ``src/`` is changed; the wrappers are
installed by rebinding module and class attributes in this process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("stepper", "poisson", "filters", "fields", "physics", "meshmap",
          "runio", "diagnostics", "fitting")

# Map evaluations run about 90 times per MeshMap.inverse call; timing
# them raised the tracing overhead on postprocess-256 from 3 % to 10 %,
# so their time counts as the self time of their callers instead.
UNTRACED = {"meshmap.density", "meshmap.density_deriv", "meshmap.value",
            "meshmap.deriv", "meshmap.deriv2"}


class Tracer:
    """Span recorder for the wrapped layer functions."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.durations = defaultdict(list)   # "layer.func" -> seconds per call
        self.inverse_points = 0              # points passed to MeshMap.inverse
        self.checkpoint_bytes = []           # size of each written checkpoint
        self.layer_total = defaultdict(float)
        self.layer_self = defaultdict(float)
        self._stack: list = []               # child time of each open span
        self._depth = defaultdict(int)

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        counts_points = key == "meshmap.inverse"
        writes_file = key == "runio.write_checkpoint"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self._stack.pop()
                self._depth[layer] -= 1
                self.durations[key].append(spent)
                self.layer_self[layer] += spent - frame[0]
                if self._depth[layer] == 0:
                    self.layer_total[layer] += spent
                if self._stack:
                    self._stack[-1][0] += spent
                if counts_points:
                    self.inverse_points += int(np.size(args[1]))
                if writes_file:
                    self.checkpoint_bytes.append(os.path.getsize(args[0]))

        return traced

    def install(self):
        """Wrap every layer's public functions and methods in this process."""
        modules = {layer: importlib.import_module(f"axiblow.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{name}" not in UNTRACED:
                    replaced[obj] = self.wrap(layer, name, obj)
                    setattr(mod, name, replaced[obj])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (not meth.startswith("_") and inspect.isfunction(fn)
                                and f"{layer}.{meth}" not in UNTRACED):
                            setattr(obj, meth, self.wrap(layer, meth, fn))
        # Names bound by ``from .module import function`` point at the
        # original objects; rebind them too.
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def metric(self, name: str, rounds: int) -> float:
        """Value of one per-layer metric named as in BENCHMARK.json.

        ``.ms`` is the median wall milliseconds per call; ``.calls`` and
        ``meshmap.inverse.points`` are per round of the workload;
        ``self_ms`` and ``total_ms`` are a layer's milliseconds per round.
        """
        if name.endswith(".self_ms"):
            return 1e3 * self.layer_self[name[:-len(".self_ms")]] / rounds
        if name.endswith(".total_ms"):
            return 1e3 * self.layer_total[name[:-len(".total_ms")]] / rounds
        if name == "stepper.rhs_per_step":
            steps = len(self.durations["stepper.step_rk2"])
            return len(self.durations["stepper.rhs"]) / steps if steps else 0.0
        if name == "runio.checkpoint_bytes":
            return float(np.median(self.checkpoint_bytes)) if self.checkpoint_bytes else 0.0
        if name == "meshmap.inverse.points":
            return self.inverse_points / rounds
        key, _, kind = name.rpartition(".")
        if kind == "ms":
            spans = self.durations[key]
            return 1e3 * float(np.median(spans)) if spans else 0.0
        if kind == "calls":
            return len(self.durations[key]) / rounds
        raise KeyError(f"no rule for per-layer metric {name!r}")
