"""Span recording for the traced run, installed from outside the program.

``Tracer.install`` wraps every public function of the entwit modules, a few
methods the per-layer metrics name, and the numpy kernels they call.  Each
wrapper is bound in every entwit namespace that holds the original, because
``from .operators import embed_pauli`` copies the reference into the
importing module.  Spans (name, start, end, parent) go into flat arrays and
are written once, when the run ends; ``summarize`` turns them into per-name
call counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("operators", "spin_models", "thermo", "work_stats", "witness", "open_system", "cli")
KERNELS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("numpy", "einsum"))
# Container checks run in __post_init__; all of them count as operators.validate.
VALIDATED = ("HermitianOperator", "UnitaryOperator", "DensityMatrix", "SpectralDecomposition")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._distinct_params: set = set()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span called ``name``; ``after(args, kwargs)``
        runs once the call returns, to update counters."""
        nid = self._intern(name)
        module = name.split(".", 1)[0]
        counted_errors = self._counted_errors()
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except counted_errors as err:
                # count an error once, in the innermost layer it passes through
                if not getattr(err, "_perfbench_counted", False):
                    err._perfbench_counted = True
                    self.counters[f"{module}.errors"] += 1
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    @staticmethod
    def _counted_errors() -> tuple:
        from entwit.errors import ConfigError, NumericalCheckError

        return (ConfigError, NumericalCheckError)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"entwit.{name}") for name in MODULES}
        replacements: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                replacements[id(obj)] = self.wrap(f"{short}.{attr}", obj, self._after_hook(f"{short}.{attr}"))
        transition = getattr(modules["work_stats"], "_transition_from_spectra", None)
        if transition is not None:
            replacements[id(transition)] = self.wrap("work_stats.transition", transition)
        for module in [m for n, m in sys.modules.items() if n == "entwit" or n.startswith("entwit.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    setattr(module, attr, replacements[id(obj)])

        # Hooks on names the program may later rename or drop are skipped
        # when the name is gone; their metrics then read 0.
        for cls_name in VALIDATED:
            cls = getattr(modules["operators"], cls_name, None)
            if cls is not None and hasattr(cls, "__post_init__"):
                cls.__post_init__ = self.wrap("operators.validate", cls.__post_init__)
        spec = getattr(modules["thermo"], "ThermalSpec", None)
        if spec is not None and isinstance(vars(spec).get("spectrum"), property):
            self._wrap_spectrum(spec)
        protocol = getattr(modules["witness"], "DetectionProtocol", None)
        for prop in ("initial_spec", "final_spec"):
            getter = vars(protocol).get(prop) if protocol is not None else None
            if isinstance(getter, property):
                setattr(protocol, prop, property(self.wrap("witness.protocol_spec", getter.fget)))

        for module_name, attr in KERNELS:
            module = sys.modules[module_name]
            setattr(module, attr, self.wrap(f"kernel.{attr}", getattr(module, attr), self._after_hook(f"kernel.{attr}")))

    def _after_hook(self, name: str):
        if name == "spin_models.build_xxz":
            def after(args, kwargs):
                self._distinct_params.add(args[0] if args else kwargs["params"])
            return after
        if name == "witness.write_sweep_csv":
            def after(args, kwargs):
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.counters["witness.write_sweep_csv.bytes"] += os.path.getsize(path)
            return after
        if name == "kernel.eigh":
            def after(args, kwargs):
                shape = np.shape(args[0] if args else kwargs["a"])
                self.counters["kernel.eigh.work_n3"] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            return after
        return None

    def _wrap_spectrum(self, spec_cls) -> None:
        """Count ThermalSpec.spectrum reads and those served from its cache."""
        getter = spec_cls.spectrum.fget
        counters = self.counters

        def spectrum(spec):
            counters["thermo.spectrum_reads"] += 1
            if getattr(spec, "_spectrum_cache", None) is not None:
                counters["thermo.spectrum_hits"] += 1
            return getter(spec)

        spec_cls.spectrum = property(spectrum)

    def dump(self, path: str) -> dict:
        """Write the spans to ``path`` (npz) and return the names and counters."""
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        counters = dict(self.counters)
        counters["spin_models.build_xxz.distinct"] = len(self._distinct_params)
        return {"spans": path, "names": self.names, "counters": counters}


def summarize(trace: dict) -> dict:
    """Per span name: calls, total and self seconds; plus the top-level total."""
    with np.load(trace["spans"]) as data:
        name_id, parent, start, end = data["name_id"], data["parent"], data["start"], data["end"]
    duration = end - start
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    self_time = duration - child_time
    count = len(trace["names"])
    calls = np.bincount(name_id, minlength=count)
    self_sum = np.bincount(name_id, weights=self_time, minlength=count)
    by_name = {
        name: {"calls": int(calls[i]), "self_s": float(self_sum[i])} for i, name in enumerate(trace["names"])
    }
    return {
        "by_name": by_name,
        "top_level_s": float(duration[~nested].sum()),
        "spans": int(duration.size),
        "counters": trace["counters"],
    }
