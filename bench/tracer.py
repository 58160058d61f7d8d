"""Span tracing of alphaprobe by interposition, installed from outside the package.

Every public function a module defines, and the DensityMatrix constructor,
is wrapped; the wrapper replaces the function's binding in every loaded
alphaprobe module that holds it, so intra-module calls are traced too. The
layer list is discovered from the package, not kept by hand. Spans stay in
memory as (name, start_ns, end_ns, parent_index, op) tuples and are written
out once at the end. A handful of hooks read arguments and results to count
work where it happens; a hooked function that no longer exists leaves its
counter at zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "alphaprobe"


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind(*args, **kwargs).arguments[name]


def _count_alpha_points(tracer, sig, args, kwargs, result):
    tracer.counters["fidelity.alpha_points"] += len(result)


def _count_jones(tracer, sig, args, kwargs, result):
    stack = _arg(sig, args, kwargs, "stack")
    tracer.counters["channel.jones_evals"] += result.shape[0] * len(stack.plates)


def _count_bloch(tracer, sig, args, kwargs, result):
    counts = _arg(sig, args, kwargs, "counts").counts
    # linear-inversion Bloch vector from the raw count asymmetries; a norm
    # above 1 is an unphysical estimate that project_to_state had to repair
    norm2 = 0.0
    for n_plus, n_minus in counts.values():
        norm2 += ((n_plus - n_minus) / (n_plus + n_minus)) ** 2
    tracer.counters["tomography.bloch_vectors"] += 1
    tracer.counters["tomography.repaired"] += math.sqrt(norm2) > 1.0


def _count_bound(tracer, sig, args, kwargs, result):
    tracer.counters["bounds.records"] += 1
    tracer.counters["bounds.informative"] += result.optimum is not None


def _count_replicas(tracer, sig, args, kwargs, result):
    tracer.counters["tomography.replicas"] += result.replicas
    tracer.counters["tomography.informative"] += sum(v is not None for v in result.values)


HOOKS = {
    "fidelity.alpha_fidelity_curve": _count_alpha_points,
    "channel.jones_at_frequencies": _count_jones,
    "tomography.reconstruct": _count_bloch,
    "bounds.tightest_bound": _count_bound,
    "tomography.monte_carlo_bounds": _count_replicas,
}


def _count_files(tracer, result):
    # any function returning a run report (scenario.run_scenario and friends)
    files = getattr(result, "files", None)
    if isinstance(files, tuple):
        tracer.counters["scenario.bytes_written"] += sum(os.path.getsize(f) for f in files)


def discover_modules() -> list:
    """Import and return every submodule of the package."""
    pkg = importlib.import_module(PACKAGE)
    return [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]


def public_functions(module) -> dict:
    """Public functions a module defines itself (re-exports excluded)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.counters: Counter = Counter()
        self.layers: list[str] = []
        self.missing_hooks: list[str] = []
        self._undo: list = []

    def _wrap(self, fn, name: str, hook):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if hook is not None:
                hook(tracer, sig, args, kwargs, result)
            if name.startswith("scenario."):
                _count_files(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = discover_modules()
        loaded = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        replacements: dict[int, object] = {}
        found = set()
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            self.layers.append(layer)
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                found.add(name)
                replacements[id(fn)] = self._wrap(fn, name, HOOKS.get(name))
        self.missing_hooks = sorted(set(HOOKS) - found)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        linalg = importlib.import_module(f"{PACKAGE}.linalg")
        init = linalg.DensityMatrix.__init__
        self._undo.append((linalg.DensityMatrix, "__init__", init))
        linalg.DensityMatrix.__init__ = self._wrap(init, "linalg.DensityMatrix", None)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def merge(self, path: str, op: int) -> dict:
        """Fold a traced child's span file into this trace under op id `op`."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        offset = len(self.spans)
        for name, t0, t1, parent, _ in payload["spans"]:
            self.spans.append((name, t0, t1, parent + offset if parent >= 0 else -1, op))
        self.counters.update(payload["counters"])
        for layer in payload["layers"]:
            if layer not in self.layers:
                self.layers.append(layer)
        return payload

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "layers": self.layers,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                     "parent": parent, "op": op}
                ))
                fh.write("\n")

    def layer_totals(self) -> dict:
        """Per layer: calls, self_ns and inclusive ns of each function name.

        Spans recorded outside an op (op id -1) are left out.
        """
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        by_name: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op < 0:
                continue
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_ns[layer] += (t1 - t0) - child_ns[i]
            entry = by_name[name]
            entry[0] += 1
            entry[1] += t1 - t0
        return {"calls": calls, "self_ns": self_ns, "by_name": by_name}
