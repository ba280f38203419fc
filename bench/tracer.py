"""Span tracing of proxcycle's public names, installed from outside the package.

``Tracer.install`` replaces each public function at every proxcycle module
that binds it, each listed method on every subclass that defines it (found
by walking the base class), and wraps the result of ``gallery.build`` so the
system's user map is counted too. Each wrapper appends one span (name,
start, end, parent) to flat arrays; ``fold`` turns the spans recorded so far
into per-name calls and self time (duration minus the time its
child spans cover) and clears them. A public name that no longer exists is
listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array

# (defining module, public function). The metric name is "<module>.<name>".
FUNCTIONS = (
    ("spaces", "check_point"),
    ("spaces", "p_combine"),
    ("chains", "chain_point_distance"),
    ("chains", "chain_self_distance"),
    ("chains", "chain_set_distance"),
    ("system", "region_distance"),
    ("system", "contraction_margin"),
    ("system", "verify_contraction"),
    ("system", "verify_cyclicity"),
    ("orbit", "picard_orbit"),
    ("orbit", "chain_trace"),
    ("orbit", "edge_trace"),
    ("orbit", "block_drift_trace"),
    ("orbit", "banach_solve"),
    ("orbit", "periodic_point_solve"),
    ("orbit", "proximity_chain_extract"),
    ("cli", "parse_config"),
    ("cli", "run_experiment"),
)
# (defining module, base class, method). The metric name is "<module>.<method>".
METHODS = (
    ("spaces", "Space", "distance"),
    ("system", "Region", "contains"),
    ("system", "Region", "sample"),
    ("system", "CyclicSystem", "apply"),
)
PACKAGE = "proxcycle"
BUILD = ("gallery", "build")
MAP = "system.map"

# Spans below these names are attributed to a context, so that work counts
# can be divided by the work unit of the layer that caused them.
CONTEXTS = {
    "certify": ("system.verify_contraction",),
    "solve": ("orbit.banach_solve", "orbit.periodic_point_solve", "orbit.proximity_chain_extract"),
    "tracefn": ("orbit.chain_trace", "orbit.edge_trace", "orbit.block_drift_trace"),
    "picard": ("orbit.picard_orbit",),
}


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found += [c for c in _subclasses(sub) if c not in found]
    return found


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._ids: dict[str, int] = {}
        self._span_name = array("H")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and zero the folded totals; installed wrappers
        stay in place."""
        for arr in (self._span_name, self._span_parent, self._span_start, self._span_end):
            del arr[:]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # (context, span name) -> spans of that name below the context
        self.in_context: dict[tuple[str, str], int] = {}

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _lookup(self, module: str, name: str):
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            mod = None
        value = getattr(mod, name, None)
        if value is None:
            self.absent.append(f"{module}.{name}")
        return value

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module, name in FUNCTIONS:
            fn = self._lookup(module, name)
            if fn is not None:
                self._patch_everywhere(fn, self.wrap(f"{module}.{name}", fn))
        for module, base_name, method in METHODS:
            base = self._lookup(module, base_name)
            if base is None:
                continue
            owners = [cls for cls in _subclasses(base) if method in vars(cls)]
            if not owners:
                self.absent.append(f"{module}.{base_name}.{method}")
            for cls in owners:
                original = vars(cls)[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self.wrap(f"{module}.{method}", original))
        build = self._lookup(*BUILD)
        if build is not None:
            traced_build = self.wrap(".".join(BUILD), build)

            def build_counting_map(*args, **kwargs):
                gs = traced_build(*args, **kwargs)
                counted = dataclasses.replace(gs.system, map=self.wrap(MAP, gs.system.map))
                return dataclasses.replace(gs, system=counted)

            self._patch_everywhere(build, functools.update_wrapper(build_counting_map, build))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- folding -------------------------------------------------------------

    def fold(self) -> None:
        """Fold the spans recorded since the last fold into the totals.

        Call only between top-level calls, when no span is open.
        """
        if len(self._stack) != 1:
            raise RuntimeError("fold with open spans")
        names = [None] * len(self._ids)
        for name, nid in self._ids.items():
            names[nid] = name
        flags = [0] * len(names)
        bits = {}
        for bit, (context, members) in enumerate(sorted(CONTEXTS.items())):
            bits[context] = 1 << bit
            for member in members:
                if member in self._ids:
                    flags[self._ids[member]] |= 1 << bit

        span_name, parents = self._span_name, self._span_parent
        durations = [end - start for start, end in zip(self._span_start, self._span_end)]
        n = len(durations)
        child = [0.0] * n
        ctx = [0] * n
        count = [0] * len(names)
        self_time = [0.0] * len(names)
        ctx_count: dict[tuple[int, int], int] = {}
        for i in range(n):
            nid = span_name[i]
            parent = parents[i]
            c = flags[nid]
            if parent >= 0:
                child[parent] += durations[i]
                c |= ctx[parent]
            ctx[i] = c
            count[nid] += 1
            if c:
                key = (c, nid)
                ctx_count[key] = ctx_count.get(key, 0) + 1
        for i in range(n):
            self_time[span_name[i]] += durations[i] - child[i]

        for nid, name in enumerate(names):
            if count[nid]:
                self.calls[name] = self.calls.get(name, 0) + count[nid]
                self.self_s[name] = self.self_s.get(name, 0.0) + self_time[nid]
        for (c, nid), k in ctx_count.items():
            for context, bit in bits.items():
                if c & bit:
                    key = (context, names[nid])
                    self.in_context[key] = self.in_context.get(key, 0) + k

        for arr in (self._span_name, self._span_parent, self._span_start, self._span_end):
            del arr[:]
