"""Span tracing of rothlab's public functions, installed from outside the package.

The tracer replaces every binding of a traced function in the loaded rothlab
modules (its home module, modules that imported it by name, and the package
namespace) with a wrapper that records one span per call: name, start, end,
parent and, for a few functions, attributes read from the arguments or the
result.  Spans stay in memory; the caller writes them out when the run ends.
``uninstall`` puts every original binding back.  Nothing under ``src/`` is
modified, and without ``install`` no wrapper exists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Modules whose public functions are traced.  The CLI exposes only its entry
# point; its cmd_* handlers are dispatch targets whose cost belongs to main.
MODULES = ("enumeration", "graphs", "spectra", "analysis", "bounds", "census", "cli")
CLI_FUNCTIONS = ("main", "build_parser")

MARKER = "__perfbench_original__"


def _probe_full_spectrum(args, kwargs, result):
    return {"n": int(result.values.shape[0])}


def _probe_exact_kernel_dim(args, kwargs, result):
    return {"nullity": int(result[0])}


def _probe_oracle(args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    return {"s": inst.s, "t": inst.t, "complete": bool((inst.K == 1).all()),
            "reason": result.reason}


def _probe_len(args, kwargs, result):
    return {"count": len(result)}


def _probe_all_graphs(args, kwargs, result):
    return {"n": int(args[0] if args else kwargs["n"]), "count": len(result)}


PROBES = {
    "spectra.full_spectrum": _probe_full_spectrum,
    "spectra.exact_kernel_dim": _probe_exact_kernel_dim,
    "analysis.s_roth_oracle": _probe_oracle,
    "enumeration.all_graphs": _probe_all_graphs,
    "enumeration.enumerate_connected_bipartite": _probe_len,
}


def traced_functions() -> dict:
    """{"module.function": function} for every function the tracer wraps."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"rothlab.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if short == "cli" and name not in CLI_FUNCTIONS:
                continue
            out[f"{short}.{name}"] = obj
    return out


def _rothlab_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rothlab" or name.startswith("rothlab."))]


def installed_wrappers() -> list:
    """Names of rothlab module attributes that currently hold a tracing wrapper."""
    return [f"{mod.__name__}.{name}" for mod in _rothlab_modules()
            for name, obj in list(vars(mod).items()) if hasattr(obj, MARKER)]


class Tracer:
    """Records spans as (id, parent_id, name, start_ns, end_ns, attrs).

    Single-threaded: the parent of a span is the innermost open span of the
    process that recorded it.  Spans opened in forked pool workers stay in
    the worker and are not collected.
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id so children sort after the parent
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = None
                if probe is not None and result is not None:
                    attrs = probe(args, kwargs, result)
                spans[sid] = (sid, parent, name, start, end, attrs)

        setattr(wrapper, MARKER, fn)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = traced_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for mod in _rothlab_modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and getattr(w, MARKER) is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def aggregate(spans: list) -> dict:
    """Per-function totals: calls, inclusive seconds and self seconds.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive function is not counted twice.  Self time is a span's duration
    minus the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for sid, parent, _name, start, end, _attrs in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out = {}
    for sid, parent, name, start, end, _attrs in spans:
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end - start
        rec["calls"] += 1
        rec["self_s"] += (dur - child_ns.get(sid, 0)) / 1e9
        p = parent
        while p >= 0 and by_id[p][2] != name:
            p = by_id[p][1]
        if p < 0:
            rec["s"] += dur / 1e9
    return out

