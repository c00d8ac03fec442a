"""Span tracing of pauli_dilate from outside the package.

`install` wraps every public function (and the public methods and
`__post_init__` validators of public classes) of the package's modules, and
rebinds every module-level name that resolves to one of them, so a call is
seen whichever name it goes through: `cli` binds `channel_at_time` at import,
so both `cli.channel_at_time` and `dynamics.channel_at_time` are wrapped.

Spans (name, task, parent, start, end, failed) are kept in typed arrays in
memory and written out by `save` when the run ends.  Per-name calls,
inclusive time, self time and failures are summed while the spans close; a
span's self time is its duration minus the durations of its direct children.

Run as a script, this module is the traced form of `python -m pauli_dilate`:
`python tracer.py <command> [options]` installs the wrapping, calls
`pauli_dilate.cli.main` as the package's `__main__` does, exits with its
code, and writes its aggregates and spans as JSON to $PERFBENCH_TRACE_OUT.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

PACKAGE = "pauli_dilate"
LAYERS = ("cli", "pauli", "linalg", "channels", "dilations", "dynamics", "collisions", "verify")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_task = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = array("b")
        # name -> [calls, inclusive s, self s, failed calls]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.open: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self.task = -1

    def begin(self, name: str) -> int:
        sid = len(self.span_start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_task.append(self.task)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self.span_failed.append(0)
        self._stack.append([sid, 0.0])
        self.open[name] += 1
        self.span_start.append(perf_counter())
        return sid

    def end(self, name: str, sid: int, ok: bool) -> None:
        t = perf_counter()
        _, covered = self._stack.pop()
        dur = t - self.span_start[sid]
        self.span_end[sid] = t
        self.open[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - covered
        if not ok:
            self.span_failed[sid] = 1
            st[3] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            yields = f"{name}.yields"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.stats.setdefault(name, [0, 0.0, 0.0, 0])[0] += 1
                for item in fn(*args, **kwargs):
                    tracer.counters[yields] += 1
                    if tracer._stack:
                        inner = tracer.names[tracer.span_name[tracer._stack[-1][0]]]
                        tracer.counters[f"{yields}.in.{inner}"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.end(name, sid, ok)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def run_task(self, task: int, fn, *args):
        """Call fn(*args) under a root span named 'task'."""
        self.task = task
        sid = self.begin("task")
        ok = False
        try:
            result = fn(*args)
            ok = True
        finally:
            self.end("task", sid, ok)
            self.task = -1
        return result

    def summary(self) -> dict:
        return {"stats": self.stats, "counters": dict(self.counters)}

    def spans(self) -> dict:
        return {"names": self.names, "name": self.span_name.tolist(),
                "task": self.span_task.tolist(), "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                "failed": self.span_failed.tolist()}

    def absorb(self, summary: dict, spans: dict, task: int) -> None:
        """Merge the aggregates and spans of a traced child process run as one task."""
        for name, (calls, incl, self_s, failed) in summary["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            st[0] += calls
            st[1] += incl
            st[2] += self_s
            st[3] += failed
        for key, value in summary["counters"].items():
            self.counters[key] += value
        base = len(self.span_start)
        for nid, parent, start, end, failed in zip(spans["name"], spans["parent"], spans["start"],
                                                   spans["end"], spans["failed"]):
            name = spans["names"][nid]
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(self._ids[name])
            self.span_task.append(task)
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_failed.append(failed)

    def save(self, path: str) -> None:
        """Write the spans as JSON: parallel columns plus the name table."""
        with open(path, "w") as fh:
            json.dump(self.spans(), fh, separators=(",", ":"))


def _simulate_hook(tracer, args, result):
    tracer.counters["collisions.steps"] += args[0].n


def _semigroup_hook(tracer, args, result):
    if tracer.open["collisions.convergence_report"]:
        tracer.counters["channels.reference_builds"] += 1


def _commutant_hook(tracer, args, result):
    tracer.counters["pauli.commutant_returned"] += len(result)


HOOKS = {
    "collisions.simulate_semigroup": _simulate_hook,
    "channels.semigroup_channel": _semigroup_hook,
    "pauli.pauli_commutant": _commutant_hook,
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables and rebind every name that holds one."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, HOOKS.get(name))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, f"{layer}.{attr}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _wrap_methods(tracer: Tracer, prefix: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__post_init__":
            continue
        name = f"{prefix}.{attr}"
        if inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(name, obj))
        elif isinstance(obj, (classmethod, staticmethod)):
            setattr(cls, attr, type(obj)(tracer.wrap(name, obj.__func__)))


def _main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    code = tracer.run_task(0, cli.main, argv)
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump({"summary": tracer.summary(), "spans": tracer.spans()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
