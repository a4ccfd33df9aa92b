"""Out-of-program tracer for dsvac.

``install()`` wraps every public function and every public method of a
public class defined in a ``dsvac`` module, and rebinds the wrapper at every
place the original is bound: the defining module, every module that
imported it by name, and module-level dicts such as the suite table.  A few
private names that mark boundaries of ``dsvac.report`` are wrapped too (the
suites, the sector pool, the pool's worker task and the check collector).

Each call adds to in-memory totals: calls, wall, and self time (wall minus
the wall of wrapped calls made inside it).  Calls of those boundaries and
the first ``LAYER_SPANS`` calls of the functions named in ``layers.json``
also record a span ``(id, name, start, end, parent)``.  lru-cached functions report the hits and
misses of their ``cache_info()`` made while tracing.  ``solve_ivp`` as bound
in ``dsvac.radial`` is wrapped to count right-hand side evaluations and
accepted steps, charged to the nearest enclosing ``regular_basis`` or
``evolve_raw`` call (``radial.other`` if none).  Everything stays in memory
until ``dump()`` writes it.

Pool workers are forked from the traced process and inherit the wrappers.
The worker task wrapper resets the worker's totals on its first task and
writes them, with the spans of its tasks, after every task to
``worker-<pid>.json``; ``run.merge_trace`` adds those files to the parent's
totals, so the numbers cover all processes.
"""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import time

import numpy as np

# Private boundaries of dsvac.report, wrapped under a name of their own.
REPORT_NAMES = {
    ("report", "_prewarm"): "report.pool",
    ("report", "_build_pair_task"): "report.task",
    ("report", "add"): "report.checks",
    ("report", "structural"): "report.checks",
}
SPAN_PREFIXES = ("report.suite.", "report.pool", "report.task", "report.run")
# Spans kept for layer functions (some run ~10^5 times); totals stay exact.
LAYER_SPANS = 20000
LAYERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layers.json")


def load_layers():
    """The layer groups of ``layers.json``."""
    with open(LAYERS_PATH) as fh:
        return json.load(fh)["groups"]


def split_metric(name):
    """``module.function.kind`` -> (``module.function``, kind)."""
    function, _, kind = name.rpartition(".")
    return function, kind


def layer_functions(*kinds):
    """Functions with a per-layer metric (of one of ``kinds``, if given)."""
    return {function for g in load_layers() for function, kind in
            map(split_metric, g["metrics"]) if not kinds or kind in kinds}


def _freeze(obj):
    """A hashable, process-independent stand-in for an argument value."""
    if isinstance(obj, dict):
        return ("dict", tuple(sorted((repr(_freeze(k)), _freeze(v))
                                     for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_freeze(v) for v in obj))
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, str(obj.dtype),
                hashlib.blake2b(obj.tobytes(), digest_size=16).hexdigest())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,
                tuple(_freeze(getattr(obj, f.name))
                      for f in dataclasses.fields(obj)))
    return repr(obj)


def _arg_key(args, kwargs):
    text = repr(_freeze((args, sorted(kwargs.items()))))
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


class Tracer:
    """In-memory totals, spans and counts for one process."""

    def __init__(self, out_dir, span_names, distinct_names):
        self.out_dir = out_dir
        self.span_names = frozenset(span_names)
        self.distinct_names = frozenset(distinct_names)
        self.pid = os.getpid()
        self.cached = {}         # name -> lru_cache object
        self.stack = []          # frames [name, start, child_wall, span_id]
        self.stats = {}          # name -> [calls, wall_s, self_s]
        self.keys = {}           # name -> set of argument keys
        self.counts = {}         # name -> {kind: count}
        self.spans = []          # (id, name, start, end, parent_id)
        self._next_id = 0
        self.layer_spans_left = LAYER_SPANS
        self._cache_base = {}

    def reset(self):
        """Start afresh (in place: the wrappers hold these containers)."""
        for container in (self.stack, self.stats, self.keys, self.counts,
                          self.spans):
            container.clear()
        self._cache_base = {n: self._cache_pair(n) for n in self.cached}

    def _cache_pair(self, name):
        info = self.cached[name].cache_info()
        return [info.hits, info.misses]

    def wrap(self, name, fn):
        stack, stats = self.stack, self.stats
        boundary = name.startswith(SPAN_PREFIXES)
        layer = name in self.span_names
        distinct = name in self.distinct_names
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct:
                self.keys.setdefault(name, set()).add(_arg_key(args, kwargs))
            frame = [name, clock(), 0.0, -1]
            if boundary or (layer and self.layer_spans_left > 0):
                frame[3] = self._next_id
                self._next_id += 1
                self.layer_spans_left -= layer
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                wall = end - frame[1]
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += wall
                entry[2] += wall - frame[2]
                if stack:
                    stack[-1][2] += wall
                if frame[3] >= 0:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0),
                                  None)
                    self.spans.append((frame[3], name, frame[1], end, parent))

        return wrapper

    def count(self, name, kind, value):
        bucket = self.counts.setdefault(name, {})
        bucket[kind] = bucket.get(kind, 0) + value

    def snapshot(self):
        cache = {}
        for name in self.cached:
            now, base = self._cache_pair(name), self._cache_base[name]
            cache[name] = [now[0] - base[0], now[1] - base[1]]
        return {"pid": os.getpid(), "stats": self.stats,
                "keys": {n: sorted(k) for n, k in self.keys.items()},
                "counts": self.counts, "cache": cache, "spans": self.spans}

    def dump(self, path):
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    def worker_task(self, name, fn):
        """Wrapper for the pool's worker entry point (runs in the worker)."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() != self.pid:
                # first task in a forked worker: drop the parent's state;
                # keep only task spans here, as the worker's file is
                # rewritten after every task
                self.pid = os.getpid()
                self.reset()
                self.layer_spans_left = 0
            try:
                return inner(*args, **kwargs)
            finally:
                self.dump(os.path.join(self.out_dir, f"worker-{self.pid}.json"))

        return task


def _ode_counter(tracer, solve_ivp, callers):
    """``solve_ivp`` with unchanged numerics that also counts right-hand side
    evaluations and accepted steps (one ``step()`` of the solver each)."""
    import scipy.integrate

    counting = {}

    def counting_class(base):
        if base not in counting:
            class Counting(base):
                steps = 0

                def step(self):
                    message = super().step()
                    if self.status != "failed":
                        Counting.steps += 1
                    return message

            counting[base] = Counting
        return counting[base]

    @functools.wraps(solve_ivp)
    def counted(fun, t_span, y0, method="RK45", *args, **kwargs):
        base = (getattr(scipy.integrate, method) if isinstance(method, str)
                else method)
        cls = counting_class(base)
        before = cls.steps
        sol = solve_ivp(fun, t_span, y0, cls, *args, **kwargs)
        caller = next((f[0] for f in reversed(tracer.stack)
                       if f[0] in callers), "radial.other")
        tracer.count(caller, "nfev", int(sol.nfev))
        tracer.count(caller, "steps", cls.steps - before)
        return sol

    return counted


def _targets(mod):
    """(traced name, owner, attribute) of everything to wrap in a module."""
    short = mod.__name__.rpartition(".")[2]
    for attr, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for member in list(vars(obj)):
                name = REPORT_NAMES.get((short, member))
                if name is None and not (attr[0] == "_" or member[0] == "_"):
                    name = f"{short}.{attr}.{member}"
                if name:
                    yield name, obj, member
        elif callable(obj):
            if attr.startswith("_suite_"):
                name = "report.suite." + attr[len("_suite_"):]
            elif attr[0] == "_":
                name = REPORT_NAMES.get((short, attr))
            else:
                name = f"{short}.{attr}"
            if name:
                yield name, mod, attr


def install(out_dir):
    """Wrap dsvac's public functions everywhere they are bound.

    Spans are kept for the ``dsvac.report`` boundaries and the first
    ``LAYER_SPANS`` calls of the functions of ``layers.json``, distinct
    arguments counted for those with a ``distinct_ratio`` metric, and ODE
    counts charged to those with an ``nfev`` metric.
    """
    import dsvac

    tracer = Tracer(out_dir, layer_functions(),
                    layer_functions("distinct_ratio"))
    mods = [importlib.import_module(f"dsvac.{info.name}")
            for info in pkgutil.iter_modules(dsvac.__path__)]
    wrappers = {}            # id(original) -> wrapper
    for mod in mods:
        for name, owner, attr in _targets(mod):
            obj = vars(owner)[attr]
            if isinstance(obj, (staticmethod, classmethod)):
                setattr(owner, attr, type(obj)(tracer.wrap(name, obj.__func__)))
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue     # properties and plain class attributes
            if hasattr(obj, "cache_info"):
                tracer.cached[name] = obj
            wrapper = (tracer.worker_task if name == "report.task"
                       else tracer.wrap)(name, obj)
            wrappers[id(obj)] = wrapper
            if owner is not mod:
                setattr(owner, attr, wrapper)
    # rebind module-level names and dict entries (e.g. the suite table)
    for mod in [dsvac] + mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]
    radial = importlib.import_module("dsvac.radial")
    radial.solve_ivp = _ode_counter(tracer, radial.solve_ivp,
                                    layer_functions("nfev"))
    tracer.reset()
    return tracer
