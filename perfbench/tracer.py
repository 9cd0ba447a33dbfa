"""In-memory spans around groupsum's public functions, for the traced run.

`install` wraps every public function and method of the groupsum modules
and lists every binding to switch: the methods on their classes and every
module-level name that refers to one of the functions, so calls through
`from .groups import catalog` in `verify` and the constructor imports in
`cli` are traced too. `switch` turns the traced bindings on and off, so one
process can time the same item untraced and traced. Each traced call
records its name, start, end and parent span; self time is the span's
duration minus the time its child spans cover. The functions in AGGREGATED
are called so often that only their call counts and self time are kept, not
one record per call.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import sys
import time
from collections import Counter

MODULES = ("numtheory", "groups", "powergraph", "verify", "cli")

AGGREGATED = frozenset({
    "groups.mul", "groups.inverse", "groups.power", "groups.FiniteGroup.element_order",
    "groups.cyclic_subgroup", "groups.Subgroup.is_cyclic", "groups.Subgroup.index",
    "numtheory.is_prime", "numtheory.factorize", "numtheory.factorization_from_spf",
    "numtheory.totient", "numtheory.divisors", "numtheory.phi_cyclic_sum",
    "numtheory.phi_cyclic_product", "numtheory.q_of", "numtheory.q_of_primes",
    "numtheory.Factorization.exponent_of", "numtheory.format_rational",
})


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []  # (span id, parent id, name, start, end)
        self.stack: list[list] = [[0.0, 0.0, 0, None]]  # start, child time, id, name
        self._ids = itertools.count(1)

    def wrap(self, name, fn, before=None, after=None):
        stack, calls, self_s, spans, ids = (
            self.stack, self.calls, self.self_s, self.spans, self._ids)
        record = name not in AGGREGATED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = stack[-1]
            frame = [clock(), 0.0, next(ids), name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[name] += 1
                self_s[name] += duration - frame[1]
                parent[1] += duration
                if record:
                    spans.append((frame[2], parent[2], name, frame[0], end))
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def inside(self, name: str) -> bool:
        return any(frame[3] == name for frame in self.stack)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# --- counters taken at layer boundaries ---


def _group_built(tracer, args, result):
    n = args[0].order
    tracer.counters["groups.FiniteGroup.cells"] += n * n
    if tracer.inside("groups.catalog"):
        tracer.counters["groups.catalog.constructed"] += 1


def _orders_requested(tracer, args):
    if args[0]._orders is None:
        tracer.counters["groups.element_orders.groups"] += 1


def _catalog_returned(tracer, args, result):
    tracer.counters["groups.catalog.groups"] += len(result)


def _graph_built(tracer, args, result):
    tracer.counters["powergraph.directed_edges"] += len(result.directed_edges)
    tracer.counters["powergraph.undirected_edges"] += len(result.undirected_edges)


def _exported(tracer, args, result):
    tracer.counters["powergraph.export.bytes"] += len(result.encode())


def _report_emitted(tracer, args, result):
    tracer.counters["verify.report.bytes"] += len(result.encode())


def _witnesses_checked(tracer, args, result):
    tracer.counters["verify.witnesses"] += len(result)


def _main_verified(tracer, args, result):
    tracer.counters["verify.witnesses"] += sum(len(row.witnesses) for row in result.rows)


HOOKS = {
    "groups.FiniteGroup": (None, _group_built),
    "groups.element_orders": (_orders_requested, None),
    "groups.catalog": (None, _catalog_returned),
    "powergraph.build": (None, _graph_built),
    "powergraph.export_dot": (None, _exported),
    "powergraph.export_json": (None, _exported),
    "verify.reports_to_csv": (None, _report_emitted),
    "verify.reports_to_json": (None, _report_emitted),
    "verify.check_witnesses": (None, _witnesses_checked),
    "verify.verify_main": (None, _main_verified),
}


def _method_name(modname, module_functions, cls, attr, classlevel):
    # FiniteGroup is the groups layer's central type: its instance methods
    # are named like module functions (groups.element_orders) unless a
    # module function already has that name.
    if cls.__name__ == "FiniteGroup" and not classlevel and attr not in module_functions:
        return f"{modname}.{attr}"
    return f"{modname}.{cls.__name__}.{attr}"


def install(tracer: Tracer) -> list:
    """Wrap groupsum's public functions and methods; return their bindings.

    Each binding is (owner, attribute, original, traced). Nothing is traced
    until `switch(bindings, True)`."""
    bindings = []
    replaced = {}
    for modname in MODULES:
        module = sys.modules[f"groupsum.{modname}"]
        own = {
            attr: obj for attr, obj in vars(module).items()
            if not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        functions = {attr for attr, obj in own.items() if inspect.isfunction(obj)}
        for attr, obj in own.items():
            if attr in functions:
                name = f"{modname}.{attr}"
                replaced[obj] = tracer.wrap(name, obj, *HOOKS.get(name, (None, None)))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                bindings += _wrap_class(tracer, modname, functions, obj)
    for modname, module in list(sys.modules.items()):
        if modname == "groupsum" or modname.startswith("groupsum."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    bindings.append((module, attr, obj, replaced[obj]))
    return bindings


def switch(bindings: list, traced: bool) -> None:
    for owner, attr, original, wrapped in bindings:
        setattr(owner, attr, wrapped if traced else original)


def _wrap_class(tracer, modname, functions, cls) -> list:
    bindings = []
    for attr, raw in list(vars(cls).items()):
        if attr == "__init__" and not dataclasses.is_dataclass(cls):
            name = f"{modname}.{cls.__name__}"
            wrapped = tracer.wrap(name, raw, *HOOKS.get(name, (None, None)))
        elif attr.startswith("_"):
            continue
        elif isinstance(raw, (classmethod, staticmethod)):
            name = _method_name(modname, functions, cls, attr, True)
            wrapped = type(raw)(tracer.wrap(name, raw.__func__))
        elif inspect.isfunction(raw):
            name = _method_name(modname, functions, cls, attr, False)
            wrapped = tracer.wrap(name, raw, *HOOKS.get(name, (None, None)))
        else:
            continue
        bindings.append((cls, attr, raw, wrapped))
    return bindings
