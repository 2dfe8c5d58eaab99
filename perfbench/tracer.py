"""Spans around causelab's layers, installed from outside.

Each traced function is replaced, in every causelab module namespace
that binds it, by a wrapper that records a span: name, start, end,
parent span and request.  ``from .model import witnesses`` gives
``causality``, ``repairs``, ``diagnosis`` and ``checks`` their own
binding, and all of them are rebound, so internal calls are traced too.
Nothing in causelab is edited; :meth:`Tracer.uninstall` restores every
binding.

Per request the tracer keeps, per layer, the self time (span duration
minus the time its child spans cover); the root span's self time is the
time covered by no layer.  Per group (e.g. ``io.load``) it keeps the
duration of the outermost spans of that group, children included.
Spans are kept in memory, up to ``cap``, and written out at the end.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from collections.abc import Sized

LAYERS = ["io", "model", "hitting", "causality", "repairs", "diagnosis",
          "datalog", "abduction", "checks", "oracles"]


def _targets() -> list[tuple[str, str, str, str | None]]:
    """(module, function, layer, group) for every traced function."""
    out = []

    def add(module: str, names: str, layer: str, group: str | None = None) -> None:
        out.extend((module, name, layer, group) for name in names.split())

    add("cli", "load_instance", "io", "io.load")
    add("parsing", "parse_query parse_denial_constraint parse_denial_constraints "
        "parse_program parse_ground_atom", "io", "io.load")
    add("serialize", "instance_from_dict", "io", "io.load")
    add("serialize", "cause_set_to_list family_to_list fact_to_list repair_to_dict "
        "diagnosis_to_dict instance_to_dict dumps", "io", "io.emit")
    add("model", "eval_bcq witnesses satisfies_dc", "model", "model.join")
    add("hitting", "minimal_hitting_sets", "hitting", "hitting.mhs")
    add("hitting", "minimize_family maximize_family", "hitting", "hitting.minimize")
    add("causality", "actual_causes responsibility minimal_contingency_sets "
        "most_responsible_causes is_counterfactual_cause", "causality")
    add("repairs", "s_repairs c_repairs endogenous_s_repairs consistently_true "
        "causes_from_repairs s_repairs_from_causes c_repairs_from_most_responsible "
        "removal_sets_containing", "repairs")
    add("diagnosis", "build_problem minimal_diagnoses diagnoses_containing "
        "smallest_diagnoses_containing causes_via_diagnosis", "diagnosis")
    # _seminaive is the one fixpoint every public datalog entry point runs.
    add("datalog", "_seminaive", "datalog", "datalog.fixpoint")
    add("datalog", "evaluate ground_derivations entails", "datalog")
    add("datalog", "minimal_supports", "datalog", "datalog.supports")
    add("abduction", "problem_for_instance abductive_solutions relevant_hypotheses "
        "necessary_sets datalog_actual_causes datalog_responsibility", "abduction")
    add("checks", "cross_check build_corpus fixture_checks", "checks")
    add("oracles", "witnesses_by_enumeration causes_by_enumeration "
        "s_repair_removals_by_enumeration diagnoses_by_enumeration "
        "minimal_hitting_sets_by_enumeration naive_datalog_model "
        "solutions_by_enumeration necessary_sets_by_enumeration", "oracles", "oracles")
    return out


def _size_counter(key: str, pick=lambda r: r):
    def post(counts: Counter, result) -> None:
        counts[key] += len(pick(result))
    return post


# Work units read off results: key added to, and how to size the result.
POST = {
    "model.witnesses": _size_counter("model.witnesses_out"),
    "hitting.minimal_hitting_sets": _size_counter("hitting.sets_out"),
    "datalog._seminaive": _size_counter("datalog.model_facts", lambda r: r[0]),
    "datalog.minimal_supports": _size_counter("datalog.supports_out"),
}


class Tracer:
    def __init__(self, cap: int = 200_000) -> None:
        self.cap = cap
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request)
        self.dropped = 0
        self.next_id = 0
        self.missing: list[str] = []
        self._bindings: list[tuple] = []
        self._new_request(-1)

    # ------------------------------------------------------ bookkeeping

    def _new_request(self, req: int) -> None:
        self.req = req
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.group_time: Counter = Counter()
        self.group_depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.last_error: dict[str, BaseException] = {}

    def _record(self, span_id: int, name: int, start: float, end: float, parent: int) -> None:
        if len(self.spans) < self.cap:
            self.spans.append((span_id, name, start, end, parent, self.req))
        else:
            self.dropped += 1

    def begin_request(self, req: int) -> None:
        self._new_request(req)
        self.root = [self.next_id, 0.0]  # span id, time covered by children
        self.next_id += 1
        self.stack = [self.root]
        self.root_name = self._name("request")
        self.t0 = time.perf_counter()

    def end_request(self) -> dict:
        end = time.perf_counter()
        self._record(self.root[0], self.root_name, self.t0, end, -1)
        total = end - self.t0
        out = {
            "traced_ms": total * 1e3,
            "uncovered_ms": (total - self.root[1]) * 1e3,
            "self_ms": {k: v * 1e3 for k, v in self.self_time.items()},
            "group_ms": {k: v * 1e3 for k, v in self.group_time.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
        }
        self._new_request(-1)
        return out

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # --------------------------------------------------------- wrappers

    def wrap(self, fn, qualname: str, layer: str, group: str | None):
        tracer = self
        name_id = self._name(qualname)
        post = POST.get(qualname)
        perf = time.perf_counter
        counts_family = qualname == "hitting.minimal_hitting_sets"

        def traced(*args, **kwargs):
            if counts_family:
                family = args[0]
                if not isinstance(family, Sized):
                    family = list(family)
                    args = (family,) + args[1:]
                tracer.counts["hitting.family_in"] += len(family)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1]
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            if group:
                tracer.group_depth[group] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if tracer.last_error.get(layer) is not exc:
                    tracer.last_error[layer] = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                end = perf()
                tracer.stack.pop()
                duration = end - start
                tracer.self_time[layer] += duration - frame[1]
                parent[1] += duration
                if group:
                    tracer.group_depth[group] -= 1
                    if not tracer.group_depth[group]:
                        tracer.group_time[group] += duration
                tracer.calls[qualname] += 1
                tracer._record(span_id, name_id, start, end, parent[0])
            if post is not None:
                post(tracer.counts, result)
            return result

        return traced

    def wrap_generator(self, fn, key: str):
        tracer = self

        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer.counts[key] += n

        return counted

    # ---------------------------------------------------- installation

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "causelab" and not modname.startswith("causelab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._bindings.append((module, attr, original))

    def install(self) -> None:
        """Rebind every traced function in every causelab namespace."""
        self.missing = []
        for module, name, layer, group in _targets():
            fn = getattr(sys.modules.get(f"causelab.{module}"), name, None)
            if fn is None:
                self.missing.append(f"{module}.{name}")
                continue
            self._rebind(fn, self.wrap(fn, f"{module}.{name}", layer, group))
        model = sys.modules["causelab.model"]
        self._rebind(model.valuations, self.wrap_generator(model.valuations, "model.valuations"))
        checks = sys.modules["causelab.checks"]
        for pid, fn in list(checks.PROPERTIES.items()):
            key = f"checks.prop.{pid}"
            checks.PROPERTIES[pid] = self.wrap(fn, key, "checks", key)
            self._bindings.append((checks.PROPERTIES, pid, fn))
        for attr, fn in list(vars(checks).items()):
            if attr.startswith("_fixture_") and callable(fn):
                key = f"checks.prop.fixtures.{attr[len('_fixture_'):]}"
                self._rebind(fn, self.wrap(fn, key, "checks", key))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._bindings):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._bindings = []

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fields": ["id", "name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "dropped": self.dropped,
            "missing_targets": self.missing,
        }
