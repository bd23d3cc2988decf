"""Per-layer tracing from outside the library.

The tracer replaces public functions and Engine methods of flowmt with
wrappers that record a span (name, start, end, parent, phase) in memory, and
restores the originals when it is removed. A span is named after the module
that defines the function, which is its layer. A few wrappers also count
work at the same boundary: makespan evaluations, LS calls that improved
their input, patched jobs, offspring created, and patched offspring that
survived selection.

Nothing inside flowmt changes, so functions are wrapped wherever a flowmt
module holds a reference to them (``from .search import neh`` binds a second
name that must be wrapped too). A name that a later version of the library
no longer has is skipped and listed in ``missing``; its metrics read 0.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> span name. "Engine.x" names a method of emt.Engine.
SPANS = {
    ("instance", "parse_instance"): "instance.load",
    ("harness", "load_instance_file"): "harness.load_instance_file",
    ("search", "neh"): "search.neh",
    ("search", "insert_local_search"): "search.insert_local_search",
    ("search", "solve_eat"): "search.solve_eat",
    ("transfer", "patch"): "transfer.patch",
    ("transfer", "rov_decode"): "transfer.rov_decode",
    ("transfer", "perm_to_vector"): "transfer.perm_to_vector",
    ("auxiliary", "importance_scores"): "auxiliary.importance_scores",
    ("auxiliary", "build_eat"): "auxiliary.build_eat",
    ("distance", "itdm"): "distance.itdm",
    ("distance", "cos_theta_lower_bound"): "distance.cos_theta_lower_bound",
    ("harness", "run_campaign"): "harness.run_campaign",
    ("harness", "distance_sweep"): "harness.distance_sweep",
    ("emt", "Engine.run"): "emt.run",
    ("emt", "Engine.resolve"): "emt.resolve",
    ("emt", "Engine.initialize"): "emt.initialize",
    ("emt", "Engine.mate"): "emt.mate",
    ("emt", "Engine.evaluate"): "emt.evaluate",
    ("emt", "Engine.improve"): "emt.improve",
    ("emt", "Engine.explicit_transfer"): "emt.explicit_transfer",
    ("emt", "Engine.select"): "emt.select",
}

# Layers whose calls to the makespan evaluator are counted.
EVALUATOR = "_makespan_unchecked"
EVALUATOR_CALLERS = ("emt", "search", "transfer")

# Per-layer metrics reported by a traced run, with their units.
METRICS = {
    "search.insert_local_search_s": "s",
    "search.insert_local_search_calls": "count",
    "search.ls_improved_calls": "count",
    "transfer.patch_s": "s",
    "transfer.patched_jobs": "count",
    "search.neh_s": "s",
    "search.neh_calls": "count",
    "search.solve_eat_s": "s",
    "instance.makespan_evals": "count",
    "instance.load_s": "s",
    "emt.initialize_s": "s",
    "emt.mate_s": "s",
    "emt.evaluate_s": "s",
    "emt.improve_s": "s",
    "emt.explicit_transfer_s": "s",
    "emt.select_s": "s",
    "emt.offspring": "count",
    "transfer.rov_decode_s": "s",
    "transfer.perm_to_vector_s": "s",
    "emt.patched_offspring": "count",
    "emt.patched_survivors": "count",
    "auxiliary.importance_scores_s": "s",
    "auxiliary.build_eat_s": "s",
    "distance.itdm_s": "s",
    "distance.cos_theta_lower_bound_s": "s",
    "harness.run_campaign_s": "s",
    "harness.cell_overhead_s": "s",
    "harness.resume_s": "s",
    "harness.distance_sweep_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}

RESUME = "resume"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: Counter = Counter()
        self.phase = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple] = []
        self._patched_ids: set = set()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.phase = ""
        self._patched_ids = set()

    def _span_wrapper(self, name, fn):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active[name]:  # recursion: the outer span covers it
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.phase]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._active[name] += 1
            state = before(args, kwargs) if before is not None else None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
            if after is not None:
                after(tracer, args, kwargs, result, state)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("flowmt.") and mod is not None
        }
        package = [mod for name, mod in sys.modules.items()
                   if (name == "flowmt" or name.startswith("flowmt.")) and mod is not None]
        for (modname, attr), span in SPANS.items():
            mod = modules.get(modname)
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            if owner is None or (method and not hasattr(owner, method)):
                self.missing.append(f"{modname}.{attr}")
                continue
            if method:
                self._set(owner, method, self._span_wrapper(span, owner.__dict__[method]))
            else:
                wrapper = self._span_wrapper(span, owner)
                for mod_ in package:
                    for key, value in list(vars(mod_).items()):
                        if value is owner:
                            self._set(mod_, key, wrapper)
        for modname in EVALUATOR_CALLERS:
            mod = modules.get(modname)
            if mod is None or not hasattr(mod, EVALUATOR):
                self.missing.append(f"{modname}.{EVALUATOR}")
                continue
            wrapper = self._count_wrapper("instance.makespan_evals", getattr(mod, EVALUATOR))
            self._set(mod, EVALUATOR, wrapper)
        return self

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def remove(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- metrics -------------------------------------------------------------

    def round_metrics(self, wall: float) -> dict:
        """Per-layer figures for one traced round of ``wall`` seconds."""
        total: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        resume = top = engine_in_campaign = 0.0
        for name, start, end, parent, phase in self.spans:
            dur = end - start
            if name == "harness.run_campaign" and phase == RESUME:
                resume += dur
            else:
                total[name] += dur
                calls[name] += 1
            if parent is None:
                top += dur
            elif name == "emt.run" and phase != RESUME:
                engine_in_campaign += dur
        out = {key: 0.0 for key in METRICS}
        for name, seconds in total.items():
            if f"{name}_s" in out:
                out[f"{name}_s"] = seconds
        out.update({k: float(v) for k, v in self.counts.items() if k in out})
        out["search.insert_local_search_calls"] = float(calls["search.insert_local_search"])
        out["search.neh_calls"] = float(calls["search.neh"])
        out["harness.resume_s"] = resume
        if calls["harness.run_campaign"]:
            out["harness.cell_overhead_s"] = total["harness.run_campaign"] - engine_in_campaign
        out["trace.remainder_s"] = wall - top
        return out

    def layer_table(self, wall: float) -> list[str]:
        """Calls, inclusive and self seconds, and self share of ``wall`` per span name."""
        inclusive: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _phase in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent is not None:
                parent_span = self.spans[parent]
                child[parent_span[0]] += end - start
        lines = []
        for name in sorted(inclusive, key=lambda n: -(inclusive[n] - child[n])):
            own = inclusive[name] - child[name]
            lines.append(f"{name:34s} calls={calls[name]:6d} total_s={inclusive[name]:9.4f} "
                         f"self_s={own:9.4f} self_share={own / wall:7.2%}")
        return lines


# Hooks run around a wrapped call: before(args, kwargs) returns a state that
# after(tracer, args, kwargs, result, state) receives.


def _ls_before(args, kwargs):
    return list(_arg(args, kwargs, 1, "perm"))


def _ls_after(tracer, args, kwargs, result, before):
    if list(result) != before:
        tracer.counts["search.ls_improved_calls"] += 1


def _patch_after(tracer, args, kwargs, result, before):
    tracer.counts["transfer.patched_jobs"] += len(_arg(args, kwargs, 2, "remaining"))


def _mate_after(tracer, args, kwargs, result, before):
    tracer.counts["emt.offspring"] += len(result)


def _transfer_after(tracer, args, kwargs, result, before):
    tracer.counts["emt.patched_offspring"] += len(result)
    tracer._patched_ids = {id(ind) for ind in result}


def _select_after(tracer, args, kwargs, result, before):
    if tracer._patched_ids:
        kept = sum(1 for ind in result if id(ind) in tracer._patched_ids)
        tracer.counts["emt.patched_survivors"] += kept
        tracer._patched_ids = set()


_HOOKS = {
    "search.insert_local_search": (_ls_before, _ls_after),
    "transfer.patch": (None, _patch_after),
    "emt.mate": (None, _mate_after),
    "emt.explicit_transfer": (None, _transfer_after),
    "emt.select": (None, _select_after),
}


def median_metrics(rounds: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
