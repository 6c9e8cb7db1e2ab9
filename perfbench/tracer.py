"""Span tracing of the divergelab layers from outside the package.

``Tracer.install`` replaces every binding of each target function in every
``divergelab`` module namespace (the package binds functions with
``from .x import f``, so one function has several bindings) with a wrapper
that records a span: name, start, end and the enclosing span. Spans live in
flat in-memory arrays; ``uninstall`` puts the original bindings back.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np

# (span name, module, function). Several functions may share one span name;
# a call nested directly in a span of the same name counts as the same call.
TARGETS = (
    ("cli.main", "divergelab.cli", "main"),
    ("cli.report_write", "divergelab.cli", "_write_report_file"),
    ("harness.suite", "divergelab.harness", "dpi_suite"),
    ("harness.suite", "divergelab.harness", "invariance_suite"),
    ("harness.suite", "divergelab.harness", "orthogonal_plateau_check"),
    ("harness.suite", "divergelab.harness", "joint_convexity_suite"),
    ("harness.suite", "divergelab.harness", "kadison_bound_check"),
    ("harness.suite", "divergelab.harness", "purity_bound_check"),
    ("harness.suite", "divergelab.harness", "stinespring_dpi_equivalence"),
    ("search.optimal_pair_search", "divergelab.search", "optimal_pair_search"),
    ("qdiv.evaluate", "divergelab.qdiv", "evaluate"),
    ("qdiv.rel_entropy", "divergelab.qdiv", "relative_entropy"),
    ("qdiv.qsd", "divergelab.qdiv", "quantum_skew_divergence"),
    ("qdiv.holevo_skew", "divergelab.qdiv", "holevo_skew_divergence"),
    ("qdiv.trace_dist", "divergelab.qdiv", "trace_distance"),
    ("qdiv.qjs", "divergelab.qdiv", "quantum_js"),
    ("qdiv.bures", "divergelab.qdiv", "bures_distance"),
    ("qdiv.hellinger", "divergelab.qdiv", "hellinger_distance"),
    ("qdiv.hs_dist", "divergelab.qdiv", "hs_distance"),
    ("qdiv.d_inf", "divergelab.qdiv", "d_infinity"),
    ("channels.construct", "divergelab.channels", "_random_cptp_rng"),
    ("channels.construct", "divergelab.channels", "unitary_channel"),
    ("channels.construct", "divergelab.channels", "assignment_channel"),
    ("channels.construct", "divergelab.channels", "partial_trace_channel"),
    ("channels.construct", "divergelab.channels", "transpose_map"),
    ("channels.construct", "divergelab.channels", "compose"),
    ("channels.construct", "divergelab.channels", "orthogonal_to_target_channel"),
    ("channels.construct", "divergelab.channels", "stinespring_factorize"),
    ("channels.construct", "divergelab.channels", "stinespring_pipeline"),
    ("channels.apply", "divergelab.channels", "apply"),
    ("channels.apply", "divergelab.channels", "apply_to_matrix"),
    ("states.validate_density", "divergelab.states", "validate_density"),
    ("states.sample", "divergelab.states", "_sample_state_rng"),
    ("states.sample", "divergelab.states", "sample_state"),
    ("states.sample", "divergelab.states", "random_orthogonal_pair"),
    ("sampling.haar_unitary", "divergelab.sampling", "haar_unitary"),
    ("sampling.derive_rng", "divergelab.sampling", "derive_rng"),
    ("matcore.eig_hermitian", "divergelab.matcore", "eig_hermitian"),
    ("matcore.schatten_norm", "divergelab.matcore", "schatten_norm"),
)

QDIV_TAGS = ("rel_entropy", "qsd", "holevo_skew", "trace_dist", "qjs", "bures", "hellinger", "hs_dist", "d_inf")

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = (
    [("matcore.eig_hermitian.calls", "count"), ("matcore.eig_hermitian.self_ms", "ms")]
    + [("matcore.schatten_norm.calls", "count"), ("matcore.schatten_norm.self_ms", "ms")]
    + [("states.validate_density.calls", "count"), ("states.validate_density.self_ms", "ms")]
    + [("states.validate_density.errors", "count")]
    + [("states.sample.calls", "count"), ("states.sample.self_ms", "ms")]
    + [("qdiv.evaluate.calls", "count"), ("qdiv.evaluate.self_ms", "ms")]
    + [(f"qdiv.{tag}.self_ms", "ms") for tag in QDIV_TAGS]
    + [("sampling.haar_unitary.calls", "count"), ("sampling.haar_unitary.self_ms", "ms")]
    + [("sampling.derive_rng.calls", "count"), ("sampling.derive_rng.self_ms", "ms")]
    + [("channels.construct.calls", "count"), ("channels.construct.self_ms", "ms")]
    + [("channels.apply.calls", "count"), ("channels.apply.self_ms", "ms")]
    + [("channels.apply.kraus_ops", "count")]
    + [("search.objective.calls", "count"), ("search.evals_per_s", "1/s")]
    + [("search.improve_ratio", "ratio"), ("search.restarts", "count"), ("search.self_ms", "ms")]
    + [("harness.trials", "count"), ("harness.self_ms", "ms")]
    + [("cli.self_ms", "ms"), ("cli.report_write_ms", "ms"), ("cli.report_bytes", "bytes")]
    + [("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
)

# The search accepts a step when it beats the incumbent by more than this.
_IMPROVE_EPS = 1e-14


def divergelab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "divergelab" or name.startswith("divergelab.")]


def _bindings(modules, wanted: dict) -> list[tuple[dict, object, object]]:
    """(namespace, key, value) for every binding whose value is in ``wanted``
    (keyed by id): module attributes, and entries of module-level dicts."""
    found = []
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in wanted:
                found.append((namespace, key, value))
            elif isinstance(value, dict):
                found.extend((value, k, v) for k, v in value.items() if id(v) in wanted)
    return found


def _held_in_sequences(modules, wanted: dict) -> list[str]:
    """Module-level tuples and lists that hold a wanted function; those
    bindings cannot be replaced in place."""
    return [
        f"{module.__name__}.{key}"
        for module in modules
        for key, value in vars(module).items()
        if isinstance(value, (list, tuple)) and any(id(v) in wanted for v in value)
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.errors: dict[str, int] = {}
        self.kraus_ops = 0
        self.harness_trials = 0
        self.objective_calls = 0
        self.improvements = 0
        self.restarts = 0
        self._incumbent: Optional[float] = None
        self._patched: list[tuple[dict, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- hooks: counts taken where the work happens -------------------------

    def _parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and self.names[self.span_name[parent]] == name

    def _on_apply(self, parent, args, result) -> None:
        if not self._parent_is(parent, "channels.apply"):
            self.kraus_ops += len(getattr(args[0], "kraus_ops", ()))

    def _on_suite(self, parent, args, result) -> None:
        reports = result.all_reports() if hasattr(result, "all_reports") else [result]
        self.harness_trials += sum(r.trials for r in reports)

    def _on_evaluate(self, parent, args, result) -> None:
        if not self._parent_is(parent, "search.optimal_pair_search"):
            return
        self.objective_calls += 1
        value = result.value
        if self._incumbent is not None and value > self._incumbent + _IMPROVE_EPS:
            self.improvements += 1
        if self._incumbent is None or value > self._incumbent + _IMPROVE_EPS:
            self._incumbent = value

    def _on_derive_rng(self, parent, args, result) -> None:
        # The search draws one stream per restart.
        if self._parent_is(parent, "search.optimal_pair_search"):
            self.restarts += 1
            self._incumbent = None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        errors = self.errors

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(parent, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced._perfbench_span = name
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every binding of every target; raise if any is left unwrapped."""
        hooks = {
            "channels.apply": self._on_apply,
            "harness.suite": self._on_suite,
            "qdiv.evaluate": self._on_evaluate,
            "sampling.derive_rng": self._on_derive_rng,
        }
        for _, module, _ in targets:
            importlib.import_module(module)
        wrappers = {}
        for name, module, attr in targets:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        modules = divergelab_modules()
        for namespace, key, fn in _bindings(modules, wrappers):
            namespace[key] = wrappers[id(fn)][1]
            self._patched.append((namespace, key, fn))
        left = _bindings(modules, wrappers) + _held_in_sequences(modules, wrappers)
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings left: {left}")

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            namespace[key] = fn
        self._patched.clear()
        wrapped = [
            f"{m.__name__}.{k}"
            for m in divergelab_modules()
            for k, v in vars(m).items()
            if hasattr(v, "_perfbench_span")
        ]
        if wrapped:
            raise RuntimeError(f"wrappers left after uninstall: {wrapped}")

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name id, parent index (-1 at the root), start,
        end, and self time (duration minus the children's durations)."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {"name": name, "parent": parent, "start": start, "end": end, "self": duration - child}

    def layer_metrics(self, report_bytes: int) -> dict:
        """Every per-layer metric except ``trace.overhead_ratio``, which
        needs the untraced run; layers that did not run report zero."""
        a = self.arrays()
        ids = {n: i for i, n in enumerate(self.names)}
        name, parent = a["name"], a["parent"]
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        outermost = parent_name != name

        def calls(span: str) -> int:
            return int(np.count_nonzero(outermost & (name == ids[span]))) if span in ids else 0

        def self_ms(span: str) -> float:
            return float(a["self"][name == ids[span]].sum() * 1e3) if span in ids else 0.0

        def total_ms(span: str) -> float:
            if span not in ids:
                return 0.0
            pick = outermost & (name == ids[span])
            return float((a["end"][pick] - a["start"][pick]).sum() * 1e3)

        out = {}
        for span in (
            "matcore.eig_hermitian",
            "matcore.schatten_norm",
            "states.validate_density",
            "states.sample",
            "qdiv.evaluate",
            "sampling.haar_unitary",
            "sampling.derive_rng",
            "channels.construct",
            "channels.apply",
        ):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_ms"] = self_ms(span)
        out["states.validate_density.errors"] = self.errors.get("states.validate_density", 0)
        for tag in QDIV_TAGS:
            out[f"qdiv.{tag}.self_ms"] = self_ms(f"qdiv.{tag}")
        out["channels.apply.kraus_ops"] = self.kraus_ops
        search_s = total_ms("search.optimal_pair_search") / 1e3
        out["search.objective.calls"] = self.objective_calls
        out["search.evals_per_s"] = self.objective_calls / search_s if search_s > 0 else 0.0
        out["search.improve_ratio"] = (
            self.improvements / self.objective_calls if self.objective_calls else 0.0
        )
        out["search.restarts"] = self.restarts
        out["search.self_ms"] = self_ms("search.optimal_pair_search")
        out["harness.trials"] = self.harness_trials
        out["harness.self_ms"] = self_ms("harness.suite")
        out["cli.self_ms"] = self_ms("cli.main")
        out["cli.report_write_ms"] = total_ms("cli.report_write")
        out["cli.report_bytes"] = report_bytes
        out["trace.spans"] = len(name)
        return out
