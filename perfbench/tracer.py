"""Span tracer around padia's public functions, installed from outside.

The tracer replaces every public function of the six padia modules with a
wrapper, both at its module attribute and at every name another padia module
imported it under (``cli.evolve``, ``sweeps.evolve``, ``oracle.eigenvalues``
...).  Nothing inside ``src/`` changes; ``uninstall`` puts the originals back.

A wrapper records a span (function, start, end, parent span) when the call
enters a layer from another layer or from the benchmark.  A call from a
function of the same layer only bumps the call counter and is charged to the
caller, so the closed-form helpers that run millions of times per pass do
not each pay for a span.  Functions in ALWAYS_SPAN get a span even from
their own layer, because a metric needs their own time or arguments.

Spans live in flat arrays in memory until the caller takes a snapshot.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from dataclasses import dataclass

LAYERS = ("model", "spectrum", "dynamics", "oracle", "sweeps", "cli")

# Per-cell float formatter: a wrapper would sit inside the emitter's loop.
UNWRAPPED = {"sweeps.format_float"}

SCHEDULE_BUILDERS = (
    "dynamics.make_partial_schedule",
    "dynamics.make_global_schedule",
    "dynamics.make_local_schedule",
)
EMITTERS = (
    "sweeps.rows_to_csv",
    "sweeps.sweep_records_to_rows",
    "sweeps.spectral_points_to_rows",
    "sweeps.bound_reports_to_rows",
)
ALWAYS_SPAN = {
    "dynamics.evolve",
    "dynamics.draw_repeat_stats",
    "oracle.certify_reduction",
    "oracle.dense_spectrum",
    "oracle.full_evolve",
    "sweeps.fit_loglog",
    *SCHEDULE_BUILDERS,
    *EMITTERS,
}


# Counters taken from a call's arguments (bound by name) or its result.
# The *_work_* counts are computed from array sizes, not measured.
def _evolve(counters, args, result):
    counters["dynamics.steps"] += args["steps"]


def _draws(counters, args, result):
    counters["dynamics.draws"] += result.rounds_used


def _certify(counters, args, result):
    counters["oracle.eigh_work_n3"] += args["full"].n_items ** 3 * len(args["s_grid"])


def _dense_spectrum(counters, args, result):
    counters["oracle.eigh_work_n3"] += args["full"].n_items ** 3


def _full_evolve(counters, args, result):
    counters["oracle.evolve_steps"] += args["steps"]
    # four RK4 stages, two N x N matvecs each
    counters["oracle.matvec_work_n2"] += 8 * args["steps"] * args["full"].n_items ** 2


def _csv(counters, args, result):
    counters["sweeps.emit_bytes"] += len(result)


def _cli_main(counters, args, result):
    argv = list(args.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counters["cli.out_bytes"] += os.path.getsize(path)


HOOKS = {
    "dynamics.evolve": _evolve,
    "dynamics.draw_repeat_stats": _draws,
    "oracle.certify_reduction": _certify,
    "oracle.dense_spectrum": _dense_spectrum,
    "oracle.full_evolve": _full_evolve,
    "sweeps.rows_to_csv": _csv,
    "cli.main": _cli_main,
}
COUNTERS = (
    "dynamics.steps", "dynamics.draws", "oracle.eigh_work_n3", "oracle.evolve_steps",
    "oracle.matvec_work_n2", "sweeps.emit_bytes", "cli.out_bytes",
)


@dataclass
class Snapshot:
    """Spans and counters of one traced interval."""

    names: list[str]
    fn_ids: array
    parents: array
    starts: array
    ends: array
    calls: list[int]
    errors: dict[str, int]
    counters: dict[str, float]


class Tracer:
    """Wraps padia's public functions; ``install``/``uninstall`` swap them in."""

    def __init__(self):
        modules = {layer: importlib.import_module(f"padia.{layer}") for layer in LAYERS}
        self._namespaces = [importlib.import_module("padia"), *modules.values()]
        self.names: list[str] = []
        originals = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    originals[name] = value

        self._fn_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._layers = [""]
        self._calls: list[int] = []
        self._errors = {layer: 0 for layer in LAYERS}
        self._counters: dict[str, float] = {}
        self._to_wrapper: dict[int, object] = {}  # id(original) -> wrapper
        self._to_original: dict[int, object] = {}  # id(wrapper) -> original
        for name, fn in sorted(originals.items()):
            wrapper = self._wrap(len(self.names), name, fn)
            self.names.append(name)
            self._calls.append(0)
            self._to_wrapper[id(fn)] = wrapper
            self._to_original[id(wrapper)] = fn
        self.reset()

    def _wrap(self, fid: int, name: str, fn):
        layer = name.split(".")[0]
        always = name in ALWAYS_SPAN
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)
        fn_ids, parents, starts, ends = self._fn_ids, self._parents, self._starts, self._ends
        stack, layers, calls, errors = self._stack, self._layers, self._calls, self._errors
        counters = self._counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            caller_layer = layers[-1]
            if caller_layer == layer and not always:
                return fn(*args, **kwargs)
            index = len(fn_ids)
            fn_ids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            layers.append(layer)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if caller_layer != layer:
                    errors[layer] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                layers.pop()
            if hook is not None:
                hook(counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _rebind(self, mapping: dict[int, object]) -> None:
        for module in self._namespaces:
            replace = {
                attr: mapping[id(value)]
                for attr, value in vars(module).items()
                if id(value) in mapping
            }
            for attr, value in replace.items():
                setattr(module, attr, value)

    def install(self) -> None:
        self._rebind(self._to_wrapper)

    def uninstall(self) -> None:
        self._rebind(self._to_original)

    def reset(self) -> None:
        for arr in (self._fn_ids, self._parents, self._starts, self._ends):
            del arr[:]
        for i in range(len(self._calls)):
            self._calls[i] = 0
        for layer in self._errors:
            self._errors[layer] = 0
        self._counters.update(dict.fromkeys(COUNTERS, 0))

    def snapshot(self) -> Snapshot:
        return Snapshot(
            names=list(self.names),
            fn_ids=array("i", self._fn_ids),
            parents=array("i", self._parents),
            starts=array("d", self._starts),
            ends=array("d", self._ends),
            calls=list(self._calls),
            errors=dict(self._errors),
            counters=dict(self._counters),
        )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so covered time is never counted twice.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        low, high = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda k: starts[k]):
            begin, finish = max(starts[kid], low), min(ends[kid], high)
            if finish <= begin:
                continue
            if run_end is None or begin > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = begin, finish
            else:
                run_end = max(run_end, finish)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


def layer_metrics(snap: Snapshot) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(snap.starts, snap.ends, snap.parents)
    fn_self = [0.0] * len(snap.names)
    fn_total = [0.0] * len(snap.names)
    fn_spans = [0] * len(snap.names)
    for i, fid in enumerate(snap.fn_ids):
        fn_self[fid] += own[i]
        fn_total[fid] += snap.ends[i] - snap.starts[i]
        fn_spans[fid] += 1
    index = {name: i for i, name in enumerate(snap.names)}

    def calls(name):
        return snap.calls[index[name]]

    def self_s(*names):
        return sum(fn_self[index[n]] for n in names)

    def total_s(*names):
        return sum(fn_total[index[n]] for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_entries = {layer: 0 for layer in LAYERS}
    for i, name in enumerate(snap.names):
        layer = name.split(".")[0]
        layer_self[layer] += fn_self[i]
        layer_entries[layer] += fn_spans[i]
    c = snap.counters
    steps = c["dynamics.steps"]
    evolve_steps = c["oracle.evolve_steps"]
    spectrum_calls = layer_entries["spectrum"]
    m = {
        "model.calls": layer_entries["model"],
        "model.self_s": layer_self["model"],
        "spectrum.calls": spectrum_calls,
        "spectrum.self_s": layer_self["spectrum"],
        "spectrum.us_per_call": (
            1e6 * layer_self["spectrum"] / spectrum_calls if spectrum_calls else 0.0
        ),
        "dynamics.rounds": calls("dynamics.evolve"),
        "dynamics.steps": steps,
        "dynamics.self_s": layer_self["dynamics"],
        "dynamics.ns_per_step": 1e9 * self_s("dynamics.evolve") / steps if steps else 0.0,
        "dynamics.schedule_s": total_s(*SCHEDULE_BUILDERS),
        "dynamics.draws": c["dynamics.draws"],
        "oracle.cases": calls("oracle.certify_reduction"),
        "oracle.self_s": layer_self["oracle"],
        "oracle.certify_self_s": self_s("oracle.certify_reduction"),
        "oracle.eigh_work_n3": c["oracle.eigh_work_n3"],
        "oracle.evolve_steps": evolve_steps,
        "oracle.evolve_self_s": self_s("oracle.full_evolve"),
        "oracle.ms_per_step": (
            1e3 * self_s("oracle.full_evolve") / evolve_steps if evolve_steps else 0.0
        ),
        "oracle.matvec_work_n2": c["oracle.matvec_work_n2"],
        "sweeps.records": calls("sweeps.make_sweep_record"),
        "sweeps.self_s": layer_self["sweeps"],
        "sweeps.fit_s": total_s("sweeps.fit_loglog"),
        "sweeps.emit_s": total_s(*EMITTERS),
        "sweeps.emit_bytes": c["sweeps.emit_bytes"],
        "cli.calls": calls("cli.main"),
        "cli.self_s": layer_self["cli"],
        "cli.out_bytes": c["cli.out_bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = snap.errors[layer]
    return m
