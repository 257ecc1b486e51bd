"""Which absg2 functions the traced run wraps, and the per-layer metrics
derived from the tracer's counters.

Layers are the package's modules.  Each public function is wrapped where the
calling module looks it up, so only calls that cross a module boundary count.
The chunk kernel's stages (RNG, gather, exp, reduction) are private to
``absg2.montecarlo._chunk_moments`` and are not split here.
"""

from __future__ import annotations

import math
import types

# Metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "cli.errors": "count",
    "analytic.calls": "count",
    "analytic.busy_s": "s",
    "analytic.cells": "count",
    "analytic.ns_per_cell": "ns",
    "montecarlo.calls": "count",
    "montecarlo.self_s": "s",
    "montecarlo.realizations": "count",
    "montecarlo.chunks": "count",
    "montecarlo.term_evals": "count",
    "montecarlo.ns_per_term_eval": "ns",
    "montecarlo.bytes_computed": "B",
    "montecarlo.errors": "count",
    "montecarlo.fit_calls": "count",
    "montecarlo.fit_busy_s": "s",
    "optimize.calls": "count",
    "optimize.busy_s": "s",
    "probability.calls": "count",
    "probability.busy_s": "s",
    "alternatives.calls": "count",
    "alternatives.busy_s": "s",
    "core.configs": "count",
    "core.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _count_cells(stats, notes, parent_notes, args, kwargs, result):
    stats.add("cells", getattr(result, "size", 1))


def _count_curve_cells(stats, notes, parent_notes, args, kwargs, result):
    stats.add("cells", len(result.g2))


def _note_terms(stats, notes, parent_notes, args, kwargs, result):
    parent_notes["terms"] = len(result)


def _note_slots(stats, notes, parent_notes, args, kwargs, result):
    parent_notes["slots"] = result.n_slots


def _note_relabeled(stats, notes, parent_notes, args, kwargs, result):
    parent_notes["terms"], parent_notes["slots"] = len(result[0]), result[1]


def _count_config(stats, notes, parent_notes, args, kwargs, result):
    stats.add("configs", 1)


def _count_realizations(stats, notes, parent_notes, args, kwargs, result):
    n = result.n_realizations
    settings = args[1] if len(args) > 1 else kwargs.get("settings")
    chunk = getattr(settings, "parallel_chunk", None)
    terms, slots = notes.get("terms", 0), notes.get("slots", 0)
    stats.add("realizations", n)
    stats.add("chunks", math.ceil(n / chunk) if chunk else 0)
    stats.add("term_evals", n * terms)
    # Computed, not measured: float64 elements of the arrays _chunk_moments
    # creates per realization (slots drawn, 12 per term for the gathers, exp
    # and weighting, 25 for the U/W sums, beat components and moment products).
    stats.add("bytes_computed", 8 * n * (slots + 12 * terms + 25) if terms else 0)


_CALLERS = ("cli", "montecarlo", "optimize", "analytic", "alternatives", "probability", "core")
_FIT = {"visibility_from_curve", "fit_cosine"}
_OBSERVERS = {
    "visibility_expression": _count_cells,
    "visibility_analytic": _count_cells,
    "g2_analytic": _count_cells,
    "g2_curve_analytic": _count_curve_cells,
    "enumerate_alternatives": _note_terms,
    "phase_model": _note_slots,
    "independent_phase_slots": _note_relabeled,
    "g2_monte_carlo": _count_realizations,
}


def install(tracer) -> None:
    """Wrap every function one absg2 module imports from another, and the
    constructors of the two configuration classes.

    The layer is the defining module; the fit functions of ``montecarlo``
    form their own layer ``montecarlo.fit``.  Found by inspection rather than
    listed, so a call a later version adds across modules is traced too.
    Calls into ``analytic`` are per cell and only counted, not spanned.
    """
    import importlib

    for caller in _CALLERS:
        module = importlib.import_module(f"absg2.{caller}")
        for name, obj in list(vars(module).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            origin = obj.__module__
            if not origin.startswith("absg2.") or origin == module.__name__:
                continue
            layer = origin.split(".")[1]
            if layer == "montecarlo" and name in _FIT:
                layer = "montecarlo.fit"
            tracer.wrap(module, name, layer, spanned=layer != "analytic",
                        observe=_OBSERVERS.get(name))
    # Methods are wrapped on their class, which keeps isinstance checks working.
    from absg2.analytic import ClosedFormG2
    from absg2.core import BeamSplitter, ExperimentConfig

    # The CLI evaluates closed-form curves point by point through this method.
    tracer.wrap(ClosedFormG2, "value", "analytic", spanned=False, observe=_count_cells)
    tracer.wrap(ExperimentConfig, "__init__", "core", observe=_count_config)
    tracer.wrap(BeamSplitter, "__init__", "core")


def per_layer_metrics(delta: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the change in counters
    (the two ``trace.*`` metrics come from the runner)."""

    def get(key):
        return delta.get(key, 0)

    def per(total_s, count):
        return total_s / count * 1e9 if count else 0.0

    return {
        "cli.calls": get("cli.calls"),
        "cli.self_s": get("cli.self_s"),
        "cli.rows_written": get("cli.rows_written"),
        "cli.bytes_written": get("cli.bytes_written"),
        "cli.errors": get("cli.errors"),
        "analytic.calls": get("analytic.calls"),
        "analytic.busy_s": get("analytic.busy_s"),
        "analytic.cells": get("analytic.cells"),
        "analytic.ns_per_cell": per(get("analytic.busy_s"), get("analytic.cells")),
        "montecarlo.calls": get("montecarlo.calls"),
        "montecarlo.self_s": get("montecarlo.self_s"),
        "montecarlo.realizations": get("montecarlo.realizations"),
        "montecarlo.chunks": get("montecarlo.chunks"),
        "montecarlo.term_evals": get("montecarlo.term_evals"),
        "montecarlo.ns_per_term_eval": per(get("montecarlo.self_s"), get("montecarlo.term_evals")),
        "montecarlo.bytes_computed": get("montecarlo.bytes_computed"),
        "montecarlo.errors": get("montecarlo.errors") + get("montecarlo.fit.errors"),
        "montecarlo.fit_calls": get("montecarlo.fit.calls"),
        "montecarlo.fit_busy_s": get("montecarlo.fit.busy_s"),
        "optimize.calls": get("optimize.calls"),
        "optimize.busy_s": get("optimize.busy_s"),
        "probability.calls": get("probability.calls"),
        "probability.busy_s": get("probability.busy_s"),
        "alternatives.calls": get("alternatives.calls"),
        "alternatives.busy_s": get("alternatives.busy_s"),
        "core.configs": get("core.configs"),
        "core.busy_s": get("core.busy_s"),
    }
