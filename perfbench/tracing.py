"""Spans and counters around calls into cuederiv, for the traced run.

The tracer wraps library functions by attribute: every name in a cuederiv
module's namespace that refers to a traced function is replaced by a wrapper,
so each caller's own lookup (``cli.moment_exact``, ``exact_moments.det_exact``,
the module-global ``rmt_mc.haar_phases``) reaches it.  ``numpy.linalg.qr`` and
``numpy.linalg.eigvals`` are wrapped on ``numpy.linalg``, where ``rmt_mc``
looks them up.  Nothing under ``src/`` changes.

Spans are kept in memory as (name, start, end, parent, attrs).  The benchmark
runs every Monte Carlo task at ``--threads 1``, so all spans come from one
thread and a single stack gives each span its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from numbers import Rational

import numpy as np

# Private functions that mark a layer boundary; every public function of a
# cuederiv module is traced as well.
_PRIVATE_TRACED = {"rmt_mc": ("_critical_point_moduli",)}
_NUMPY_TRACED = ("qr", "eigvals")
_TABLE_FUNCTIONS = ("zeta.divisor_table", "zeta.log_convolution_table")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg_attrs(name, args) -> dict:
    """Counters recorded from a call's arguments, before it runs."""
    if name == "rmt_mc.haar_phases":
        return {"N": int(args[0]), "draws": int(args[1])}
    if name == "rmt_mc._critical_point_moduli":
        batch, n = args[0].shape
        return {"N": int(n), "draws": int(batch)}
    if name in ("exact_moments.moment_exact", "exact_moments.moment_structure"):
        return {"N": int(args[0]), "s": int(args[1]), "u": str(args[2]),
                "rational": isinstance(args[2], Rational)}
    if name in _TABLE_FUNCTIONS:
        return {"key": (name, int(args[0]), int(args[1]))}
    return {}


def _result_attrs(name, result) -> dict:
    """Counters recorded from a call's result, when it returns."""
    if name in ("rmt_mc.estimate_moment", "rmt_mc.estimate_joint_moment"):
        return {"samples": result.samples, "resampled": result.resampled,
                "points_per_draw": 1 if name.endswith("estimate_moment") else 2}
    if name == "zeta.dirichlet_convolve":
        return {"bytes": int(result.nbytes)}
    return {}


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``rmt_mc``; counts warn()."""

    def __init__(self, tracer: "Tracer", module):
        self._tracer = tracer
        self._module = module

    def warn(self, *args, **kwargs):
        self._tracer.warnings += 1
        return self._module.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` patch names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.warnings = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                        attrs=_arg_attrs(name, args))
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.attrs.update(_result_attrs(name, result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: module
            for name, module in sys.modules.items()
            if name.startswith("cuederiv.") and module is not None
        }
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                own = getattr(obj, "__module__", None) == module.__name__
                public = not attr.startswith("_") or attr in _PRIVATE_TRACED.get(short, ())
                if own and public and callable(obj) and not isinstance(obj, type):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for attr in _NUMPY_TRACED:
            self._patch(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"numpy.linalg.{attr}"))
        rmt_mc = modules["rmt_mc"]
        self._patch(rmt_mc, "warnings", _CountingWarnings(self, rmt_mc.warnings))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

PER_LAYER = (
    "cli.main.self_s",
    "rmt_mc.haar_phases.busy_s",
    "rmt_mc.haar_phases.draws",
    "rmt_mc.haar_phases.ginibre_s",
    "rmt_mc.haar_phases.qr_s",
    "rmt_mc.haar_phases.eigvals_s",
    "rmt_mc.estimate.self_s",
    "rmt_mc.estimate.points",
    "rmt_mc.estimate.resampled",
    "rmt_mc.estimate.useful_ratio",
    "rmt_mc.mean_zero_counts.self_s",
    "rmt_mc.mean_zero_counts.eigvals_s",
    "rmt_mc.zero_warnings",
    "exact_moments.moment_exact.self_s",
    "exact_moments.moment_exact.calls",
    "linalg.det_exact.busy_s",
    "linalg.det_exact.calls",
    "linalg.det_float.busy_s",
    "linalg.det_float.calls",
    "exact_moments.structure_b_expansion.busy_s",
    "exact_moments.structure_b_expansion.calls",
    "exact_moments.structure_c_upoly.self_s",
    "exact_moments.moment_structure.self_s",
    "combinatorics.busy_s",
    "asymptotics.busy_s",
    "specfun.busy_s",
    "zeta.dirichlet_convolve.busy_s",
    "zeta.dirichlet_convolve.calls",
    "zeta.dirichlet_convolve.bytes_computed",
    "zeta.tables.calls",
    "zeta.tables.distinct",
    "zeta.series.self_s",
    "zeta.primes_up_to.busy_s",
    "zeta.arithmetic_factor.self_s",
    "zeta.prime_zeta.busy_s",
)

_ESTIMATORS = ("rmt_mc.estimate_moment", "rmt_mc.estimate_joint_moment")
_ZERO_COUNTING = ("rmt_mc.mean_zero_counts", "rmt_mc._critical_point_moduli")
_SERIES = ("zeta.deriv_moment_series", "zeta.lindelof_series")


class SpanIndex:
    """Self times, ancestry and sums over the spans of one traced pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        self.self_time = [span.duration - child_time[i] for i, span in enumerate(spans)]

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def matching(self, match):
        return [i for i, span in enumerate(self.spans) if match(span.name)]

    def busy(self, match) -> float:
        """Wall time inside matching spans, counting nested matches once."""
        return sum(
            self.spans[i].duration
            for i in self.matching(match)
            if not any(match(a.name) for a in self.ancestors(i))
        )

    def self_sum(self, match, under=None) -> float:
        """Summed self time of matching spans (optionally with an ancestor in `under`)."""
        return sum(
            self.self_time[i]
            for i in self.matching(match)
            if under is None
            or self.spans[i].name in under
            or any(a.name in under for a in self.ancestors(i))
        )

    def child_sum(self, name: str, parents) -> float:
        """Duration of spans called `name` whose direct parent is in `parents`."""
        return sum(
            span.duration
            for span in self.spans
            if span.name == name and span.parent is not None
            and self.spans[span.parent].name in parents
        )

    def under(self, name: str, ancestors) -> float:
        """Duration of spans called `name` with any ancestor in `ancestors`."""
        return sum(
            self.spans[i].duration
            for i in self.matching(lambda n: n == name)
            if any(a.name in ancestors for a in self.ancestors(i))
        )

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def attr_sum(self, name: str, key: str) -> int:
        return sum(span.attrs.get(key, 0) for span in self.spans if span.name == name)


def _is(*names):
    return lambda name: name in names


def _in_module(module):
    prefix = module + "."
    return lambda name: name.startswith(prefix)


def layer_metrics(spans: list[Span], warnings: int) -> dict[str, float]:
    """Every per-layer metric of one pass; 0 where the layer did not run."""
    ix = SpanIndex(spans)
    haar = ("rmt_mc.haar_phases",)
    requested = sum(ix.attr_sum(name, "samples") for name in _ESTIMATORS)
    draws_for_estimates = sum(
        span.attrs["draws"]
        for i, span in enumerate(spans)
        if span.name == "rmt_mc.haar_phases"
        and any(a.name in _ESTIMATORS for a in ix.ancestors(i))
    )
    points = sum(
        (span.attrs.get("samples", 0) + span.attrs.get("resampled", 0))
        * span.attrs.get("points_per_draw", 0)
        for span in spans
        if span.name in _ESTIMATORS
    )
    table_keys = [span.attrs["key"] for span in spans if span.name in _TABLE_FUNCTIONS]
    return {
        "cli.main.self_s": ix.self_sum(_is("cli.main")),
        "rmt_mc.haar_phases.busy_s": ix.busy(_is(*haar)),
        "rmt_mc.haar_phases.draws": ix.attr_sum("rmt_mc.haar_phases", "draws"),
        "rmt_mc.haar_phases.ginibre_s": ix.self_sum(_is(*haar)),
        "rmt_mc.haar_phases.qr_s": ix.child_sum("numpy.linalg.qr", haar),
        "rmt_mc.haar_phases.eigvals_s": ix.child_sum("numpy.linalg.eigvals", haar),
        "rmt_mc.estimate.self_s": ix.self_sum(_is(*_ESTIMATORS)),
        "rmt_mc.estimate.points": points,
        "rmt_mc.estimate.resampled": sum(ix.attr_sum(n, "resampled") for n in _ESTIMATORS),
        "rmt_mc.estimate.useful_ratio": requested / draws_for_estimates if draws_for_estimates else 0.0,
        "rmt_mc.mean_zero_counts.self_s": ix.self_sum(_is(*_ZERO_COUNTING), under=_ZERO_COUNTING[:1]),
        "rmt_mc.mean_zero_counts.eigvals_s": ix.under("numpy.linalg.eigvals", _ZERO_COUNTING[1:]),
        "rmt_mc.zero_warnings": warnings,
        "exact_moments.moment_exact.self_s": ix.self_sum(_is("exact_moments.moment_exact")),
        "exact_moments.moment_exact.calls": ix.count("exact_moments.moment_exact"),
        "linalg.det_exact.busy_s": ix.busy(_is("linalg.det_exact")),
        "linalg.det_exact.calls": ix.count("linalg.det_exact"),
        "linalg.det_float.busy_s": ix.busy(_is("linalg.det_float")),
        "linalg.det_float.calls": ix.count("linalg.det_float"),
        "exact_moments.structure_b_expansion.busy_s": ix.busy(_is("exact_moments.structure_b_expansion")),
        "exact_moments.structure_b_expansion.calls": ix.count("exact_moments.structure_b_expansion"),
        "exact_moments.structure_c_upoly.self_s": ix.self_sum(_is("exact_moments.structure_c_upoly")),
        "exact_moments.moment_structure.self_s": ix.self_sum(_is("exact_moments.moment_structure")),
        "combinatorics.busy_s": ix.busy(_in_module("combinatorics")),
        "asymptotics.busy_s": ix.busy(_in_module("asymptotics")),
        "specfun.busy_s": ix.busy(_in_module("specfun")),
        "zeta.dirichlet_convolve.busy_s": ix.busy(_is("zeta.dirichlet_convolve")),
        "zeta.dirichlet_convolve.calls": ix.count("zeta.dirichlet_convolve"),
        "zeta.dirichlet_convolve.bytes_computed": ix.attr_sum("zeta.dirichlet_convolve", "bytes"),
        "zeta.tables.calls": len(table_keys),
        "zeta.tables.distinct": len(set(table_keys)),
        "zeta.series.self_s": ix.self_sum(_is(*_SERIES)),
        "zeta.primes_up_to.busy_s": ix.busy(_is("zeta.primes_up_to")),
        "zeta.arithmetic_factor.self_s": ix.self_sum(_is("zeta.arithmetic_factor")),
        "zeta.prime_zeta.busy_s": ix.busy(_is("zeta.prime_zeta")),
    }


# ---------------------------------------------------------------------------
# The per-draw and exact-route baseline table of ROADMAP.md, from the spans
# ---------------------------------------------------------------------------

# ROADMAP.md "Baseline, measured at this re-anchor" (2 cores, Python 3.11.7,
# numpy 2.4.6): microseconds per Haar draw, and seconds per exact call.
ROADMAP_BASELINE = {
    "n6.ginibre_us": 3.0, "n6.qr_us": 8.0, "n6.eigvals_us": 25.0,
    "n60.ginibre_us": 300.0, "n60.qr_us": 400.0, "n60.eigvals_us": 2300.0,
    "n60.critical_us": 2600.0,
    "n100.ginibre_us": 560.0, "n100.qr_us": 2600.0, "n100.eigvals_us": 11400.0,
    "n100.critical_us": 17000.0,
    "moment_exact_10_8_s": 1.8,
    "moment_structure_10_4_s": 1.44,
}


def baseline_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """This pass's figures for each ROADMAP baseline entry it exercised."""
    ix = SpanIndex(spans)
    found: dict[str, float] = {}
    for n in (6, 60, 100):
        haar = [i for i, s in enumerate(spans) if s.name == "rmt_mc.haar_phases" and s.attrs["N"] == n]
        draws = sum(spans[i].attrs["draws"] for i in haar)
        if draws:
            found[f"n{n}.ginibre_us"] = 1e6 * sum(ix.self_time[i] for i in haar) / draws
            for op in _NUMPY_TRACED:
                found[f"n{n}.{op}_us"] = 1e6 * sum(
                    s.duration for s in spans
                    if s.name == f"numpy.linalg.{op}" and s.parent in haar
                ) / draws
        critical = [s for s in spans if s.name == "rmt_mc._critical_point_moduli" and s.attrs["N"] == n]
        critical_draws = sum(s.attrs["draws"] for s in critical)
        if critical_draws:
            found[f"n{n}.critical_us"] = 1e6 * sum(s.duration for s in critical) / critical_draws
    for name, key, (n, s) in (
        ("exact_moments.moment_exact", "moment_exact_10_8_s", (10, 8)),
        ("exact_moments.moment_structure", "moment_structure_10_4_s", (10, 4)),
    ):
        calls = [sp for sp in spans if sp.name == name
                 and (sp.attrs["N"], sp.attrs["s"], sp.attrs["u"]) == (n, s, "1/2")]
        if calls:
            found[key] = sum(sp.duration for sp in calls) / len(calls)
    return {
        key: {"measured": value, "roadmap": ROADMAP_BASELINE[key],
              "ratio": value / ROADMAP_BASELINE[key]}
        for key, value in found.items()
    }


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans; the start is relative to the first span."""
    origin = spans[0].start if spans else 0.0
    return [
        {"name": s.name, "start": s.start - origin, "end": s.end - origin,
         "parent": s.parent,
         "attrs": {k: list(v) if isinstance(v, tuple) else v for k, v in s.attrs.items()}}
        for s in spans
    ]
