"""The library's public names the benchmark calls, and the per-layer metrics.

Every name is resolved once at worker start-up; a missing one aborts the
worker instead of silently skipping jobs.  Only public, stable names are
bound: no `_`-prefixed helper and no alias slated for removal
(`polys.largest_real_root` rather than `dominant_root`, `Morphism.apply`
rather than `verify.apply_morphism`).
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

from spans import Recorder, Span, self_times

LAYERS = ("construct", "automaton", "analyze", "recur", "polys", "oracle",
          "verify", "words")

CALLS = (
    "construct.build_direct", "construct.build_avoidance", "construct.forbidden_set",
    "automaton.minimize", "automaton.isomorphic",
    "analyze.analyze", "analyze.witness_morphisms", "analyze.Morphism.apply",
    "recur.transfer_matrix", "recur.sequence", "recur.matrix_min_poly", "recur.lda",
    "recur.minimal_recurrence", "recur.asymptotic_fit",
    "polys.largest_real_root",
    "oracle.brute_count_profile",
    "verify.check_stabilization", "verify.perturbed_symmetry", "verify.thue_morse",
    "words.palindromic_factors",
)

TYPES = (
    "construct.AllowedSet", "construct.MaxDistinct", "construct.MaxLen",
    "construct.MaxLenByParity", "construct.MaxCountByParity", "words.Word",
)


class BindError(RuntimeError):
    """The library lacks a name the benchmark calls."""


def bind() -> dict[str, object]:
    """Resolve every name in CALLS and TYPES, or raise naming all that are missing."""
    resolved, missing = {}, []
    for name in CALLS + TYPES:
        module, *attrs = name.split(".")
        try:
            obj = importlib.import_module(f"palfac.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{name} ({exc})")
            continue
        resolved[name] = obj
    if missing:
        raise BindError("cannot bind: " + "; ".join(missing))
    return resolved


def _short(name: str) -> str:
    return name.rsplit(".", 1)[1]


# size counters read off each call's arguments and result
COUNTERS = {
    "construct.build_direct": lambda a, k, out: {"raw_states": out.state_count},
    "automaton.minimize": lambda a, k, out: {"in_states": a[0].state_count,
                                             "out_states": out.state_count},
    "analyze.analyze": lambda a, k, out: {"periodic_words": len(out.periodic_words)},
    "recur.sequence": lambda a, k, out: {"state_terms": a[0].size * len(out)},
    "recur.matrix_min_poly": lambda a, k, out: {"degree": out.degree},
    "recur.minimal_recurrence": lambda a, k, out: {"order": out[0].degree},
    "polys.largest_real_root": lambda a, k, out: {"degree": a[0].degree},
    "oracle.brute_count_profile": lambda a, k, out: {"words": sum(out)},
    "verify.check_stabilization": lambda a, k, out: {
        "letters": sum((len(a[1]) + len(a[2])) * (1 << n) - len(a[2])
                       for n in range(a[3] + 1))},
    "words.palindromic_factors": lambda a, k, out: {"letters": len(a[0])},
}


def make_api(bound: dict[str, object], recorder: Recorder | None = None) -> SimpleNamespace:
    """Namespace of the bound names; with a recorder every call gets a span."""
    api = {}
    for name, obj in bound.items():
        if recorder is not None and name in CALLS:
            obj = recorder.wrap(name, obj, COUNTERS.get(name))
        api[_short(name)] = obj
    return SimpleNamespace(**api)


PER_LAYER = (
    "construct.build_direct.s", "construct.raw_states", "construct.raw_states_per_s",
    "construct.rss_growth_mb", "construct.useful_ratio", "construct.build_avoidance.s",
    "automaton.minimize.s", "automaton.minimize.in_states",
    "automaton.minimize.out_states", "automaton.states_per_s", "automaton.isomorphic.s",
    "analyze.analyze.s", "analyze.periodic_words",
    "recur.transfer_matrix.s", "recur.sequence.s", "recur.sequence.state_terms",
    "recur.matrix_min_poly.s", "recur.matrix_min_poly.degree", "recur.lda.s",
    "recur.minimal_recurrence.s", "recur.minimal_recurrence.order",
    "recur.asymptotic_fit.s", "recur.routes_agree_ratio",
    "polys.largest_real_root.s", "polys.largest_real_root.degree",
    "oracle.brute_count_profile.s", "oracle.words", "oracle.words_per_s",
    "verify.check_stabilization.s", "verify.perturbed_symmetry.s", "verify.letters",
    "words.palindromic_factors.s", "words.palindromic_factors.letters",
) + tuple(f"{layer}.{what}" for layer in LAYERS for what in ("share", "errors")) + (
    "bench.check.s", "bench.self.s", "trace.accounted_ratio", "trace.overhead_ratio",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float, routes: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced pass.

    routes is (jobs whose two annihilator routes agreed, jobs running both).
    trace.overhead_ratio needs an untraced pass and is filled in by the caller.
    """
    time_of: dict[str, float] = {}
    count: dict[str, float] = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    previous = None  # jobs pass build_direct's result straight to minimize
    useful = 0
    rss_growth = 0.0
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer not in busy:
            continue
        time_of[s.name] = time_of.get(s.name, 0.0) + s.duration
        busy[layer] += s.duration
        errors[layer] += s.error
        for key, value in s.counters.items():
            count[f"{s.name}.{key}"] = count.get(f"{s.name}.{key}", 0) + value
        if s.name == "construct.build_direct":
            rss_growth += s.rss_growth_mb
        elif s.name == "automaton.minimize" and previous == "construct.build_direct":
            useful += s.counters.get("out_states", 0)
        previous = s.name

    own = self_times(spans)
    jobs_self = sum(t for s, t in zip(spans, own) if s.name == "bench.job")
    check_s = sum(t for s, t in zip(spans, own) if s.name == "bench.check")
    t = time_of.get
    c = count.get
    raw = c("construct.build_direct.raw_states", 0)
    out = {
        "construct.build_direct.s": t("construct.build_direct", 0.0),
        "construct.raw_states": raw,
        "construct.raw_states_per_s": _ratio(raw, t("construct.build_direct", 0.0)),
        "construct.rss_growth_mb": rss_growth,
        "construct.useful_ratio": _ratio(useful, raw),
        "construct.build_avoidance.s": t("construct.build_avoidance", 0.0),
        "automaton.minimize.s": t("automaton.minimize", 0.0),
        "automaton.minimize.in_states": c("automaton.minimize.in_states", 0),
        "automaton.minimize.out_states": c("automaton.minimize.out_states", 0),
        "automaton.states_per_s": _ratio(c("automaton.minimize.in_states", 0),
                                         t("automaton.minimize", 0.0)),
        "automaton.isomorphic.s": t("automaton.isomorphic", 0.0),
        "analyze.analyze.s": t("analyze.analyze", 0.0),
        "analyze.periodic_words": c("analyze.analyze.periodic_words", 0),
        "recur.transfer_matrix.s": t("recur.transfer_matrix", 0.0),
        "recur.sequence.s": t("recur.sequence", 0.0),
        "recur.sequence.state_terms": c("recur.sequence.state_terms", 0),
        "recur.matrix_min_poly.s": t("recur.matrix_min_poly", 0.0),
        "recur.matrix_min_poly.degree": c("recur.matrix_min_poly.degree", 0),
        "recur.lda.s": t("recur.lda", 0.0),
        "recur.minimal_recurrence.s": t("recur.minimal_recurrence", 0.0),
        "recur.minimal_recurrence.order": c("recur.minimal_recurrence.order", 0),
        "recur.asymptotic_fit.s": t("recur.asymptotic_fit", 0.0),
        "recur.routes_agree_ratio": _ratio(*routes),
        "polys.largest_real_root.s": t("polys.largest_real_root", 0.0),
        "polys.largest_real_root.degree": c("polys.largest_real_root.degree", 0),
        "oracle.brute_count_profile.s": t("oracle.brute_count_profile", 0.0),
        "oracle.words": c("oracle.brute_count_profile.words", 0),
        "oracle.words_per_s": _ratio(c("oracle.brute_count_profile.words", 0),
                                     t("oracle.brute_count_profile", 0.0)),
        "verify.check_stabilization.s": t("verify.check_stabilization", 0.0),
        "verify.perturbed_symmetry.s": t("verify.perturbed_symmetry", 0.0),
        "verify.letters": c("verify.check_stabilization.letters", 0),
        "words.palindromic_factors.s": t("words.palindromic_factors", 0.0),
        "words.palindromic_factors.letters": c("words.palindromic_factors.letters", 0),
        "bench.check.s": check_s,
        "bench.self.s": jobs_self,
        "trace.accounted_ratio": _ratio(sum(busy.values()) + check_s, wall_s),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(busy[layer], wall_s)
        out[f"{layer}.errors"] = errors[layer]
    return out
