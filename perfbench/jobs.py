"""Workload job lists, the library calls each job makes, and the output checks.

Each job makes the public calls of the CLI command it is named after, in
the same order, so its time is what a user of that command waits for:

  analyze      build_direct, minimize, analyze               (`palfac analyze`)
  count        build_direct, minimize, transfer_matrix, sequence  (`palfac count`)
  annihilate   ... sequence, matrix_min_poly, lda, minimal_recurrence
                                                (`palfac annihilate --method both`)
  asymptotics  ... sequence, matrix_min_poly, lda, largest_real_root,
               asymptotic_fit                                (`palfac asymptotics`)
  oracle       brute_count_profile (`palfac oracle` at every length in one
               search), then the `count` calls on the same spec to compare
  verify       build_direct, minimize, check_stabilization   (`palfac verify`),
               then perturbed_symmetry and palindromic_factors for the
               automaton-free acceptance reference
  classify     the `analyze` calls, then for an aperiodic language the
               witness morphism image of a Thue-Morse prefix and its
               palindromic factors (an automaton-free certificate)
  avoidance    build_avoidance(forbidden_set(...)) against build_direct,
               compared with isomorphic (the `c8` cross-check)

A job returns a JSON-able summary of its output; `check` compares that
summary with the pinned reference and returns the mismatches.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import product

SIGMA4 = "S(4)"

# One sentence per workload on why it was chosen lives in BENCHMARK.json;
# the job lists here are the whole definition of each workload.
WORKLOADS = {
    "build-ladder": (
        [{"kind": "analyze", "spec": s} for s in ("D(2,13)", "D(2,12)", "T(2,3,10)")]
        + [{"kind": "count", "spec": s, "terms": 2000} for s in ("T(2,3,10)", "D(2,12)")]
    ),
    "algebra": (
        [{"kind": "annihilate", "spec": s, "terms": 400}
         for s in ("D(2,11)", "R(2,6,3)", "E(2,5)", "R(2,2,5)", "D(3,5)", "R(3,0,3)",
                   "E(3,2)")]
        + [{"kind": "asymptotics", "spec": s, "terms": 400, "split_parity": split}
           for s, split in (("D(2,11)", False), ("D(3,5)", False), ("E(2,5)", False),
                            ("R(2,2,5)", True), ("R(2,6,3)", True), ("R(3,0,3)", False))]
    ),
    "certify": (
        [{"kind": "oracle", "spec": s, "depth": n}
         for s, n in ((SIGMA4, 16), ("E(2,5)", 30), ("E(3,2)", 20), ("D(3,5)", 36),
                      ("D(2,11)", 60), ("R(2,6,3)", 34), ("T(2,5,6)", 36))]
        + [{"kind": "verify", "spec": SIGMA4, "seed": "01", "infix": "23", "nmax": 16},
           {"kind": "verify", "spec": "D(2,10)", "seed": "0010", "infix": "1", "nmax": 10}]
        + [{"kind": "classify", "spec": s} for s in (
            "D(2,8)", "D(2,9)", "D(2,10)", "D(2,11)", "D(3,3)", "D(3,4)", "D(3,5)",
            "E(2,4)", "E(2,5)", "E(3,1)", "E(3,2)", SIGMA4,
            "R(2,2,5)", "R(2,6,3)", "R(3,0,3)",
            "T(2,3,9)", "T(2,3,8)", "T(2,4,7)", "T(2,4,6)", "T(2,5,5)", "T(2,5,4)",
            "T(2,6,5)", "T(2,6,4)", "T(2,7,4)", "T(2,8,4)", "T(2,5,6)", "T(2,7,5)",
            "T(2,9,4)", "T(3,1,5)",
            # even cap one lower on each refuted parity-table row
            "T(2,2,9)", "T(2,2,8)", "T(2,3,7)", "T(2,3,6)")]
        + [{"kind": "avoidance", "spec": s}
           for s in ("E(2,4)", "E(2,5)", "E(3,1)", "E(3,2)", SIGMA4)]
    ),
}

SAMPLED = ("annihilate", "asymptotics")  # kinds that take the sampling seed


def job_id(job: dict) -> str:
    extra = " ".join(f"{k}={job[k]}" for k in job
                     if k not in ("kind", "spec", "sampling_seed"))
    return f"{job['kind']} {job['spec']}" + (f" {extra}" if extra else "")


def job_list(workload: str, seed: int) -> list[dict]:
    """The workload's jobs in the order and with the sampling seed `seed` picks."""
    jobs = [dict(job) for job in WORKLOADS[workload]]
    for job in jobs:
        if job["kind"] in SAMPLED:
            job["sampling_seed"] = seed
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# specs and the automaton-free constraint test

_SPEC = re.compile(r"([DERTS])\((\d+(?:,\d+)*)\)$")


def _parse(label: str) -> tuple[str, tuple[int, ...]]:
    m = _SPEC.match(label)
    if m is None:
        raise ValueError(f"bad spec label {label!r}")
    return m.group(1), tuple(int(x) for x in m.group(2).split(","))


def _palindromes(k: int, max_len: int) -> list[tuple[int, ...]]:
    out = [()]
    for n in range(1, max_len + 1):
        for half in product(range(k), repeat=(n + 1) // 2):
            out.append(half + tuple(reversed(half[: n // 2])))
    return out


def make_spec(api, label: str):
    fam, p = _parse(label)
    if fam == "D":
        return api.MaxDistinct(*p)
    if fam == "E":
        return api.MaxLen(*p)
    if fam == "R":
        return api.MaxLenByParity(*p)
    if fam == "T":  # the parity tables count only nonempty palindromes
        return api.MaxCountByParity(*p, count_empty=False)
    (k,) = p
    return api.AllowedSet(k, [api.Word(w, k) for w in _palindromes(k, 1)])


def satisfied(label: str, pal_factors) -> bool:
    """Whether a word whose palindromic factors are given meets the constraint."""
    fam, p = _parse(label)
    lengths = [len(w) for w in pal_factors]
    even = [n for n in lengths if n % 2 == 0]
    odd = [n for n in lengths if n % 2 == 1]
    if fam == "D":
        return len(lengths) <= p[1]
    if fam == "E":
        return max(lengths) <= p[1]
    if fam == "R":
        return max(even) <= p[1] and max(odd, default=-1) <= p[2]
    if fam == "T":
        return len(even) - 1 <= p[1] and len(odd) <= p[2]
    return max(lengths) <= 1  # S(4): the empty word and single letters


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


def _word(api, text: str, k: int):
    return api.Word(tuple(int(c) for c in text), k)


# ---------------------------------------------------------------------------
# jobs


def _states(d) -> dict:
    return {"states": d.state_count, "live_states": d.live_state_count()}


def _analyze(api, job) -> tuple[dict, object]:
    raw = api.build_direct(make_spec(api, job["spec"]))
    d = api.minimize(raw)
    report = api.analyze(d)
    out = {"raw_states": raw.state_count, **_states(d),
           "classification": type(report.classification).__name__,
           "periodic": sorted(f"{y}|{x}" for y, x in report.periodic_words)}
    return out, report


def run_analyze(api, job) -> dict:
    return _analyze(api, job)[0]


def run_classify(api, job) -> dict:
    out, report = _analyze(api, job)
    out["certificate"] = None
    if report.birecurrent is not None:
        # the image of an aperiodic word under the witness morphism labels a
        # path through live states, so it is a factor of an accepted word
        q, x0, x1 = report.birecurrent
        h, _ = api.witness_morphisms(q, x0, x1)
        image = api.apply(h, api.thue_morse(48))
        out["certificate"] = satisfied(job["spec"], api.palindromic_factors(image))
    return out


def _counts(api, job, n: int) -> tuple:
    d = api.minimize(api.build_direct(make_spec(api, job["spec"])))
    cs = api.transfer_matrix(d)
    return d, cs, api.sequence(cs, n)


def run_count(api, job) -> dict:
    d, _, a = _counts(api, job, job["terms"])
    return {**_states(d), "terms": len(a), "digest": _digest(a)}


def run_annihilate(api, job) -> dict:
    d, cs, a = _counts(api, job, job["terms"])
    p = api.matrix_min_poly(cs.M, seed=job["sampling_seed"])
    q_lda, n0_lda = api.lda(p, a)
    q_hankel, n0_hankel = api.minimal_recurrence(a)
    return {**_states(d), "min_poly": list(p.coeffs),
            "lda": [list(q_lda.coeffs), n0_lda],
            "hankel": [list(q_hankel.coeffs), n0_hankel]}


def run_asymptotics(api, job) -> dict:
    _, cs, a = _counts(api, job, job["terms"])
    q, _ = api.lda(api.matrix_min_poly(cs.M, seed=job["sampling_seed"]), a)
    root = api.largest_real_root(q)
    fit = api.asymptotic_fit(a, root, annihilator=q, split_parity=job["split_parity"])
    return {"annihilator": list(q.coeffs), "alpha": float(root),
            "c": fit.c, "c1": fit.c1, "c2": fit.c2, "converged": fit.converged}


def run_oracle(api, job) -> dict:
    profile = api.brute_count_profile(make_spec(api, job["spec"]), job["depth"])
    _, _, counts = _counts(api, job, job["depth"])
    return {"words": sum(profile), "digest": _digest(profile),
            "agrees": list(profile) == list(counts)}


def run_verify(api, job) -> dict:
    d = api.minimize(api.build_direct(make_spec(api, job["spec"])))
    k = d.alphabet_size
    seed, infix = _word(api, job["seed"], k), _word(api, job["infix"], k)
    report = api.check_stabilization(d, seed, infix, job["nmax"])
    whole = [satisfied(job["spec"],
                       api.palindromic_factors(api.perturbed_symmetry(seed, infix, n)))
             for n in range(job["nmax"] + 1)]
    return {"stabilized_at": report.stabilized_at, "accepted": list(report.accepted),
            "whole_word": whole}


def run_avoidance(api, job) -> dict:
    label = job["spec"]
    fam, p = _parse(label)
    k = p[0]
    spec = make_spec(api, label)
    direct = api.minimize(api.build_direct(spec))
    if fam == "S":
        allowed = spec.allowed
        same = True
    else:
        allowed = [api.Word(w, k) for w in _palindromes(k, p[1])]
        via_set = api.minimize(api.build_direct(api.AllowedSet(k, allowed)))
        same = api.isomorphic(direct, via_set)
    forbidden = api.forbidden_set(allowed, k)
    via_avoid = api.minimize(api.build_avoidance(forbidden, k))
    return {"isomorphic": same and api.isomorphic(direct, via_avoid),
            "forbidden": sorted(str(w) for w in forbidden)}


RUNNERS = {
    "analyze": run_analyze, "classify": run_classify, "count": run_count,
    "annihilate": run_annihilate, "asymptotics": run_asymptotics,
    "oracle": run_oracle, "verify": run_verify, "avoidance": run_avoidance,
}


# ---------------------------------------------------------------------------
# checks against the pinned reference


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_states(problems, out, ref, label) -> None:
    if label in ref["live_states"]:
        _expect(problems, "live states", out["live_states"], ref["live_states"][label])
    for key in ("raw_states", "states"):
        pinned = ref[key].get(label)
        if pinned is not None and key in out:
            _expect(problems, key, out[key], pinned)


def check(job: dict, out: dict, ref: dict) -> list[str]:
    """Mismatches between a job's output summary and the reference."""
    label, kind, jid = job["spec"], job["kind"], job_id(job)
    problems: list[str] = []
    if kind in ("analyze", "classify", "count", "annihilate"):
        _check_states(problems, out, ref, label)
    if kind in ("analyze", "classify"):
        _expect(problems, "classification", out["classification"],
                ref["classification"][label])
        _expect(problems, "periodic words", [len(out["periodic"]), _digest(out["periodic"])],
                ref["periodic"][label])
        example = ref["periodic_example"].get(label)
        if example is not None and example not in out["periodic"]:
            problems.append(f"reference example {example} not among the periodic words")
    if kind == "classify":
        want = True if out["classification"] == "UncountablyManyAperiodic" else None
        _expect(problems, "aperiodicity certificate", out["certificate"], want)
    elif kind == "count":
        _expect(problems, "count digest", [out["terms"], out["digest"]], ref["counts"][jid])
    elif kind == "annihilate":
        _expect(problems, "minimal polynomial", out["min_poly"], ref["min_poly"][label])
        _expect(problems, "routes agree", out["lda"], out["hankel"])
        _expect(problems, "annihilator", out["lda"], ref["annihilator"][label])
    elif kind == "asymptotics":
        alpha, c_lead, c_split = ref["asymptotics"][label]
        lead = out["c"] if c_split is None else out["c1"]
        _expect(problems, "annihilator", out["annihilator"], ref["annihilator"][label][0])
        if abs(out["alpha"] - alpha) >= 1e-9:
            problems.append(f"alpha {out['alpha']} vs {alpha}")
        if lead is None or abs(lead - c_lead) > 0.01 * c_lead:
            problems.append(f"C {lead} vs {c_lead}")
        if c_split is not None and (out["c2"] is None
                                    or abs(out["c2"] - c_split) > 0.10 * c_split):
            problems.append(f"C2 {out['c2']} vs {c_split}")
        _expect(problems, "converged", out["converged"], True)
    elif kind == "oracle":
        _expect(problems, "oracle agrees with automaton counts", out["agrees"], True)
        _expect(problems, "oracle profile", [out["words"], out["digest"]], ref["oracle"][jid])
    elif kind == "verify":
        _expect(problems, "acceptance vs whole-word test", out["accepted"], out["whole_word"])
        _expect(problems, "stabilized at", out["stabilized_at"], ref["stabilized_at"][jid])
    elif kind == "avoidance":
        _expect(problems, "isomorphic", out["isomorphic"], True)
        if label in ref["forbidden"]:
            _expect(problems, "forbidden factors", out["forbidden"], ref["forbidden"][label])
    return problems


def results_digest(outputs: dict[str, dict]) -> str:
    """Order-independent digest of every job's output summary."""
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
