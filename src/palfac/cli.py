"""Command-line front end.

Machine-readable data goes to stdout (JSON, b-file lines, coefficient
lists, serialized automata); human commentary goes to stderr.  Exit
codes: 0 success, 1 a check failed or a fit was inconclusive, 2 usage
error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analyze import (
    CertificateError,
    CountablyManyPeriodic,
    FinitelyManyPeriodic,
    NoInfiniteWords,
    analyze,
)
from .automaton import Dfa, export_dfa, import_dfa, minimize
from .construct import (
    BUDGET_ENV,
    AllowedSet,
    CapacityError,
    MaxCountByParity,
    MaxDistinct,
    MaxLen,
    MaxLenByParity,
    build_direct,
)
from .oracle import brute_count
from .recur import (
    InconclusiveError,
    asymptotic_fit,
    largest_real_root,
    lda,
    matrix_min_poly,
    minimal_recurrence,
    sequence,
    transfer_matrix,
)
from .verify import check_stabilization
from .words import Word

FAMILIES = {"D": MaxDistinct, "E": MaxLen, "R": MaxLenByParity,
            "T": MaxCountByParity, "S": AllowedSet}


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=list(FAMILIES),
                   help="constraint family: D caps distinct palindromic factors, "
                        "E caps palindrome length, R caps length by parity, "
                        "T caps counts by parity, S fixes the allowed set")
    p.add_argument("--alphabet", type=int, default=2, metavar="K",
                   help="alphabet size (default 2)")
    p.add_argument("--cap", type=int, metavar="N",
                   help="cap for D/E; even cap for R/T")
    p.add_argument("--odd-cap", type=int, metavar="M",
                   help="odd cap for R/T")
    p.add_argument("--exclude-empty", dest="count_empty", action="store_false",
                   help="for T: do not count the empty palindrome toward the even cap")
    p.add_argument("--allowed", metavar="FILE", type=_read_allowed,
                   help="for S: file of allowed palindromes, one digit string "
                        "per line; a line 'e' denotes the empty word")


def _add_automaton_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--automaton", metavar="FILE",
                   help="serialized automaton (grail or json) instead of family flags")
    _add_family_flags(p)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state-budget", type=int, metavar="N",
                   help=f"size limit on built and imported automata (default via {BUDGET_ENV})")


def _read_allowed(path: str) -> list[Word]:
    words = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                words.append(Word(()) if text == "e" else Word.from_digits(text))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return words


def _spec_from_args(args, parser: argparse.ArgumentParser):
    if args.family is None:
        parser.error("need --family (or --automaton where accepted)")
    family = FAMILIES[args.family]
    values = [getattr(args, name) for name in family.cli_flags]
    missing = [name for name, value in zip(family.cli_flags, values) if value is None]
    if missing:
        parser.error(f"--family {args.family} needs " +
                     " and ".join("--" + name.replace("_", "-") for name in missing))
    return family(args.alphabet, *values)


def _load_dfa(path: str, budget: int | None) -> Dfa:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    fmt = "json" if text.lstrip().startswith("{") else "grail"
    return import_dfa(text, fmt, budget)


def _dfa_from_args(args, parser: argparse.ArgumentParser, minimized: bool = True) -> Dfa:
    if getattr(args, "automaton", None):
        d = _load_dfa(args.automaton, args.state_budget)
    else:
        d = build_direct(_spec_from_args(args, parser), args.state_budget)
    return minimize(d) if minimized else d


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite(x: float | None) -> float | None:
    """x, or None when it is infinite or NaN (strict JSON has neither)."""
    return x if x is None or math.isfinite(x) else None


def _word_arg(text: str, k: int) -> Word:
    return Word.from_digits(text, k) if text else Word((), k)


def cmd_build(args, parser) -> int:
    d = build_direct(_spec_from_args(args, parser), args.state_budget)
    raw = d.state_count
    if args.minimize:
        d = minimize(d)
    _say(f"{raw} states constructed" +
         (f", minimized to {d.state_count} ({d.live_state_count()} live)"
          if args.minimize else f" ({d.live_state_count()} live)"))
    _emit(export_dfa(d, args.format), args.out)
    return 0


def cmd_minimize(args, parser) -> int:
    d = _load_dfa(args.automaton, args.state_budget)
    m = minimize(d)
    _say(f"{d.state_count} states -> {m.state_count} ({m.live_state_count()} live)")
    _emit(export_dfa(m, args.format), args.out)
    return 0


def cmd_export(args, parser) -> int:
    d = _dfa_from_args(args, parser, minimized=args.minimize)
    _emit(export_dfa(d, args.format), args.out)
    return 0


def _omega(y: Word, x: Word) -> str:
    return f"{y}({x})^w" if len(y) else f"({x})^w"


def cmd_analyze(args, parser) -> int:
    d = _dfa_from_args(args, parser)
    report = analyze(d)
    payload = {
        "states": d.state_count,
        "live_states": d.live_state_count(),
        "recurrent_states": sorted(report.recurrent_states),
        "classification": type(report.classification).__name__,
        "birecurrent_witness": None,
        "periodic_words": [{"preperiod": str(y), "period": str(x)}
                           for y, x in report.periodic_words],
    }
    if report.birecurrent is not None:
        q, x0, x1 = report.birecurrent
        payload["birecurrent_witness"] = {"state": q, "x0": str(x0), "x1": str(x1)}
    print(json.dumps(payload, allow_nan=False))

    _say(f"states: {d.state_count} ({d.live_state_count()} live), "
         f"{len(report.recurrent_states)} recurrent")
    if isinstance(report.classification, NoInfiniteWords):
        _say("classification: finite language, no infinite words")
    elif isinstance(report.classification, FinitelyManyPeriodic):
        _say("classification: finitely many infinite words, all ultimately periodic")
        _say(f"infinite words ({len(report.periodic_words)}):")
        for y, x in report.periodic_words:
            _say(f"  {_omega(y, x)}")
    elif isinstance(report.classification, CountablyManyPeriodic):
        _say("classification: countably many infinite words, all ultimately periodic")
    else:
        q, x0, x1 = report.birecurrent
        _say("classification: uncountably many infinite words, aperiodic ones included")
        _say(f"witness: cycles {x0} and {x1} meet at state {q}")
    return 0


def cmd_count(args, parser) -> int:
    d = _dfa_from_args(args, parser)
    for n, an in enumerate(sequence(transfer_matrix(d), args.terms)):
        print(n, an)
    return 0


def cmd_annihilate(args, parser) -> int:
    d = _dfa_from_args(args, parser)
    cs = transfer_matrix(d)
    a = sequence(cs, args.terms)
    results = {}
    if args.method in ("lda", "both"):
        results["lda"] = lda(matrix_min_poly(cs), a)
    if args.method in ("hankel", "both"):
        results["hankel"] = minimal_recurrence(a)
    if len(results) == 2 and results["lda"] != results["hankel"]:
        _say(f"routes disagree: lda {results['lda']} vs hankel {results['hankel']}")
        return 1
    q, n0 = next(iter(results.values()))
    _say(f"order {q.degree}, valid for n >= {n0}")
    print(" ".join(str(c) for c in q.coeffs))
    return 0


def cmd_asymptotics(args, parser) -> int:
    d = _dfa_from_args(args, parser)
    cs = transfer_matrix(d)
    a = sequence(cs, args.terms)
    q, n0 = lda(matrix_min_poly(cs), a)
    if q.degree == 0:
        _say(f"finite language: no words of length {n0} or more")
        return 1
    root = largest_real_root(q)
    fit = asymptotic_fit(a, root, annihilator=q, split_parity=args.split_parity)
    payload = {
        "annihilator": list(q.coeffs),
        "alpha": {"low": str(root.lo), "high": str(root.hi), "value": float(root)},
        "c": _finite(fit.c),
        "c1": _finite(fit.c1),
        "c2": _finite(fit.c2),
        "multiplicity": fit.multiplicity,
        "converged": fit.converged,
        "reason": fit.reason,
    }
    print(json.dumps(payload, allow_nan=False))
    if not fit.converged:
        _say(fit.reason)
        return 1
    return 0


def cmd_verify(args, parser) -> int:
    d = _dfa_from_args(args, parser)
    seed = _word_arg(args.seed, d.alphabet_size)
    infix = _word_arg(args.infix, d.alphabet_size)
    report = check_stabilization(d, seed, infix, args.nmax)
    print(json.dumps({
        "seed": str(seed),
        "infix": str(infix),
        "n_max": args.nmax,
        "stabilized_at": report.stabilized_at,
        "reversal_equal": list(report.reversal_equal),
        "accepted": list(report.accepted),
    }, allow_nan=False))
    return 0


def cmd_oracle(args, parser) -> int:
    spec = _spec_from_args(args, parser)
    res = brute_count(spec, args.length, max_witnesses=args.list_words)
    print(res.n, res.count)
    if args.list_words and res.witnesses:
        for w in res.witnesses:
            print(str(w))
    return 0


def cmd_reproduce(args, parser) -> int:
    from .reproduce import run_checks

    failures = 0
    known = 0
    for row in run_checks(section=args.section, group=args.group, seed=args.seed):
        print(json.dumps({
            "name": row.name, "group": row.group, "section": row.section,
            "passed": row.passed, "status": row.status,
            "known_discrepancy": row.known_discrepancy,
            "expected": row.expected, "actual": row.actual,
        }, allow_nan=False))
        detail = "" if row.status == "PASS" \
            else f"  expected {row.expected}, got {row.actual}"
        _say(f"{row.status} {row.name}{detail}")
        failures += not row.ok
        known += row.status == "XFAIL"
    summary = f"{failures} failure(s)" if failures else "all checks passed"
    if known:
        summary += f" ({known} known reference discrepancies, certified by companion rows)"
    _say(summary)
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palfac",
        description="automata for words with constrained palindromic factors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an automaton from a constraint")
    _add_family_flags(p)
    _add_common(p)
    p.add_argument("--minimize", action="store_true", help="minimize before writing")
    p.add_argument("--format", choices=["grail", "json", "dot"], default="grail")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("minimize", help="minimize a serialized automaton")
    p.add_argument("--automaton", metavar="FILE", required=True)
    _add_common(p)
    p.add_argument("--format", choices=["grail", "json", "dot"], default="grail")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("export", help="reserialize an automaton (dot for figures)")
    _add_automaton_source(p)
    _add_common(p)
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--format", choices=["grail", "json", "dot"], default="dot")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("analyze", help="recurrence structure and infinite words")
    _add_automaton_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("count", help="length-indexed counts, b-file style")
    _add_automaton_source(p)
    _add_common(p)
    p.add_argument("--terms", type=int, default=40, metavar="N",
                   help="last index to print (default 40)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("annihilate", help="minimal recurrence of the count sequence")
    _add_automaton_source(p)
    _add_common(p)
    p.add_argument("--terms", type=int, default=400, metavar="N")
    p.add_argument("--method", choices=["lda", "hankel", "both"], default="both")
    p.set_defaults(func=cmd_annihilate)

    p = sub.add_parser("asymptotics", help="growth rate and leading constants")
    _add_automaton_source(p)
    _add_common(p)
    p.add_argument("--terms", type=int, default=400, metavar="N")
    p.add_argument("--split-parity", action="store_true",
                   help="also read the constant c2 of the pole at -1/alpha")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("verify", help="transformation stabilization for X -> X s X^R")
    _add_automaton_source(p)
    _add_common(p)
    p.add_argument("--seed", required=True, metavar="WORD",
                   help="starting word as a digit string ('' for the empty word)")
    p.add_argument("--infix", required=True, metavar="WORD")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force count at one length")
    _add_family_flags(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--list", dest="list_words", type=int, nargs="?", const=50,
                   default=0, metavar="N", help="also print up to N accepted words")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reproduce", help="run the published-results checks")
    p.add_argument("--section", type=int, choices=[5, 6, 7, 8],
                   help="restrict to one results group")
    p.add_argument("--group", metavar="NAME",
                   help="restrict to one check group by name")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "state_budget", None) is not None:
        if args.state_budget <= 0:
            parser.error("--state-budget must be positive")
    try:
        return args.func(args, parser)
    except CapacityError as exc:
        _say(f"capacity: {exc}")
        return 3
    except InconclusiveError as exc:
        _say(f"inconclusive: {exc}")
        return 1
    except CertificateError as exc:
        _say(f"check failed: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
