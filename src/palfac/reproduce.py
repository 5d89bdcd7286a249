"""Known-answer checks tying the whole pipeline to pinned expected values.

Each row names a constraint instance, computes one quantity (a state
count, a word census, an annihilator, a growth constant, ...) and
compares it against the expected value recorded here.  `run_checks`
streams CheckResult rows; the CLI prints them and pytest asserts them.

Rows carry a `section` tag grouping instances by family (5 distinct-count
caps, 6 length caps and the four-letter allowed set, 7 length-by-parity
caps, 8 count-by-parity caps) so subsets can be run selectively, and a
`group` naming the kind of check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from .analyze import (
    FinitelyManyPeriodic,
    Morphism,
    NoInfiniteWords,
    UncountablyManyAperiodic,
    _graph,
    _normalize_periodic,
    _path,
    analyze,
    spec_dfa,
    verify_ultimately_periodic,
    witness_morphisms,
)
from .automaton import export_dfa, import_dfa, isomorphic, minimize, state_budget
from .construct import (
    AllowedSet,
    ConstraintSpec,
    MaxCountByParity,
    MaxDistinct,
    MaxLen,
    MaxLenByParity,
    build_avoidance,
    build_direct,
    forbidden_set,
)
from .oracle import brute_count_profile
from .polys import Polynomial, largest_real_root
from .recur import (
    asymptotic_fit,
    lda,
    matrix_min_poly,
    minimal_recurrence,
    sequence,
    transfer_matrix,
    window_apply,
)
from .verify import check_stabilization, perturbed_symmetry, thue_morse, transform
from .words import Word, enumerate_palindromes, naive_palindromic_factors, palindromic_factors

W = Word.from_digits
P = Polynomial
X = Polynomial.x_power

SIGMA4 = AllowedSet(4, [Word((), 4)] + [Word((c,), 4) for c in range(4)])
G0 = W("001101000110")
B0 = Word((0, 1), 4)

_MAX_TERMS = 420


def _t(even_cap: int, odd_cap: int, k: int = 2) -> MaxCountByParity:
    # the parity tables count only nonempty palindromes
    return MaxCountByParity(k, even_cap, odd_cap, count_empty=False)


@dataclass(frozen=True)
class CheckResult:
    """One reproduction row.

    `known_discrepancy` marks rows that assert a reference value we have
    proven wrong (certificates live in companion rows); for those, failing
    is the coherent outcome and passing would mean something shifted.
    """

    name: str
    group: str
    section: int | None
    passed: bool
    expected: str
    actual: str
    known_discrepancy: bool = False

    @property
    def ok(self) -> bool:
        return self.passed != self.known_discrepancy

    @property
    def status(self) -> str:
        if self.known_discrepancy:
            return "XFAIL" if not self.passed else "XPASS"
        return "PASS" if self.passed else "FAIL"


@lru_cache(maxsize=None)
def _counts(spec: ConstraintSpec) -> tuple[int, ...]:
    return tuple(sequence(transfer_matrix(spec_dfa(spec)), _MAX_TERMS))


@lru_cache(maxsize=None)
def _min_poly(spec: ConstraintSpec) -> Polynomial:
    return matrix_min_poly(transfer_matrix(spec_dfa(spec)))


# the two annihilator routes, under their `palfac annihilate --method` names
ROUTES = {
    "lda": lambda spec: lda(_min_poly(spec), _counts(spec)),
    "hankel": lambda spec: minimal_recurrence(_counts(spec)),
}


def _agrees(value: float | None, pinned: str) -> bool:
    """value equals the decimal pinned to one unit in its last digit."""
    digits = len(pinned.partition(".")[2])
    return value is not None and abs(value - float(pinned)) <= 10 ** -digits


def _normalized(y: Word, x: Word) -> tuple[Word, Word]:
    k = max(y.alphabet_size, x.alphabet_size)
    ny, nx = _normalize_periodic(tuple(y), tuple(x))
    return Word(ny, k), Word(nx, k)


def _word_set(pairs) -> set[tuple[Word, Word]]:
    return {_normalized(W(y) if isinstance(y, str) else y,
                        W(x) if isinstance(x, str) else x)
            for y, x in pairs}


# ---------------------------------------------------------------------------
# instance tables

STATE_COUNTS = [
    ("D(2,8)", MaxDistinct(2, 8), 23, 5),
    ("D(2,9)", MaxDistinct(2, 9), 98, 5),
    ("D(2,10)", MaxDistinct(2, 10), 280, 5),
    ("D(2,11)", MaxDistinct(2, 11), 810, 5),
    ("D(3,3)", MaxDistinct(3, 3), 3, 5),
    ("D(3,4)", MaxDistinct(3, 4), 18, 5),
    ("D(3,5)", MaxDistinct(3, 5), 69, 5),
    ("E(2,5)", MaxLen(2, 5), 62, 6),
    ("E(3,1)", MaxLen(3, 1), 10, 6),
    ("E(3,2)", MaxLen(3, 2), 19, 6),
    ("R(2,2,5)", MaxLenByParity(2, 2, 5), 44, 7),
    ("R(2,6,3)", MaxLenByParity(2, 6, 3), 60, 7),
    ("R(3,0,3)", MaxLenByParity(3, 0, 3), 34, 7),
    ("T(2,3,9)", _t(3, 9), 1468, 8),
    ("T(2,3,8)", _t(3, 8), 799, 8),
    ("T(2,4,7)", _t(4, 7), 1181, 8),
    ("T(2,4,6)", _t(4, 6), 530, 8),
    ("T(2,5,5)", _t(5, 5), 419, 8),
    ("T(2,5,4)", _t(5, 4), 136, 8),
    ("T(2,6,5)", _t(6, 5), 604, 8),
    ("T(2,6,4)", _t(6, 4), 177, 8),
    ("T(2,7,4)", _t(7, 4), 261, 8),
    ("T(2,8,4)", _t(8, 4), 375, 8),
    ("T(2,3,10)", _t(3, 10), 3071, 8),
    ("T(2,4,8)", _t(4, 8), 2830, 8),
    ("T(2,5,6)", _t(5, 6), 1269, 8),
    ("T(2,7,5)", _t(7, 5), 955, 8),
    ("T(2,9,4)", _t(9, 4), 545, 8),
    ("T(3,1,5)", _t(1, 5, 3), 632, 8),
]

BIRECURRENT = [
    ("D(2,11)", MaxDistinct(2, 11), "0001011001011", "001011001011", 5),
    ("D(3,5)", MaxDistinct(3, 5), "0012", "012", 5),
    ("E(2,5)", MaxLen(2, 5), "01010110", "0010101110", 6),
    ("E(3,2)", MaxLen(3, 2), "211002", "11002", 6),
    ("R(2,2,5)", MaxLenByParity(2, 2, 5), "10100011", "1010100011", 7),
    ("R(2,6,3)", MaxLenByParity(2, 6, 3), "110010", "1111000010", 7),
    ("R(3,0,3)", MaxLenByParity(3, 0, 3), "021210102", "1210102", 7),
    ("S(4)", SIGMA4, "2301", "301", 6),
    ("T(2,3,10)", _t(3, 10), "00011101", "0100011101", 8),
    ("T(2,4,8)", _t(4, 8), "0010111", "00010111", 8),
    ("T(2,5,6)", _t(5, 6), "001011", "0001011", 8),
    ("T(2,7,5)", _t(7, 5), "001011", "00001011", 8),
    ("T(2,9,4)", _t(9, 4), "001011", "0011001011", 8),
    ("T(3,1,5)", _t(1, 5, 3), "01012", "012", 8),
]

T_PERIODIC = [
    (3, 9, "01", "00010111"),
    (3, 8, "1", "00010111"),
    (4, 7, "01", "0001011"),
    (4, 6, "1", "0001011"),
    (5, 5, "0", "001011"),
    (5, 4, "", "001011"),
    (6, 5, "", "00001011"),
    (6, 4, "0", "011001"),
    (7, 4, "10", "011001"),
    (8, 4, "1101", "001011"),
]

# Rows of the reference parity-count table whose "periodic only" label is
# provably wrong: each of these languages contains aperiodic words, shown
# by a certificate row that counts palindromic factors of explicit words
# with no automaton in the loop.  The reference label for caps (e, o)
# matches the true classification for caps (e-1, o) on every row of both
# reference tables, so its classification column was computed with the
# empty word counted toward the even cap while its state counts were not.
T_REFUTED = {(3, 9), (3, 8), (4, 7), (4, 6), (6, 5), (8, 4)}

D211_VALUES = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 292, 270, 268, 276, 276,
    288, 320, 340, 364, 388, 404, 428, 476, 512, 560, 610, 644, 692, 768,
    840, 924, 1020, 1100, 1190, 1316, 1452, 1612, 1786, 1952, 2134, 2348,
)


D211_ANNIHILATOR = math.prod([
    P([-1, 1]), P([1, 1]), P([1, 1, 1]), P([1, -1, 1]),
    P([-1, -1, 0, 0, 0, 0, 0, 1]), P([1, 1, 1, 1, 1, 1, 1]),
    P([-1, 0, -1, 0, 0, 0, 0, 0, 1]),
], start=P([1]))

# label, spec, annihilator, index range over which the windows must vanish
ANNIHILATORS = [
    ("D(3,5)", MaxDistinct(3, 5), P([-1, -1, 0, 0, 1]), (9, 200), 5),
    ("E(3,2)", MaxLen(3, 2), P([-1, -1, 1]), (5, 200), 6),
    ("S(4)", SIGMA4, P([-2, 1]), (3, 200), 6),
    ("E(2,5)", MaxLen(2, 5), P([-1, -2, -2, -2, -3, 0, 0, 0, 0, 0, 1]), (20, 200), 6),
    ("R(2,2,5)", MaxLenByParity(2, 2, 5),
     P([-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1]), (16, 200), 7),
    ("R(2,6,3)", MaxLenByParity(2, 6, 3),
     P([-1, 0, 0, 0, -3, 0, -2, 0, -1, 0, 0, 0, 0, 0, 1]), (21, 200), 7),
    ("R(3,0,3)", MaxLenByParity(3, 0, 3), P([-1, 0, -1, 1]), (7, 200), 7),
    ("D(2,11)", MaxDistinct(2, 11), D211_ANNIHILATOR, (42, 300), 5),
]

MIN_POLYS = [
    ("D(3,5)", MaxDistinct(3, 5),
     [X(5), P([-1, 1]), P([-3, 1]), P([1, 1, 1]), P([-1, -1, 0, 0, 1])], 5),
    ("E(2,5)", MaxLen(2, 5),
     [X(10), P([-2, 1]), P([-1, -2, -2, -2, 1, 0, 0, 0, 0, 0, 1]),
      P([-1, -2, -2, -2, -3, 0, 0, 0, 0, 0, 1])], 6),
    ("E(3,2)", MaxLen(3, 2),
     [X(3), P([-3, 1]), P([-1, -1, 1]), P([1, 2, 2, 1, 1])], 6),
    ("S(4)", SIGMA4,
     [X(2), P([-1, 1]), P([-2, 1]), P([-4, 1]), P([1, 1]), P([2, 1, 1])], 6),
    ("R(2,2,5)", MaxLenByParity(2, 2, 5),
     [X(6), P([-2, 1]), P([-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1])], 7),
    ("R(2,6,3)", MaxLenByParity(2, 6, 3),
     [X(7), P([-2, 1]), P([1, 0, 1]),
      P([-1, 0, 0, 0, -3, 0, -2, 0, -1, 0, 0, 0, 0, 0, 1]),
      P([-1, 0, 1, 0, 0, 0, -2, 0, 1, 0, -1, 0, 1])], 7),
    ("R(3,0,3)", MaxLenByParity(3, 0, 3),
     [X(4), P([-3, 1]), P([1, -1, 1]), P([-1, 0, -1, 1]), P([1, 1, 2, 2, 1])], 7),
    ("D(2,11)", MaxDistinct(2, 11),
     [X(15), P([-1, 1]), P([-2, 1]), P([1, 1]), P([1, 0, 1]), P([1, 1, 1]),
      P([1, -1, 1]), P([-1, -1, 0, 0, 0, 0, 0, 1]), P([1, 0, 0, 0, 1]),
      P([1, 1, 1, 1, 1, 1, 1]), P([-1, 0, -1, 0, 0, 0, 0, 0, 1])], 5),
]

# label, spec, annihilator route, alpha, multiplicity, leading constant,
# parity-split constant or None, section; the constants hold to one unit in
# their last digit.  D(2,12) takes the sequence route: its matrix route
# spends about 0.35 s (Python 3.11, 2-core VM) in the 2,271-state
# certificate, which evaluates 359 spanning columns.
ASYMPTOTICS = [
    ("D(2,11)", MaxDistinct(2, 11), "lda", 1.112775684279, 1, "20.665", None, 5),
    ("D(2,12)", MaxDistinct(2, 12), "hankel", 1.112775684279, 2, "2.0820185", None, 5),
    ("D(3,5)", MaxDistinct(3, 5), "lda", 1.2207440846, 1, "16.07007", None, 5),
    ("E(2,5)", MaxLen(2, 5), "lda", 1.36927381628918, 1, "9.8315779", None, 6),
    ("R(2,2,5)", MaxLenByParity(2, 2, 5), "lda", 1.0804184273981, 1,
     "15.991809", "0.023895", 7),
    ("R(2,6,3)", MaxLenByParity(2, 6, 3), "lda", 1.244528319539183, 1,
     "11.58110542", "0.00264754", 7),
    ("R(3,0,3)", MaxLenByParity(3, 0, 3), "lda", 1.465571231876768, 1, "5.37711043", None, 7),
]

ORACLE_DEPTH = {2: 14, 3: 10, 4: 8}

ORACLE_SPECS = (
    [("D(2,13)", MaxDistinct(2, 13), 5), ("E(2,4)", MaxLen(2, 4), 6),
     ("S(4)", SIGMA4, 6)]
    + [(label, spec, sec) for label, spec, _, sec in STATE_COUNTS]
)

SIGMA4_FORBIDDEN = frozenset(
    W(t, 4) for t in (
        "00", "11", "22", "33",
        "010", "020", "030", "101", "121", "131",
        "202", "212", "232", "303", "313", "323",
    )
)


def _narayana(terms: int) -> list[int]:
    seq = [1, 1, 1]
    while len(seq) < terms:
        seq.append(seq[-1] + seq[-3])
    return seq


# ---------------------------------------------------------------------------
# row implementations

RowFn = Callable[[], tuple[bool, object, object]]
_ROWS: list[tuple[str, str, int | None, RowFn, bool]] = []


def _row(name: str, group: str, section: int | None,
         known_discrepancy: bool = False):
    def register(fn: RowFn) -> RowFn:
        _ROWS.append((name, group, section, fn, known_discrepancy))
        return fn
    return register


def _add_state_count_rows() -> None:
    for label, spec, expected, section in STATE_COUNTS:
        def fn(spec=spec, expected=expected):
            return spec_dfa(spec).live_state_count() == expected, expected, \
                spec_dfa(spec).live_state_count()
        _row(f"c1 {label} minimized states", "state-counts", section)(fn)

    @_row("c1 D(2,13) minimized states", "state-counts", 5)
    def d13_states():
        # 6521 vs 6522 depends on whether the convention counts the
        # always-rejecting-but-drawn state; both are recorded as valid
        live = spec_dfa(MaxDistinct(2, 13)).live_state_count()
        return live in (6521, 6522), "6521 or 6522", live


def _add_classification_rows() -> None:
    @_row("c2 D(2,8) finite language", "classification", 5)
    def d8():
        finite = analyze(spec_dfa(MaxDistinct(2, 8))).classification == NoInfiniteWords()
        # the language is factorial, so no word of length 9 means none longer
        profile = brute_count_profile(MaxDistinct(2, 8), 9)
        longest = None if profile[9] else max(n for n, c in enumerate(profile) if c)
        return finite and longest == 8, "finite, longest 8", \
            f"{'finite' if finite else 'infinite'}, longest {longest}"

    @_row("c2 D(2,9) periodic words", "classification", 5)
    def d9():
        got = set(analyze(spec_dfa(MaxDistinct(2, 9))).periodic_words)
        want = {(Word((), 2), x)
                for x in W("001011").conjugates() + W("001101").conjugates()}
        return got == want, "12 conjugate words", f"{len(got)} words"

    @_row("c2 D(2,10) no birecurrence", "classification", 5)
    def d10_wit():
        wit = analyze(spec_dfa(MaxDistinct(2, 10))).birecurrent
        return wit is None, "no witness", "no witness" if wit is None else str(wit)

    @_row("c2 D(2,10) word census", "classification", 5)
    def d10_words():
        words = analyze(spec_dfa(MaxDistinct(2, 10))).periodic_words
        by_count: dict[int, int] = {}
        for y, x in words:
            ok, npal = verify_ultimately_periodic(y, x, MaxDistinct(2, 10))
            if not ok:
                return False, "all accepted", f"{y}({x})^w rejected"
            by_count[npal] = by_count.get(npal, 0) + 1
        want = _word_set(
            [("", base[i:] + base[:i])
             for base in ("0001011", "0001101", "0010111", "0011101")
             for i in range(7)]
            + [(y, "001011") for y in ("0", "01", "111", "0011", "11011", "101011")]
            + [(y, "001101") for y in ("0", "11", "001", "0101", "11101", "101101")]
            + [("", base[i:] + base[:i])
               for base in ("001011", "001101") for i in range(6)])
        got_ok = set(words) == want and by_count == {10: 40, 9: 12}
        return got_ok, "52 words: 40 with 10 palindromic factors, 12 with 9", \
            f"{len(words)} words: " + ", ".join(
                f"{v} with {k}" for k, v in sorted(by_count.items(), reverse=True))

    @_row("c2 E(2,4) periodic words", "classification", 6)
    def e4():
        got = set(analyze(spec_dfa(MaxLen(2, 4))).periodic_words)
        want = _word_set(
            [("", base[i:] + base[:i])
             for base in ("001011", "001101") for i in range(6)]
            + [(y, "001011") for y in ("0", "00", "111", "1111")]
            + [(y, "001101") for y in ("0", "00", "11101", "111101")])
        return got == want, "the 20 listed words", f"{len(got)} words"

    for label, spec in [("E(3,1)", MaxLen(3, 1)), ("D(3,4)", MaxDistinct(3, 4))]:
        def abc(spec=spec):
            got = set(analyze(spec_dfa(spec)).periodic_words)
            want = {(Word((), 3), Word(p, 3)) for p in product(range(3), repeat=3)
                    if len(set(p)) == 3}
            return got == want, "the 6 words (abc)^w", f"{len(got)} words"
        _row(f"c2 {label} periodic words", "classification", 6 if label[0] == "E" else 5)(abc)

    for label, spec, x0, x1, section in BIRECURRENT:
        def wit(spec=spec, x0=x0, x1=x1):
            d = spec_dfa(spec)
            u = W(x0, d.alphabet_size)
            v = W(x1, d.alphabet_size)
            found = analyze(d).birecurrent is not None
            tau_u, tau_v = transform(d, u), transform(d, v)
            closing = [q for q in range(d.state_count)
                       if q != d.dead and tau_u[q] == q == tau_v[q]]
            return found and bool(closing), "witness found, listed pair closes", \
                f"witness {'found' if found else 'missing'}, " \
                f"{len(closing)} closing state(s)"
        _row(f"c2 {label} birecurrent witness", "classification", section)(wit)

    for e, o, y, x in T_PERIODIC:
        if (e, o) not in T_REFUTED:
            def t_row(e=e, o=o, y=y, x=x):
                report = analyze(spec_dfa(_t(e, o)))
                if not isinstance(report.classification, FinitelyManyPeriodic):
                    return False, "periodic with example listed", \
                        type(report.classification).__name__
                pair = _normalized(W(y) if y else Word((), 2), W(x))
                words = report.periodic_words
                listed = pair in set(words)
                return listed, "periodic with example listed", \
                    f"{len(words)} words, example {'listed' if listed else 'missing'}"
            _row(f"c2 T(2,{e},{o}) example word", "classification", 8)(t_row)
            continue

        def t_ref(e=e, o=o):
            cls = analyze(spec_dfa(_t(e, o))).classification
            got = type(cls).__name__
            return isinstance(cls, FinitelyManyPeriodic), \
                "FinitelyManyPeriodic per the reference table", \
                f"{got}; reference label matches even cap {e - 1} (see certificate row)"
        _row(f"c2 T(2,{e},{o}) reference classification", "classification", 8,
             known_discrepancy=True)(t_ref)

        def t_cert(e=e, o=o, y=y, x=x):
            spec = _t(e, o)
            d = spec_dfa(spec)
            wit = analyze(d).birecurrent
            if wit is None:
                return False, "two cycles at one live state", "no witness"
            q, x0, x1 = wit
            prefix = Word(_path(_graph(d)[0], d.start, q), d.alphabet_size)
            if d.run(d.start, prefix) != q:
                return False, "witness state reachable", "unreachable witness state"
            if d.run(q, x0) != q or d.run(q, x1) != q or x0 + x1 == x1 + x0:
                return False, "noncommuting cycles closing at the witness", \
                    "cycle check failed"
            # automaton-free refutation: an aperiodic mixing pattern of the
            # two cycles keeps the palindromic factor census within caps
            w = prefix + witness_morphisms(q, x0, x1)[0].apply(thue_morse(48))
            evens, odds = palindromic_factors(w).counts_by_parity()
            evens -= 1  # the empty word
            if evens > e or odds > o:
                return False, f"<= {e} even and <= {o} odd factors", \
                    f"{evens} even, {odds} odd in the mixed word"
            example = (W(y) if y else Word((), 2), W(x))
            ok_example, _ = verify_ultimately_periodic(example[0], example[1], spec)
            if not ok_example:
                return False, "reference example word in the language", \
                    "example word rejected"
            shifted = analyze(spec_dfa(_t(e - 1, o))).classification
            if isinstance(shifted, UncountablyManyAperiodic):
                return False, f"even cap {e - 1} free of aperiodic words", \
                    "shifted language also aperiodic"
            return True, "aperiodic words certified, example word in language, " \
                f"reference label explained by even cap {e - 1}", "certificate verified"
        _row(f"c2 T(2,{e},{o}) aperiodicity certificate", "classification", 8)(t_cert)


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _add_sequence_rows() -> None:
    @_row("c3 D(2,11) counts 0..41", "sequences", 5)
    def d211():
        got = _counts(MaxDistinct(2, 11))[:42]
        return got == D211_VALUES, "listed 42 values", \
            "match" if got == D211_VALUES else f"first diff at n={next(i for i in range(42) if got[i] != D211_VALUES[i])}"

    @_row("c3 D(3,5) counts 0..8", "sequences", 5)
    def d35():
        want = (1, 3, 9, 27, 81, 42, 54, 66, 78)
        got = _counts(MaxDistinct(3, 5))[:9]
        return got == want, want, got

    @_row("c3 E(3,2) = 6*Fibonacci(n+1) for 3 <= n <= 60", "sequences", 6)
    def e32():
        a = _counts(MaxLen(3, 2))
        bad = [n for n in range(3, 61) if a[n] != 6 * _fib(n + 1)]
        return not bad, "all match", "all match" if not bad else f"mismatch at {bad[:3]}"

    @_row("c3 S(4) = 3*2^n for 2 <= n <= 60", "sequences", 6)
    def s4():
        a = _counts(SIGMA4)
        bad = [n for n in range(2, 61) if a[n] != 3 * 2 ** n]
        return not bad, "all match", "all match" if not bad else f"mismatch at {bad[:3]}"

    # the reference remark ties r(3,0,3) to the step-3 Fibonacci sequence
    # 1,1,1,2,3,4,6,9,... with index n-1, but the true shift is n+1: the
    # counts are certified by exhaustive enumeration (the oracle row) and
    # the reference's own growth constant 5.37711043 equals 6*K*alpha,
    # which only the n+1 indexing produces (n-1 would give 6*K/alpha)
    @_row("c3 R(3,0,3) = 6*step-3 Fibonacci(n-1) for 5 <= n <= 60", "sequences", 7,
          known_discrepancy=True)
    def r303_reference():
        a = _counts(MaxLenByParity(3, 0, 3))
        nara = _narayana(64)
        bad = [n for n in range(5, 61) if a[n] != 6 * nara[n - 1]]
        return not bad, "all match (reference index n-1)", \
            "all match" if not bad else \
            f"mismatch at {bad[:3]}; identity holds with index n+1 (see companion row)"

    @_row("c3 R(3,0,3) = 6*step-3 Fibonacci(n+1) for 5 <= n <= 60 (corrected index)",
          "sequences", 7)
    def r303_corrected():
        a = _counts(MaxLenByParity(3, 0, 3))
        nara = _narayana(64)
        shifts = [s for s in (-2, -1, 0, 1, 2)
                  if all(a[n] == 6 * nara[n + s] for n in range(5, 61))]
        return shifts == [1], "n+1 is the unique working shift", \
            f"working shifts {shifts or 'none'}"


def _add_annihilator_rows() -> None:
    for label, spec, q, (n_lo, n_hi), section in ANNIHILATORS:
        def fn(spec=spec, q=q, n_lo=n_lo, n_hi=n_hi):
            a = _counts(spec)
            via_lda, n0_lda = lda(_min_poly(spec), a)
            via_hankel, n0_hankel = minimal_recurrence(a)
            if via_lda != q or via_hankel != q:
                return False, list(q.coeffs), \
                    f"lda {list(via_lda.coeffs)}, hankel {list(via_hankel.coeffs)}"
            bad = [i + q.degree for i in range(n_lo - q.degree, n_hi - q.degree + 1)
                   if window_apply(q, a, i) != 0]
            return not bad, \
                f"{list(q.coeffs)}, holds for {n_lo} <= n <= {n_hi}", \
                "both routes agree, windows hold" if not bad else f"window fails at n={bad[0]}"
        _row(f"c4 {label} annihilator", "annihilators", section)(fn)

    # D(2,8) is finite: both routes must reach the degree-0 annihilator 1,
    # valid from n0 = 9 (no word of length 9 or more survives)
    for route, solve in ROUTES.items():
        def fn(solve=solve):
            q, n0 = solve(MaxDistinct(2, 8))
            return (q, n0) == (P([1]), 9), "annihilator [1] from n0 = 9", \
                f"annihilator {list(q.coeffs)} from n0 = {n0}"
        _row(f"c4 D(2,8) annihilator via {route}", "annihilators", 5)(fn)


def _add_min_poly_rows() -> None:
    for label, spec, factors, section in MIN_POLYS:
        def fn(spec=spec, factors=factors):
            want = math.prod(factors, start=P([1]))
            got = _min_poly(spec)
            return got == want, list(want.coeffs), list(got.coeffs)
        _row(f"c5 {label} matrix minimal polynomial", "matrix-polynomials", section)(fn)


def _add_asymptotic_rows() -> None:
    for label, spec, route, alpha, m, c_lead, c_split, section in ASYMPTOTICS:
        def fn(spec=spec, route=route, alpha=alpha, m=m, c_lead=c_lead, c_split=c_split):
            q, _ = ROUTES[route](spec)
            root = largest_real_root(q)
            fit = asymptotic_fit(_counts(spec)[:401], root, annihilator=q,
                                 split_parity=c_split is not None)
            lead = fit.c if c_split is None else fit.c1
            ok = abs(float(root) - alpha) < 1e-9 and fit.multiplicity == m and \
                _agrees(lead, c_lead) and (c_split is None or _agrees(fit.c2, c_split))
            expected = f"alpha={alpha}, m={m}, C={c_lead}" + \
                (f", C2={c_split}" if c_split is not None else "")
            actual = f"alpha={float(root):.13f}, m={fit.multiplicity}, C={lead:.10g}" + \
                (f", C2={fit.c2:.10g}" if c_split is not None else "") + \
                ("" if fit.converged else f" ({fit.reason})")
            return ok and fit.converged, expected, actual
        _row(f"c6 {label} asymptotics", "asymptotics", section)(fn)


def _add_oracle_rows() -> None:
    for label, spec, section in ORACLE_SPECS:
        def fn(spec=spec):
            depth = ORACLE_DEPTH[spec.alphabet_size]
            brute = tuple(brute_count_profile(spec, depth))
            auto = _counts(spec)[: depth + 1]
            return brute == auto, f"agreement to n={depth}", \
                "agree" if brute == auto else f"brute {brute} vs automaton {auto}"
        _row(f"c7 {label} oracle agreement", "oracle-agreement", section)(fn)


def _add_avoidance_rows() -> None:
    cases = [("E(2,4)", MaxLen(2, 4), 6), ("E(2,5)", MaxLen(2, 5), 6),
             ("E(3,1)", MaxLen(3, 1), 6), ("E(3,2)", MaxLen(3, 2), 6)]
    for label, spec, section in cases:
        def fn(spec=spec):
            allowed = enumerate_palindromes(spec.alphabet_size, spec.cap)
            via_set = spec_dfa(AllowedSet(spec.alphabet_size, allowed))
            via_avoid = minimize(build_avoidance(
                forbidden_set(allowed, spec.alphabet_size), spec.alphabet_size))
            ok = isomorphic(spec_dfa(spec), via_set) and isomorphic(via_set, via_avoid)
            return ok, "three constructions isomorphic", \
                "isomorphic" if ok else "mismatch"
        _row(f"c8 {label} avoidance cross-check", "avoidance-crosscheck", section)(fn)

    @_row("c8 S(4) avoidance cross-check", "avoidance-crosscheck", 6)
    def sigma4_iso():
        via_avoid = minimize(build_avoidance(forbidden_set(SIGMA4.allowed, 4), 4))
        ok = isomorphic(spec_dfa(SIGMA4), via_avoid)
        return ok, "isomorphic", "isomorphic" if ok else "mismatch"

    @_row("c8 S(4) forbidden factors", "avoidance-crosscheck", 6)
    def sigma4_forbidden():
        got = forbidden_set(SIGMA4.allowed, 4)
        return got == SIGMA4_FORBIDDEN, "the 16 listed factors", \
            f"{len(got)} factors" + ("" if got == SIGMA4_FORBIDDEN else " (differ)")


def _add_stabilization_rows() -> None:
    @_row("c9 D(2,13) transformation stabilization", "stabilization", 5)
    def d13():
        report = check_stabilization(spec_dfa(MaxDistinct(2, 13)), G0, W("01"), 4)
        ok = (report.stabilized_at == 2
              and report.reversal_equal == (True,) * 4
              and report.accepted == (True,) * 5)
        return ok, "stable from n=2, reversal-equal from n=1, all accepted", \
            f"stable from n={report.stabilized_at}, " \
            f"reversal {report.reversal_equal}, accepted {report.accepted}"

    @_row("c9 D(2,13) palindromic factors of the 4th iterate", "stabilization", 5)
    def g4():
        npal = len(palindromic_factors(perturbed_symmetry(G0, W("01"), 4)))
        return npal == 13, 13, npal

    @_row("c9 S(4) transformation stabilization", "stabilization", 6)
    def b_n():
        report = check_stabilization(spec_dfa(SIGMA4), B0, Word((2, 3), 4), 6)
        ok = report.stabilized_at == 1 and report.accepted == (True,) * 7
        return ok, "stable from n=1, all accepted", \
            f"stable from n={report.stabilized_at}, accepted {report.accepted}"

    @_row("c9 S(4) palindromic factors of the 5th iterate", "stabilization", 6)
    def b5():
        npal = len(palindromic_factors(perturbed_symmetry(B0, Word((2, 3), 4), 5)))
        return npal == 5, 5, npal

    @_row("c9 S(4) image of the parity word", "stabilization", 6)
    def h_image():
        h = Morphism({0: Word((2, 3, 0, 1), 4), 1: Word((3, 0, 1), 4)})
        image = h.apply(thue_morse(1000))
        got = set(palindromic_factors(image))
        want = {Word((), 4)} | {Word((c,), 4) for c in range(4)}
        return got == want, "exactly the five allowed palindromes", \
            f"{len(got)} palindromic factors"


def _add_property_rows() -> None:
    @_row("c10 palindromic factor sets vs naive scan", "properties", None)
    def tree_vs_naive():
        rng = random.Random(0)
        for i in range(10_000):
            k = rng.choice((2, 2, 3, 4))
            n = rng.randrange(25)
            syms = tuple(rng.randrange(k) for _ in range(n))
            w = Word(syms, k)
            if palindromic_factors(w) != naive_palindromic_factors(w):
                return False, "all sets equal", f"word {syms} differs"
        return True, "all sets equal", "10000 words agree"

    @_row("c10 minimization idempotent and language-preserving", "properties", None)
    def min_props():
        specs = [MaxDistinct(2, 9), MaxLen(2, 4), MaxLenByParity(2, 2, 5),
                 _t(5, 4), MaxDistinct(3, 4), SIGMA4]
        for spec in specs:
            raw = build_direct(spec)
            m = spec_dfa(spec)
            if not isomorphic(m, minimize(m)):
                return False, "idempotent + same language", f"{spec} not idempotent"
            depth = 8 if spec.alphabet_size == 2 else 6
            stack = [(raw.start, m.start, 0)]
            while stack:
                q_raw, q_min, d = stack.pop()
                if raw.accepting[q_raw] != m.accepting[q_min]:
                    return False, "idempotent + same language", f"{spec} differs"
                if d == depth:
                    continue
                for a in range(raw.alphabet_size):
                    stack.append((raw.delta[q_raw, a], m.delta[q_min, a], d + 1))
        return True, "idempotent + same language", "6 instances verified"

    @_row("c10 factor closure of accepted words", "properties", None)
    def factorial():
        rng = random.Random(0)
        specs = [MaxDistinct(2, 9), MaxLen(2, 5), MaxLenByParity(3, 0, 3), _t(5, 4)]
        checked = 0
        for spec in specs:
            d = spec_dfa(spec)
            for _ in range(150):
                q, letters = d.start, []
                for _ in range(rng.randrange(3, 15)):
                    live = [a for a in range(d.alphabet_size)
                            if d.delta[q, a] != d.dead]
                    if not live:
                        break
                    a = rng.choice(live)
                    letters.append(a)
                    q = d.delta[q, a]
                w = Word(letters, d.alphabet_size)
                if not d.accepts(w):
                    return False, "every factor accepted", f"{spec}: {w} rejected"
                for i in range(len(w)):
                    for j in range(i + 1, len(w) + 1):
                        if not d.accepts(w[i:j]):
                            return False, "every factor accepted", \
                                f"{spec}: factor {w[i:j]} of {w} rejected"
                checked += 1
        return True, "every factor accepted", f"{checked} words, all factors accepted"

    @_row("c10 serialization round-trips", "properties", None)
    def round_trip():
        dfas = [spec_dfa(MaxDistinct(2, 9)), spec_dfa(SIGMA4),
                build_direct(MaxLen(2, 4)), spec_dfa(MaxLenByParity(3, 0, 3))]
        for d in dfas:
            for fmt in ("grail", "json"):
                if import_dfa(export_dfa(d, fmt), fmt) != d:
                    return False, "import(export(d)) == d", f"{fmt} round-trip differs"
        return True, "import(export(d)) == d", "8 round-trips exact"


_add_state_count_rows()
_add_classification_rows()
_add_sequence_rows()
_add_annihilator_rows()
_add_min_poly_rows()
_add_asymptotic_rows()
_add_oracle_rows()
_add_avoidance_rows()
_add_stabilization_rows()
_add_property_rows()


def row_descriptors() -> list[tuple[str, str, int | None, RowFn, bool]]:
    return list(_ROWS)


def run_checks(section: int | None = None,
               group: str | None = None) -> Iterator[CheckResult]:
    """Execute the registry, yielding one CheckResult per row.

    A state budget that is not a positive integer, or a selection that
    matches no row (the message names the groups), raises ValueError.
    """
    state_budget()
    rows = [row for row in _ROWS if group in (None, row[1]) and section in (None, row[2])]
    if not rows:
        groups = ", ".join(sorted({grp for _, grp, *_ in _ROWS}))
        raise ValueError(f"no check matches this selection; the groups are {groups}")
    for name, grp, sec, fn, known in rows:
        try:
            passed, expected, actual = fn()
        except Exception as exc:  # a failing row must not kill the run
            # an error is never an anticipated outcome, so the row loses
            # its known-discrepancy marker and surfaces as a plain failure
            yield CheckResult(name, grp, sec, False, "(no error)",
                              f"{type(exc).__name__}: {exc}")
            continue
        yield CheckResult(name, grp, sec, passed, str(expected), str(actual),
                          known_discrepancy=known)
