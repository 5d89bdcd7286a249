"""Pinned outputs every benchmark job is checked against.

Nothing here is computed from the library at run time, and the
acceptance registry (`palfac.reproduce`) is not imported: its rows change
from version to version, and its import-time row building would land in
set-up time.  Two kinds of value are pinned:

* values from the paper's tables: minimized state counts, annihilators,
  matrix minimal polynomials (as factor lists), growth rates and
  constants, the parity-table example words and the forbidden factors
  of the four-letter allowed set;
* values the paper does not list, recorded from the library at the
  commit that introduced the benchmark and cross-checked there against
  the paper tables and the brute-force oracle: raw state counts, count
  sequence and oracle profile digests, the n0 from which each annihilator
  holds, periodic-word census digests and stabilization indices.

Oracle profiles are also compared with the automaton's counts at run
time, and `verify` acceptance flags with a whole-word test on the
palindromic factors, so those checks do not rest on the pins alone.
"""

from __future__ import annotations

import copy


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prod(*factors: list[int]) -> list[int]:
    out = [1]
    for f in factors:
        out = _mul(out, f)
    return out


def _x(n: int) -> list[int]:
    return [0] * n + [1]


# minimized live state counts (paper tables), plus four pinned here:
# D(2,12), the four-letter set S(4), E(2,4) and the parity rows with the
# even cap lowered by one
LIVE_STATES = {
    "D(2,8)": 23, "D(2,9)": 98, "D(2,10)": 280, "D(2,11)": 810, "D(2,12)": 2270,
    "D(2,13)": 6522, "D(3,3)": 3, "D(3,4)": 18, "D(3,5)": 69,
    "E(2,4)": 32, "E(2,5)": 62, "E(3,1)": 10, "E(3,2)": 19, "S(4)": 17,
    "R(2,2,5)": 44, "R(2,6,3)": 60, "R(3,0,3)": 34,
    "T(2,3,9)": 1468, "T(2,3,8)": 799, "T(2,4,7)": 1181, "T(2,4,6)": 530,
    "T(2,5,5)": 419, "T(2,5,4)": 136, "T(2,6,5)": 604, "T(2,6,4)": 177,
    "T(2,7,4)": 261, "T(2,8,4)": 375, "T(2,3,10)": 3071, "T(2,4,8)": 2830,
    "T(2,5,6)": 1269, "T(2,7,5)": 955, "T(2,9,4)": 545, "T(3,1,5)": 632,
    "T(2,2,9)": 265, "T(2,2,8)": 183, "T(2,3,7)": 368, "T(2,3,6)": 191,
}

# states built by build_direct, and after minimize with the dead state
RAW_STATES = {"D(2,13)": 124230, "D(2,12)": 25464, "T(2,3,10)": 22556}
STATES = {"D(2,13)": 6523, "D(2,12)": 2271, "T(2,3,10)": 3072}

_FINITE, _PERIODIC, _APERIODIC = ("NoInfiniteWords", "FinitelyManyPeriodic",
                                  "UncountablyManyAperiodic")
CLASSIFICATION = {
    "D(2,8)": _FINITE, "D(3,3)": _FINITE,
    "D(2,9)": _PERIODIC, "D(2,10)": _PERIODIC, "D(3,4)": _PERIODIC,
    "E(2,4)": _PERIODIC, "E(3,1)": _PERIODIC,
    "T(2,5,5)": _PERIODIC, "T(2,5,4)": _PERIODIC, "T(2,6,4)": _PERIODIC,
    "T(2,7,4)": _PERIODIC,
    "T(2,2,9)": _PERIODIC, "T(2,2,8)": _PERIODIC, "T(2,3,7)": _PERIODIC,
    "T(2,3,6)": _PERIODIC,
    **{label: _APERIODIC for label in (
        "D(2,11)", "D(2,12)", "D(2,13)", "D(3,5)", "E(2,5)", "E(3,2)", "S(4)",
        "R(2,2,5)", "R(2,6,3)", "R(3,0,3)", "T(2,3,10)", "T(2,4,8)", "T(2,5,6)",
        "T(2,7,5)", "T(2,9,4)", "T(3,1,5)",
        # the parity rows the paper labels periodic-only but that hold
        # aperiodic words (each is certified by the classify job)
        "T(2,3,9)", "T(2,3,8)", "T(2,4,7)", "T(2,4,6)", "T(2,6,5)", "T(2,8,4)")},
}

# (number of ultimately periodic infinite words, digest of their sorted
# "prefix|period" list); languages with none have the empty-list digest
_NONE = [0, "e3b0c44298fc1c14"]
PERIODIC = {
    **{label: _NONE for label, cls in CLASSIFICATION.items() if cls != _PERIODIC},
    "D(2,9)": [12, "da0518ec748c6062"], "D(2,10)": [52, "ec36f5bf771855d0"],
    "D(3,4)": [6, "312b0f283e4a763f"], "E(2,4)": [20, "2c504251e4aa4c77"],
    "E(3,1)": [6, "312b0f283e4a763f"],
    "T(2,5,5)": [64, "57d08930e3f0fafa"], "T(2,5,4)": [16, "38704b72a74ae0b2"],
    "T(2,6,4)": [20, "636891d7f5146b07"], "T(2,7,4)": [26, "ca5997371642dc1f"],
    "T(2,2,9)": [24, "6db05f700b65d23b"], "T(2,2,8)": [16, "2a005a067d11c92e"],
    "T(2,3,7)": [44, "331d144dfe3b561f"], "T(2,3,6)": [28, "8a30f72d1e1f797c"],
}

# the paper's example word for each parity-table row it labels correctly
PERIODIC_EXAMPLE = {"T(2,5,5)": "0|001011", "T(2,5,4)": "|001011",
                    "T(2,6,4)": "0|011001", "T(2,7,4)": "10|011001"}

_D211 = _prod([-1, 1], [1, 1], [1, 1, 1], [1, -1, 1], [-1, -1, 0, 0, 0, 0, 0, 1],
              [1, 1, 1, 1, 1, 1, 1], [-1, 0, -1, 0, 0, 0, 0, 0, 1])

# annihilator coefficients (constant term first) and the n0 from which it holds
ANNIHILATOR = {
    "D(2,11)": [_D211, 15],
    "D(3,5)": [[-1, -1, 0, 0, 1], 5],
    "E(2,5)": [[-1, -2, -2, -2, -3, 0, 0, 0, 0, 0, 1], 10],
    "E(3,2)": [[-1, -1, 1], 3],
    "R(2,2,5)": [[-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1], 6],
    "R(2,6,3)": [[-1, 0, 0, 0, -3, 0, -2, 0, -1, 0, 0, 0, 0, 0, 1], 7],
    "R(3,0,3)": [[-1, 0, -1, 1], 4],
}

MIN_POLY = {
    "D(2,11)": _prod(_x(15), [-1, 1], [-2, 1], [1, 1], [1, 0, 1], [1, 1, 1], [1, -1, 1],
                     [-1, -1, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1, 1],
                     [-1, 0, -1, 0, 0, 0, 0, 0, 1]),
    "D(3,5)": _prod(_x(5), [-1, 1], [-3, 1], [1, 1, 1], [-1, -1, 0, 0, 1]),
    "E(2,5)": _prod(_x(10), [-2, 1], [-1, -2, -2, -2, 1, 0, 0, 0, 0, 0, 1],
                    [-1, -2, -2, -2, -3, 0, 0, 0, 0, 0, 1]),
    "E(3,2)": _prod(_x(3), [-3, 1], [-1, -1, 1], [1, 2, 2, 1, 1]),
    "R(2,2,5)": _prod(_x(6), [-2, 1], [-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1]),
    "R(2,6,3)": _prod(_x(7), [-2, 1], [1, 0, 1],
                      [-1, 0, 0, 0, -3, 0, -2, 0, -1, 0, 0, 0, 0, 0, 1],
                      [-1, 0, 1, 0, 0, 0, -2, 0, 1, 0, -1, 0, 1]),
    "R(3,0,3)": _prod(_x(4), [-3, 1], [1, -1, 1], [-1, 0, -1, 1], [1, 1, 2, 2, 1]),
}

# growth rate alpha, leading constant C, and the (-alpha)^n constant or None
ASYMPTOTICS = {
    "D(2,11)": (1.112775684279, 20.665, None),
    "D(3,5)": (1.2207440846, 16.07007, None),
    "E(2,5)": (1.36927381628918, 9.8315779, None),
    "R(2,2,5)": (1.0804184273981, 15.991809, 0.023895),
    "R(2,6,3)": (1.244528319539183, 11.58110542, 0.00264754),
    "R(3,0,3)": (1.465571231876768, 5.37711043, None),
}

# (number of terms, digest) of each count job's sequence
COUNTS = {
    "count T(2,3,10) terms=2000": [2001, "1d3db7ada8bd0b77"],
    "count D(2,12) terms=2000": [2001, "81630b5f6c724159"],
}

# (accepted words visited, digest of the length profile) of each oracle job
ORACLE = {
    "oracle S(4) depth=16": [393209, "61f4e44daa4a761f"],
    "oracle E(2,5) depth=30": [453267, "18223de18797fb6a"],
    "oracle E(3,2) depth=20": [171925, "679864a3e19901bb"],
    "oracle D(3,5) depth=36": [116665, "4730525511344267"],
    "oracle D(2,11) depth=60": [172873, "53564085ee45411a"],
    "oracle R(2,6,3) depth=34": [100011, "c484d80cfe840a71"],
    "oracle T(2,5,6) depth=36": [44079, "2e068bbd044932b4"],
}

STABILIZED_AT = {
    "verify S(4) seed=01 infix=23 nmax=16": 1,
    "verify D(2,10) seed=0010 infix=1 nmax=10": 2,
}

FORBIDDEN = {
    "S(4)": sorted(["00", "11", "22", "33", "010", "020", "030", "101", "121", "131",
                    "202", "212", "232", "303", "313", "323"]),
}


def reference() -> dict:
    """A fresh copy of every pinned table, keyed as `jobs.check` reads them."""
    return copy.deepcopy({
        "live_states": LIVE_STATES, "raw_states": RAW_STATES, "states": STATES,
        "classification": CLASSIFICATION, "periodic": PERIODIC,
        "periodic_example": PERIODIC_EXAMPLE, "annihilator": ANNIHILATOR,
        "min_poly": MIN_POLY, "asymptotics": ASYMPTOTICS, "counts": COUNTS,
        "oracle": ORACLE, "stabilized_at": STABILIZED_AT, "forbidden": FORBIDDEN,
    })
