"""
Four letters, five palindromes, and a self-similar witness
==========================================================

Over a four-letter alphabet, which words have no palindromic factor
beyond the single letters?  The language can be built two independent
ways (tracking palindromic suffixes directly, or avoiding a finite list
of forbidden factors), and it supports striking infinite examples: the
doubling words B_{n+1} = B_n 23 B_n^R settle into a fixed transformation
of the automaton after one step, and the image of the Thue-Morse word
under 0 -> 23, 1 -> 01 never picks up a sixth palindrome.
"""

from palfac.automaton import isomorphic, minimize
from palfac.construct import AllowedSet, build_avoidance, build_direct, forbidden_set
from palfac.verify import check_stabilization, thue_morse
from palfac.analyze import Morphism
from palfac.words import Word, palindromic_factors

spec = AllowedSet(4, [Word((), 4)] + [Word((c,), 4) for c in range(4)])

# two constructions, one language
direct = minimize(build_direct(spec))
forbidden = forbidden_set(spec.allowed, 4)
avoiding = minimize(build_avoidance(forbidden, 4))
print(f"direct construction:    {direct.state_count} states")
print(f"avoidance construction: {avoiding.state_count} states "
      f"(from {len(forbidden)} forbidden factors)")
print(f"isomorphic: {isomorphic(direct, avoiding)}")
print()

# the doubling sequence stabilizes immediately
report = check_stabilization(direct, Word((0, 1), 4), Word((2, 3), 4), 5)
print(f"B_n accepted for n = 0..5: {report.accepted}")
print(f"tau_(B_n) = tau_(B_(n+1)) from n = {report.stabilized_at}")
print(f"tau_(B_n) = tau_(B_n reversed) for n = 1..5: {report.reversal_equal}")
print()

# a uniformly recurrent aperiodic inhabitant
h = Morphism({0: Word((2, 3, 0, 1), 4), 1: Word((3, 0, 1), 4)})
image = h.apply(thue_morse(1000))
pals = sorted(palindromic_factors(image), key=len)
print(f"h(thue_morse(1000)) starts {str(image)[:24]}...")
print(f"its palindromic factors: {[str(p) for p in pals]}")
assert direct.accepts(image)
