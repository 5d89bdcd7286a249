"""
The even/odd palindrome budget and where aperiodicity begins
============================================================

Cap the number of even and odd palindromic factors separately (the
empty word counted toward neither) and ask which caps still force every
infinite word to be ultimately periodic.  The boundary is delicate, and
one cell is worth certifying by hand: at caps (4 even, 6 odd) the
automaton has a state carrying two noncommuting cycles, and mixing the
cycles by the Thue-Morse pattern really does stay within budget, which
is checked below by counting palindromes in the mixed word directly.

The script closes with a sibling family fact: with no even palindromes
allowed and odd ones capped at length 3, the ternary count sequence is
six times the step-3 Fibonacci numbers 1,1,1,2,3,4,6,9,... shifted by
one position forward.
"""

from palfac.analyze import analyze
from palfac.automaton import minimize
from palfac.construct import MaxCountByParity, MaxLenByParity, build_direct
from palfac.recur import sequence, transfer_matrix
from palfac.verify import thue_morse
from palfac.words import palindromic_factors


def census(w):
    pals = [p for p in palindromic_factors(w) if len(p) > 0]
    even = sum(1 for p in pals if len(p) % 2 == 0)
    return even, len(pals) - even


print("classification across a slice of the cap grid (even cap, odd cap):")
for even_cap, odd_cap in [(4, 5), (4, 6), (5, 4), (5, 5), (6, 4), (6, 5)]:
    spec = MaxCountByParity(2, even_cap, odd_cap, count_empty=False)
    d = minimize(build_direct(spec))
    kind = type(analyze(d).classification).__name__
    print(f"  ({even_cap},{odd_cap}): {d.live_state_count():4d} live states, {kind}")
print()

spec = MaxCountByParity(2, 4, 6, count_empty=False)
d = minimize(build_direct(spec))
q, x0, x1 = analyze(d).birecurrent
print(f"caps (4,6): cycles {x0} and {x1} close at state {q}")

w = x0
for bit in thue_morse(40):
    w = w + (x1 if bit else x0)
even, odd = census(w)
pals = sorted((p for p in palindromic_factors(w) if len(p) > 0), key=len)
print(f"Thue-Morse mixture of the cycles, length {len(w)}:")
print(f"  {even} even and {odd} odd palindromic factors: "
      + " ".join(str(p) for p in pals))
assert d.accepts(w) and even <= 4 and odd <= 6
print()

counts = sequence(transfer_matrix(minimize(build_direct(MaxLenByParity(3, 0, 3)))), 14)
fib3 = [1, 1, 1]
while len(fib3) < 16:
    fib3.append(fib3[-1] + fib3[-3])
print("ternary, no even palindromes, odd length <= 3:")
print(f"  counts:            {counts[4:14]}  (n = 4..13)")
print(f"  6 * fib3 shifted:  {[6 * fib3[n + 1] for n in range(4, 14)]}")
