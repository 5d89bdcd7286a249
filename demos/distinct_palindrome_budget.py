"""
What happens to binary words as their palindrome budget grows
=============================================================

Every binary word of length n contains at least 8 distinct palindromic
factors once n is large enough (counting the empty word), and the
structure of the words that stay at the minimum changes sharply with
the budget: cap 8 kills the language at length 8, cap 9 leaves exactly
twelve infinite words, cap 10 leaves finitely many again, and cap 11
suddenly admits uncountably many, aperiodic ones included.

Run:  python3 demos/distinct_palindrome_budget.py
"""

from palfac.analyze import analyze, FinitelyManyPeriodic, NoInfiniteWords
from palfac.automaton import minimize
from palfac.construct import MaxDistinct, build_direct
from palfac.recur import sequence, transfer_matrix

for cap in (8, 9, 10, 11):
    d = minimize(build_direct(MaxDistinct(2, cap)))
    report = analyze(d)
    print(f"cap {cap}: minimized automaton has {d.live_state_count()} live states")

    if isinstance(report.classification, NoInfiniteWords):
        # a word as long as the live state count would repeat a state and pump
        counts = sequence(transfer_matrix(d), d.live_state_count())
        longest = max(n for n, count in enumerate(counts) if count)
        print(f"  finite language; longest word has length {longest}")
    elif isinstance(report.classification, FinitelyManyPeriodic):
        words = report.periodic_words
        print(f"  {len(words)} infinite words, all ultimately periodic:")
        for y, x in words[:6]:
            print(f"    {y}({x})^w" if len(y) else f"    ({x})^w")
        if len(words) > 6:
            print(f"    ... and {len(words) - 6} more")
    else:
        q, x0, x1 = report.birecurrent
        print("  uncountably many infinite words: cycles "
              f"{x0} and {x1} both close at state {q},")
        print("  so every infinite mixing sequence of the two yields a distinct word")

    counts = sequence(transfer_matrix(d), 12)
    print(f"  counts a(0..12): {counts}")
    print()
