import inspect
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palfac.automaton import (
    BUDGET_ENV,
    CapacityError,
    Dfa,
    FormatError,
    export_dfa,
    import_dfa,
    isomorphic,
    minimize,
)
from palfac.construct import MaxDistinct, build_avoidance, build_direct
from palfac.words import Word


def _random_dfa(rng, n, k, accept_prob=0.5):
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    accepting = [q for q in range(n) if rng.random() < accept_prob]
    return Dfa(delta, rng.randrange(n), accepting)


def _words_up_to(k, n):
    out = [()]
    layer = [()]
    for _ in range(n):
        layer = [w + (a,) for w in layer for a in range(k)]
        out.extend(layer)
    return out


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa([[0, 1], [1]], 0, [0])  # ragged row
    with pytest.raises(ValueError):
        Dfa([[0, 2], [1, 1]], 0, [0])  # out of range
    for delta, accepting in (([[0, 1 << 40], [1, 1]], [0]),  # past int32
                             ([[0, 0.5], [1, 1]], [0]),  # not an integer
                             ([[0, 1], [1, 1]], [2]),  # accepting out of range
                             ([[0, 1], [1, 1]], [-1]),
                             ([[0, 1], [1, 1]], [True, False])):  # a mask, not indices
        with pytest.raises(ValueError):
            Dfa(delta, 0, accepting)


def test_dfa_arrays_are_read_only():
    d = Dfa([[0, 1], [1, 1]], 0, [0])
    with pytest.raises(ValueError):
        d.delta[0, 0] = 1
    with pytest.raises(ValueError):
        d.accepting[1] = True


@pytest.mark.parametrize("delta, accepting, dead", [
    ([[0, 1], [1, 1]], [0], 1),
    ([[1, 1], [0, 1]], [0], None),  # 1 rejects but leaves on 0
    ([[0, 1], [1, 1]], [0, 1], None),  # every state accepts
])
def test_dead_is_derived(delta, accepting, dead):
    assert Dfa(delta, 0, accepting).dead == dead


def test_dfa_from_lists_equals_dfa_from_array():
    rows = [[1, 2], [3, 3], [3, 3], [3, 3]]
    a = Dfa(rows, 0, [0, 1, 2])
    b = Dfa(np.array(rows, dtype=np.int32), 0, np.array([0, 1, 2]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Dfa(rows, 0, [0, 1])


def test_every_producer_gives_read_only_arrays():
    assert list(inspect.signature(Dfa).parameters) == ["delta", "start", "accepting"]
    raw = build_direct(MaxDistinct(2, 6))
    for d in (raw, minimize(raw), build_avoidance([Word((0, 0)), Word((1, 1))], 2),
              import_dfa(export_dfa(raw, "json"), "json"), import_dfa(export_dfa(raw), "grail")):
        assert d.delta.dtype == np.int32
        assert d.delta.shape == (d.state_count, d.alphabet_size)
        assert d.accepting.dtype == bool
        assert d.accepting.shape == (d.state_count,)
        assert not d.delta.flags.writeable and not d.accepting.flags.writeable


def test_run_and_accepts():
    # accepts words with an even number of 1s
    d = Dfa([[0, 1], [1, 0]], 0, [0])
    assert d.accepts(Word.from_digits("0110"))
    assert not d.accepts((1, 0, 0))
    assert d.accepts(())


def test_minimize_collapses_equivalent_states():
    # states 1 and 2 are interchangeable
    d = Dfa([[1, 2], [3, 3], [3, 3], [3, 3]], 0, [0, 1, 2])
    m = minimize(d)
    assert m.state_count == 3
    assert m.live_state_count() == 2
    assert m.dead is not None
    assert m.start == 0


def test_minimize_drops_unreachable():
    d = Dfa([[0, 0], [1, 1]], 0, [0, 1])
    m = minimize(d)
    assert m.state_count == 1
    assert m.dead is None


def test_minimize_preserves_language_and_is_idempotent():
    rng = random.Random(5)
    probes = _words_up_to(2, 7)
    for _ in range(60):
        d = _random_dfa(rng, rng.randrange(1, 9), 2)
        m = minimize(d)
        for w in probes:
            assert d.accepts(w) == m.accepts(w)
        again = minimize(m)
        assert again == m  # canonical form is a fixed point
        assert m.state_count <= d.state_count


def test_minimize_canonical_numbering_is_bfs():
    rng = random.Random(6)
    for _ in range(40):
        m = minimize(_random_dfa(rng, rng.randrange(2, 10), 3))
        seen = {m.start}
        frontier = [m.start]
        order = [m.start]
        while frontier:
            nxt = []
            for q in frontier:
                for a in range(m.alphabet_size):
                    t = m.delta[q][a]
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
                        nxt.append(t)
            frontier = nxt
        assert order == sorted(order)  # discovery order equals numbering


def _parts(d):
    """The rows and accepting states of d as Python values."""
    return d.delta.tolist(), np.flatnonzero(d.accepting).tolist()


def _table_filling_minimum(delta, start, accepting):
    """Minimal DFA by pairwise table filling (Myhill-Nerode), BFS-numbered.

    Shares nothing with `minimize`: reachable states come from a plain
    search, pairs are marked distinguishable until nothing changes, and
    the classes are renumbered in breadth-first order from the start.
    """
    k = len(delta[0])
    reach = {start}
    stack = [start]
    while stack:
        for t in delta[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    states = sorted(reach)
    apart = {(p, q) for p in states for q in states
             if (p in accepting) != (q in accepting)}
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if (p, q) not in apart and any(
                        (delta[p][a], delta[q][a]) in apart for a in range(k)):
                    apart.add((p, q))
                    changed = True
    cls = {q: min(p for p in states if (p, q) not in apart) for q in states}
    number = {cls[start]: 0}
    order = [cls[start]]
    queue = deque(order)
    while queue:
        c = queue.popleft()
        for a in range(k):
            t = cls[delta[c][a]]
            if t not in number:
                number[t] = len(number)
                order.append(t)
                queue.append(t)
    table = [[number[cls[delta[c][a]]] for a in range(k)] for c in order]
    return table, sorted(number[c] for c in order if c in accepting)


complete_dfas = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k), min_size=n, max_size=n)),
    st.integers(0, n - 1),
    st.sets(st.integers(0, n - 1))))


@settings(max_examples=150, deadline=None)
@given(complete_dfas)
def test_minimize_matches_table_filling(dfa):
    delta, start, accepting = dfa
    m = minimize(Dfa(delta, start, accepting))
    assert m.start == 0
    assert _parts(m) == _table_filling_minimum(delta, start, accepting)


def test_minimize_matches_table_filling_over_twelve_letters():
    # a round packs (block, 12 successor blocks) in radix count, and
    # 28**13 > 2**62, so rounds with 28 or more blocks re-rank the key
    # between letters; in every other automaton letter 0 alone (a cycle)
    # separates the states, so a re-rank that lost the letters before it
    # would stop on too coarse a partition
    rng = random.Random(13)
    wide = 0
    for i in range(12):
        n = rng.randrange(30, 45)
        if i % 2:
            d = _random_dfa(rng, n, 12)
        else:
            cycle = rng.sample(range(n), n)
            after = {q: cycle[(j + 1) % n] for j, q in enumerate(cycle)}
            fixed = [rng.randrange(n) for _ in range(11)]
            accepting = [q for q in range(n) if rng.random() < 0.5]
            d = Dfa([[after[q]] + fixed for q in range(n)], 0, accepting)
        m = minimize(d)
        delta, accepting = _parts(d)
        assert _parts(m) == _table_filling_minimum(delta, d.start, accepting)
        wide += m.state_count >= 28
    assert wide >= 9


def test_isomorphic_on_renumbered_copy():
    rng = random.Random(7)
    for _ in range(40):
        m = minimize(_random_dfa(rng, rng.randrange(2, 9), 2))
        n = m.state_count
        perm = list(range(n))
        rng.shuffle(perm)
        delta = [None] * n
        for q in range(n):
            delta[perm[q]] = [perm[m.delta[q][a]] for a in range(m.alphabet_size)]
        other = Dfa(delta, perm[m.start], [perm[q] for q in _parts(m)[1]])
        assert isomorphic(m, other)


def test_not_isomorphic_different_language():
    a = minimize(Dfa([[0, 1], [1, 1]], 0, [0]))  # L = 0*
    b = minimize(Dfa([[1, 0], [1, 1]], 0, [0]))  # L = 1*
    assert not isomorphic(a, b)


def test_grail_round_trip():
    rng = random.Random(8)
    probes = _words_up_to(2, 6)
    for _ in range(30):
        m = minimize(_random_dfa(rng, rng.randrange(2, 8), 2))
        back = import_dfa(export_dfa(m, "grail"), "grail")
        assert isomorphic(minimize(back), m)
        for w in probes:
            assert back.accepts(w) == m.accepts(w)


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        m = minimize(_random_dfa(rng, rng.randrange(2, 8), 3))
        back = import_dfa(export_dfa(m, "json"), "json")
        assert back == m


def test_grail_completes_partial_automaton():
    text = "(START) |- 0\n0 0 1\n1 -| (FINAL)\n0 -| (FINAL)\n"
    d = import_dfa(text, "grail")
    assert d.dead is not None
    assert d.accepts((0,))
    assert not d.accepts((0, 0))


def test_grail_table_held_to_twice_the_state_budget(monkeypatch):
    # a complete binary table over four states is 2 * 4 entries
    monkeypatch.setenv(BUDGET_ENV, "4")
    lines = ["(START) |- 0"] + [f"{q} {a} {min(q + 1, 3)}" for q in range(4) for a in range(2)]
    assert import_dfa("\n".join(lines), "grail").state_count == 4
    # five complete states, or four whose missing transition adds a dead state
    for text in lines + ["4 0 4", "4 1 4"], lines[:-1]:
        with pytest.raises(CapacityError):
            import_dfa("\n".join(text), "grail")


def test_grail_rejects_nondeterminism():
    text = "(START) |- 0\n0 0 1\n0 0 0\n0 -| (FINAL)\n"
    with pytest.raises(FormatError):
        import_dfa(text, "grail")
    with pytest.raises(FormatError):
        import_dfa("(START) |- 0\n(START) |- 1\n0 0 0\n", "grail")


def test_dot_omits_dead():
    d = Dfa([[1, 2], [1, 2], [2, 2]], 0, [0, 1])
    dot = export_dfa(d, "dot")
    assert "doublecircle" in dot
    assert " 2 [" not in dot and "-> 2" not in dot
