import copy
import inspect
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from palfac import words
from palfac.construct import AllowedSet, MaxDistinct, forbidden_set
from palfac.verify import perturbed_symmetry
from palfac.words import (
    PalFacSet,
    Word,
    palindromic_factors,
    naive_palindromic_factors,
    enumerate_palindromes,
    minimal_elements,
)


def test_word_basics():
    w = Word.from_digits("0012", 3)
    assert len(w) == 4
    assert str(w) == "0012"
    assert w.reverse() == Word.from_digits("2100")
    assert not w.is_palindrome()
    assert Word.from_digits("01210").is_palindrome()
    assert Word(()).is_palindrome()


def test_word_equality_ignores_alphabet():
    assert Word((0, 1), 2) == Word((0, 1), 5)
    assert hash(Word((0, 1), 2)) == hash(Word((0, 1), 5))


def test_word_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Word((0, 2), 2)
    for symbols in ((0, -1), (0, 1.0), ("0",), (None,)):
        with pytest.raises(ValueError):
            Word(symbols, 2)


def test_words_cut_from_words_match_the_checked_constructor():
    # slices, reversals, products and rotations skip the symbol checks;
    # they must still be the Words the public constructor would build
    rng = random.Random(5)
    for _ in range(300):
        k = rng.choice((2, 3, 5))
        w = Word(tuple(rng.randrange(k) for _ in range(rng.randrange(0, 12))), k)
        v = Word(tuple(rng.randrange(2) for _ in range(rng.randrange(0, 5))), 2)
        i, j = sorted(rng.randrange(len(w) + 1) for _ in range(2))
        derived = [w[i:j], w[::-1], w.reverse(), w + v, v + w, w * 3,
                   w.primitive_root(), *w.conjugates(),
                   *palindromic_factors(w), *naive_palindromic_factors(w)]
        for d in derived:
            assert type(d.symbols) is tuple
            assert d == Word(d.symbols, d.alphabet_size)
            # k >= 2, so w + v stays over k letters; factor sets add the
            # empty word as Word(())
            assert d.alphabet_size == k or d == Word(())
    for w in enumerate_palindromes(3, 4):
        assert w == Word(w.symbols, 3) and w.alphabet_size == 3
    with pytest.raises(ValueError):
        enumerate_palindromes(-2, 3)


def test_word_order_is_length_then_lex():
    ws = [Word.from_digits(t) for t in ("10", "0", "1", "011", "00")]
    assert sorted(str(w) for w in sorted(ws)) == sorted(["0", "1", "00", "10", "011"])
    assert [str(w) for w in sorted(ws)] == ["0", "1", "00", "10", "011"]


def test_factor_and_conjugates_and_root():
    w = Word.from_digits("001011")
    assert Word.from_digits("010").is_factor_of(w)
    assert not Word.from_digits("11011").is_factor_of(w)
    assert len(w.conjugates()) == 6
    assert Word.from_digits("010101").primitive_root() == Word.from_digits("01")
    assert w.primitive_root() == w


def test_primitive_root_is_the_shortest_root():
    # the root of w has the length of the shortest rotation fixing w: uv = vu
    # exactly when u and v are powers of one word; every word up to length 8
    for k in (1, 2, 3):
        for n in range(0, 9 if k < 3 else 7):
            for s in itertools.product(range(k), repeat=n):
                p = next((p for p in range(1, n + 1) if s[p:] + s[:p] == s), 0)
                assert Word(s, k).primitive_root().symbols == s[:p]


def test_palfac_small_cases():
    pf = palindromic_factors(Word.from_digits("0011"))
    names = sorted(str(w) for w in pf)
    assert names == sorted(["", "0", "1", "00", "11"])
    even, odd = pf.counts_by_parity()
    assert (even, odd) == (3, 2)
    assert pf.max_length_by_parity() == (2, 1)
    assert pf.max_length() == 2


def test_palfac_iterates_in_word_order():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.choice((2, 3))
        w = Word(tuple(rng.randrange(k) for _ in range(rng.randrange(0, 40))), k)
        pf = palindromic_factors(w)
        assert list(pf) == sorted(pf.palindromes)


def test_palfac_empty_word():
    pf = palindromic_factors(Word(()))
    assert len(pf) == 1
    assert Word(()) in pf


def test_eertree_against_naive_bulk():
    rng = random.Random(1)
    for _ in range(10_000):
        k = rng.choice((2, 2, 3, 4))
        n = rng.randrange(0, 33)
        w = Word(tuple(rng.randrange(k) for _ in range(n)), k)
        assert palindromic_factors(w) == naive_palindromic_factors(w)


def test_palfac_members_keep_the_alphabet():
    rng = random.Random(4)
    cases = [Word((), 3), Word((1,), 2), Word((0,), 1), Word((2,), 5)]
    for _ in range(300):
        k = rng.choice((1, 2, 3, 4))
        cases.append(Word(tuple(rng.randrange(k) for _ in range(rng.randrange(0, 25))), k))
    for w in cases:
        fast, naive = palindromic_factors(w), naive_palindromic_factors(w)
        assert fast == naive
        for pf in (fast, naive):
            assert Word(()) in pf
            assert {p.alphabet_size for p in pf} == {w.alphabet_size}


def test_palfac_count_at_most_length_plus_one():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(0, 60)
        w = Word(tuple(rng.randrange(2) for _ in range(n)), 2)
        assert len(palindromic_factors(w)) <= n + 1


def test_eertree_parity_counts():
    rng = random.Random(6)
    for _ in range(200):
        k = rng.randrange(1, 4)
        w = Word(tuple(rng.randrange(k) for _ in range(rng.randrange(0, 40))), k)
        assert (palindromic_factors(w).counts_by_parity()
                == naive_palindromic_factors(w).counts_by_parity())
    assert palindromic_factors(Word.from_digits("001011")).counts_by_parity() == (3, 4)


def test_enumerate_palindromes():
    pals = enumerate_palindromes(2, 3)
    assert [str(w) for w in pals] == ["", "0", "1", "00", "11", "000", "010", "101", "111"]
    for w in enumerate_palindromes(3, 5):
        assert w.is_palindrome()
    assert len(enumerate_palindromes(2, 5)) == 1 + 2 + 2 + 4 + 4 + 8


def test_enumerate_palindromes_filters_all_words():
    for k in range(0, 4):
        for n in range(0, 7):
            every = [Word(w, k) for m in range(n + 1)
                     for w in itertools.product(range(k), repeat=m)]
            assert enumerate_palindromes(k, n) == sorted(w for w in every if w.is_palindrome())


def test_minimal_elements():
    pool = [Word.from_digits(t) for t in ("00", "000", "0110", "11", "101")]
    out = minimal_elements(pool)
    assert sorted(str(w) for w in out) == ["00", "101", "11"]
    # 000 contains 00; 0110 contains 11


def test_factor_order_past_byte_symbols():
    k = 300
    w = Word((299, 0, 256, 44), k)
    assert Word((0, 256), k).is_factor_of(w)
    assert not Word((256, 0), k).is_factor_of(w)
    assert not Word((0, 0), k).is_factor_of(Word((256,), k))  # no encoding collision
    # over 300 letters the minimal forbidden palindromes are the letters
    assert forbidden_set([Word(())], k) == {Word((a,), k) for a in range(k)}
    assert minimal_elements([Word((299, 299), k), Word((299,), k)]) == [Word((299,), k)]


def test_minimal_elements_is_antichain():
    rng = random.Random(4)
    pool = [Word(tuple(rng.randrange(2) for _ in range(rng.randrange(1, 8))), 2)
            for _ in range(60)]
    out = minimal_elements(pool)
    for a in out:
        for b in out:
            assert a == b or not a.is_factor_of(b)


def _source_mutant(func, old: str, new: str):
    """func rebuilt from its own source with one edit, which must apply."""
    source = inspect.getsource(func)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(func)))
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


def _check_against_naive(w: Word, factors=palindromic_factors) -> None:
    """The tree's factor set of w against the naive scan's, member by member."""
    fast, naive = factors(w), naive_palindromic_factors(w)
    want = list(naive)
    got = list(fast)
    assert len(got) == len(want) == len(fast)
    for g, n in zip(got, want):
        assert g == n and g.symbols == n.symbols and g.alphabet_size == n.alphabet_size
    assert fast == naive and hash(fast) == hash(naive)
    k = w.alphabet_size
    shifted = factors(Word([(c + 1) % k for c in w.symbols], k))
    assert (fast == shifted) == (set(want) == set(shifted))
    lengths = [len(p) for p in want]
    even = [n for n in lengths if n % 2 == 0]
    odd = [n for n in lengths if n % 2 == 1]
    assert fast.counts_by_parity() == (len(even), len(odd))
    assert fast.max_length_by_parity() == (max(even), max(odd, default=-1))
    assert fast.max_length() == max(lengths)
    for p in want:
        assert p in fast and Word(p.symbols, k) in fast
    # two letters longer than the longest member: a palindrome and no factor
    assert Word((0, *want[-1].symbols, 0), k) not in fast
    s = w.symbols
    for i in range(len(s) - 1):
        if s[i] != s[i + 1]:
            assert w[i:i + 2] not in fast  # a factor that is no palindrome
            break
    for other in (want[-1].symbols, str(want[-1]), None, 0):
        assert other not in fast


def _perturbed(seed: list[int], infix: list[int], n: int, k: int) -> Word:
    x = Word(seed, k)
    while n and (len(x) * 2 + len(infix)) <= 400:
        x, n = x + Word(infix, k) + x.reverse(), n - 1
    return x


def _fibonacci(n: int) -> Word:
    x = (0,)
    while len(x) < n:
        x = tuple(itertools.chain.from_iterable((0, 1) if c == 0 else (0,) for c in x))
    return Word(x[:n], 2)


def _thue_morse(n: int) -> Word:
    return Word([bin(i).count("1") & 1 for i in range(n)], 2)


_small_words = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=300).map(lambda s: Word(s, k)))
_perturbed_words = st.integers(1, 4).flatmap(lambda k: st.builds(
    _perturbed, st.lists(st.integers(0, k - 1), max_size=6),
    st.lists(st.integers(0, k - 1), max_size=3), st.integers(0, 7), st.just(k)))
_wide_words = st.lists(st.one_of(st.sampled_from((0, 255, 256, 299)), st.integers(0, 299)),
                       max_size=120).map(lambda s: Word(s, 300))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_small_words, _perturbed_words, _wide_words))
@example(Word((), 3))
@example(Word.from_digits("010000"))
@example(perturbed_symmetry(Word.from_digits("0010"), Word.from_digits("1"), 5))
# the direct links: a whole palindrome (no letter before the longest suffix
# palindrome), runs of one or two letters, the Fibonacci and Thue-Morse words,
# S(4)'s X_6 and a one-letter alphabet
@example(Word.from_digits("0120210", 3))
@example(Word((0,) * 60, 2))
@example(Word((0, 1) * 40, 2))
@example(_fibonacci(300))
@example(_thue_morse(300))
@example(perturbed_symmetry(Word.from_digits("01", 4), Word.from_digits("23", 4), 6))
@example(Word((0,) * 50, 1))
def test_factor_sets_match_the_naive_scan(w):
    _check_against_naive(w)


def _by_end(length, center, outer):
    # nodes are made in the order of their first ends
    return sorted(range(2, len(length)), key=length.__getitem__)


def _by_outer_letter(length, center, outer):
    return sorted(range(2, len(length)), key=lambda u: (length[u], outer[u]))


def _mutation_cases() -> list[Word]:
    rng = random.Random(8)
    return [Word.from_digits("10"), Word.from_digits("010000")] + [
        Word(tuple(rng.randrange(k) for _ in range(rng.randrange(0, 60))), k)
        for k in (2, 3, 4) for _ in range(30)]


def _caught(cases, factors=palindromic_factors) -> int:
    caught = 0
    for w in cases:
        try:
            _check_against_naive(w, factors)
        except AssertionError:
            caught += 1
    return caught


@pytest.mark.parametrize("mutant", [_by_end, _by_outer_letter])
def test_differential_rejects_a_mutated_order(monkeypatch, mutant):
    cases = _mutation_cases()
    assert _caught(cases) == 0
    monkeypatch.setattr(words, "_tree_order", mutant)
    assert _caught(cases) > 0


def test_differential_rejects_direct_rows_left_unset():
    # the new node's row is the suffix's row with the suffix's own entry set;
    # copying the row alone loses every link one palindrome down
    mutant = _source_mutant(words.palindromic_factors,
                            "            direct[node * k + s[i - length[suffix]]] = suffix\n", "")
    cases = _mutation_cases()
    assert _caught(cases) == 0
    assert _caught(cases, mutant) > 0


def test_palindromes_are_views_that_behave_as_words():
    cases = [Word.from_digits("0010110100110", 2), Word((299, 0, 256, 0, 299, 7), 300)]
    for w in cases:
        pf = palindromic_factors(w)
        assert {type(p) for p in pf} == {Word, words._View}
        for p in pf:
            plain = Word(p.symbols, w.alphabet_size)
            assert p == plain and plain == p and hash(p) == hash(plain)
            assert not p < plain and not plain < p
            assert str(p) == str(plain) and repr(p) == repr(plain)
            assert len(p) == len(plain) and list(p) == list(plain)
            assert p.reverse() == plain.reverse() and type(p.reverse()) is Word
            assert p.is_palindrome() and p.is_factor_of(w) and plain.is_factor_of(p)
            assert p.is_factor_of(plain) and p.primitive_root() == plain.primitive_root()
            for i in range(-len(p), len(p)):
                assert p[i] == plain[i]
            for i in (len(p), -len(p) - 1):
                with pytest.raises(IndexError):
                    p[i]
            for cut in (slice(1, None), slice(None, -1), slice(None, None, -1),
                        slice(-3, None, 2), slice(5, 1, -2)):
                assert p[cut] == plain[cut] and type(p[cut]) is Word
            for name in ("symbols", "alphabet_size", "_source", "_start", "other"):
                with pytest.raises(AttributeError):
                    setattr(p, name, 0)
    with pytest.raises(AttributeError):
        pf.palindromes = frozenset()
    assert pf.palindromes == frozenset(pf) and pf != pf.palindromes


def _traced(call):
    """call()'s result and the bytes it allocated at its peak."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


def test_factor_set_memory_is_linear_in_the_word():
    # X_10 of D(2,10)'s verify instance: 5,120 palindromes of 13.1 M letters,
    # which copies would hold at over 100 MB
    x10 = perturbed_symmetry(Word.from_digits("0010", 2), Word.from_digits("1", 2), 10)
    assert len(x10) == 5119
    pf, peak = _traced(lambda: palindromic_factors(x10))
    assert len(pf) == 5120 and sum(map(len, pf)) == 13_081_642
    assert peak < 4_000_000


def test_tree_memory_follows_the_palindromes_not_the_word():
    # X_16 of S(4)'s verify instance: 262,142 letters, 5 palindromes; a child
    # table of k slots per letter would take 8.4 MB
    x16 = perturbed_symmetry(Word.from_digits("01", 4), Word.from_digits("23", 4), 16)
    assert len(x16) == 262_142
    pf, peak = _traced(lambda: palindromic_factors(x16))
    assert [str(p) for p in pf] == ["", "0", "1", "2", "3"]
    assert peak < 256_000


def test_factor_set_constructor_checks_order_under_O():
    code = (
        "from palfac.words import PalFacSet, Word\n"
        "e, a, aa = Word(()), Word((0,)), Word((0, 0))\n"
        "for pals in ((e, a, aa), (e, aa, a), (a, aa), (), (e, e, a), (a, e, aa)):\n"
        "    try:\n"
        "        PalFacSet(pals)\n"
        "        print('built')\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    src = str(Path(words.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["built"] + ["ValueError"] * 5
    assert PalFacSet([Word(()), Word((1,), 2)]) == palindromic_factors(Word((1,), 2))


def test_words_sets_and_specs_survive_pickle_and_copy():
    w = Word.from_digits("0110100", 2)
    pf = palindromic_factors(w)
    view = list(pf)[-1]
    assert type(view) is words._View
    values = [w, view, pf, AllowedSet(2, enumerate_palindromes(2, 2)), MaxDistinct(3, 4)]
    for value in values:
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(again) is (Word if value is view else type(value))
            assert again == value and value == again and hash(again) == hash(value)
            with pytest.raises(AttributeError):
                again.alphabet_size = 9
    # a view travels as the plain Word of its symbols, without its source word
    assert len(pickle.dumps(view)) < len(pickle.dumps(w))
    rebuild, args = view.__reduce__()
    assert rebuild is Word and args == (view.symbols, 2)
    with pytest.raises(ValueError):
        rebuild((0, 2), 2)
