import itertools
import random

import pytest

from palfac.construct import forbidden_set
from palfac.words import (
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
