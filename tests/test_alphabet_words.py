import copy
import pickle
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from suprschur.alphabet_words import (
    Letter,
    ShuffleOrder,
    all_words,
    barred,
    big_bar_order,
    covering_swap_path,
    descent_mask,
    descent_set,
    double_down,
    down_arrow,
    enumerate_cyw,
    is_shuffle_closed,
    is_yamanouchi,
    letter_from_code,
    natural_order,
    parse_order,
    parse_word,
    standardize,
    to_plain_r,
    unbarred,
    word_str,
)
from suprschur.errors import InvalidParameterError, MalformedInputError
from suprschur.tableaux import partitions_of

from golden_data import CYW31_D1_WORDS

w = parse_word


def test_letter_basics():
    assert str(unbarred(3)) == "3"
    assert str(barred(3)) == "3'"
    assert parse_word("2 1' 10 10'") == (unbarred(2), barred(1), unbarred(10), barred(10))
    assert [letter_from_code(c) for c in range(4)] == [unbarred(1), barred(1), unbarred(2), barred(2)]
    with pytest.raises(InvalidParameterError):
        Letter(0)
    with pytest.raises(MalformedInputError):
        parse_word("x")


def test_letter_is_its_interned_code():
    assert letter_from_code(3) is barred(2)
    assert Letter(2, True) is barred(2) and parse_word("2'")[0] is barred(2)
    assert unbarred(1) == 0 and barred(2) == 3
    for code in range(6):
        x = letter_from_code(code)
        assert x.code == code and type(x.code) is int
        assert hash(x) == hash(x.code)
        assert (x.value, x.barred) == (code // 2 + 1, code % 2 == 1)
    assert hash(parse_word("1 1' 2")) == hash((0, 1, 2))


def test_letter_is_always_true():
    assert bool(unbarred(1)) is True
    flag = double_down(barred(1))  # letter 1, code 0
    assert flag == 0 and flag


def test_letter_is_immutable():
    x = unbarred(2)
    with pytest.raises(AttributeError):
        x.value = 3
    with pytest.raises(AttributeError):
        x.barred = True
    with pytest.raises(AttributeError):
        del x.value
    assert (x.value, x.barred) == (2, False)


def test_letter_survives_pickle_and_copy():
    for x in (unbarred(1), barred(1), barred(7)):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(x, protocol)) is x
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
    word = parse_word("2 1' 1")
    assert all(a is b for a, b in zip(copy.deepcopy(word), word))


def test_letter_rejects_values_below_one():
    for value in (0, -1):
        with pytest.raises(InvalidParameterError):
            Letter(value)
        with pytest.raises(InvalidParameterError):
            Letter(value, True)


def test_letter_prints_as_text_not_code():
    assert f"{barred(2)}" == "2'"
    assert f"{unbarred(1)}" == "1"
    assert f"{barred(2):>3}" == " 2'"
    assert repr(barred(2)) == "Letter(2')"
    assert str(barred(10)) == "10'"


def test_plain_sort_is_natural_order():
    words = enumerate_cyw((3, 2, 1), 2)
    shuffled = list(reversed(words))
    assert sorted(shuffled) == words
    assert sorted(parse_word("2' 1 2 1'")) == list(natural_order(2).letters)


def test_enumerate_cyw_output_is_unchanged():
    assert [word_str(v) for v in enumerate_cyw((3, 1), 1)] == CYW31_D1_WORDS


def test_named_orders():
    nat = natural_order(2)
    assert [str(x) for x in nat.letters] == ["1", "1'", "2", "2'"]
    bb = big_bar_order(2)
    assert [str(x) for x in bb.letters] == ["1", "2", "1'", "2'"]
    assert natural_order(1) == big_bar_order(1)
    # any interleaving that keeps both halves ordered is admissible
    assert ShuffleOrder(parse_word("1' 1 2 2'")).rank(barred(1)) == 0
    with pytest.raises(InvalidParameterError):
        natural_order(0)
    assert parse_order('explicit:"1 2 1\' 2\'"', 2) == bb
    with pytest.raises(InvalidParameterError):
        parse_order("bogus", 2)


def test_order_rejects_scrambled_halves():
    with pytest.raises(MalformedInputError):
        ShuffleOrder(parse_word("2 1 1' 2'"))
    with pytest.raises(MalformedInputError):
        ShuffleOrder(parse_word("1 2' 2 1'"))


def test_order_rejects_repeated_or_missing_letters():
    # the rank table is indexed by letter, so a repeated letter must not
    # stand in for a missing one
    with pytest.raises(MalformedInputError):
        ShuffleOrder(parse_word("1 1 1' 2'"))
    with pytest.raises(MalformedInputError):
        ShuffleOrder(parse_word("1 1' 2"))


def test_down_maps():
    assert double_down(unbarred(2)) == barred(1)
    assert double_down(barred(1)) == unbarred(1)
    assert down_arrow(barred(1)) == barred(1)
    assert down_arrow(unbarred(2)) == barred(1)
    assert double_down(unbarred(1)) is None
    assert down_arrow(unbarred(1)) is None


def test_descent_set_examples():
    nat = natural_order(2)
    assert descent_set(w("1' 1' 1 2 2"), nat) == {1, 2}
    assert descent_set(w("1 2 3"), natural_order(3)) == frozenset()
    assert descent_set(w("2 2"), nat) == frozenset()
    assert descent_set(w("2' 2'"), nat) == {1}


def _descent_positions(word, order):
    """Where the word steps down, compared by public rank: the reference
    for the descent mask."""
    return {
        i + 1
        for i in range(len(word) - 1)
        if order.rank(word[i]) > order.rank(word[i + 1]) or (word[i] == word[i + 1] and word[i].barred)
    }


def _assert_mask_is_descent_set(word, order):
    mask = descent_mask(word, order)
    bits = {i + 1 for i in range(mask.bit_length()) if mask >> i & 1}
    assert bits == _descent_positions(word, order) == descent_set(word, order), (word, order)


def test_descent_mask_on_colored_yamanouchi_words():
    checked = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            orders = (natural_order(len(lam)), big_bar_order(len(lam)))
            for d in range(n + 1):
                for word in enumerate_cyw(lam, d):
                    for order in orders:
                        _assert_mask_is_descent_set(word, order)
                    checked += 1
    assert checked == 5898


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda N: st.tuples(
        st.lists(st.integers(min_value=0, max_value=2 * N - 1), max_size=9),
        st.sampled_from([natural_order(N), big_bar_order(N)]),
    )
))
def test_descent_mask_on_drawn_words(drawn):
    codes, order = drawn
    _assert_mask_is_descent_set(tuple(letter_from_code(c) for c in codes), order)


def test_standardize_examples():
    assert standardize(w("2 1' 2' 1 2' 1' 2 1"), natural_order(2)) == (5, 4, 8, 1, 7, 3, 6, 2)
    assert standardize(w("1 2 3"), natural_order(3)) == (1, 2, 3)
    assert standardize(w("1' 1'"), natural_order(1)) == (2, 1)


def colored_content(word, N):
    """Pair of multiplicity vectors (unbarred counts, barred counts)."""
    unb = [0] * N
    brd = [0] * N
    for x in word:
        (brd if x.barred else unb)[x.value - 1] += 1
    return tuple(unb), tuple(brd)


def test_standardize_is_injective_on_each_content():
    nat = natural_order(2)
    for t in range(0, 5):
        by_content = {}
        for word in all_words(2, t):
            by_content.setdefault(colored_content(word, 2), []).append(standardize(word, nat))
        for images in by_content.values():
            assert len(images) == len(set(images))


def test_to_plain_r_examples():
    assert to_plain_r(w("2 1' 2' 1 3' 1' 2 1")) == (2, 1, 2, 1, 1, 3, 2, 1)
    assert to_plain_r(w("1 2 2 1")) == (1, 2, 2, 1)
    assert to_plain_r(w("1' 2' 3'")) == (3, 2, 1)


def test_is_yamanouchi_examples():
    assert is_yamanouchi(w("2 1' 2' 1 3' 1' 2 1")) == (True, (4, 3, 1))
    assert is_yamanouchi(()) == (True, ())
    assert is_yamanouchi(w("2")) == (False, None)


def is_superstandard_ssyt(rows):
    """Row i filled entirely with the value i."""
    return all(all(x == i + 1 for x in row) for i, row in enumerate(rows))


def test_yamanouchi_matches_superstandard_insertion():
    from suprschur.lascoux import ordinary_insertion_tableau

    from itertools import product

    def check(alphabet_top: int, max_len: int):
        for t in range(1, max_len + 1):
            for word in product(range(1, alphabet_top + 1), repeat=t):
                colored = tuple(unbarred(v) for v in word)
                expected = is_superstandard_ssyt(ordinary_insertion_tableau(word))
                assert is_yamanouchi(colored)[0] == expected

    assert is_superstandard_ssyt(((1, 1, 1), (2, 2)))
    assert not is_superstandard_ssyt(((1, 2),))
    check(4, 8)
    check(6, 5)


def test_enumerate_cyw_trivial_and_golden():
    assert enumerate_cyw((1,), 0) == [w("1")]
    assert enumerate_cyw((1,), 1) == [w("1'")]
    assert len(enumerate_cyw((3, 2), 2)) == 50
    with pytest.raises(InvalidParameterError):
        enumerate_cyw((3, 2), 6)
    with pytest.raises(InvalidParameterError):
        enumerate_cyw((2, 3), 1)


def test_enumerate_cyw_against_filter_oracle():
    # independent oracle: filter every colored word by the plain-image test
    for n in range(1, 6):
        buckets = {}
        for word in all_words(n, n):
            ok, content = is_yamanouchi(word)
            if ok and sum(content) == n:
                d = sum(1 for x in word if x.barred)
                buckets.setdefault((content, d), set()).add(word)
        from suprschur.tableaux import partitions_of

        for lam in partitions_of(n):
            for d in range(n + 1):
                assert set(enumerate_cyw(lam, d)) == buckets.get((lam, d), set())


def test_enumerate_cyw_filter_oracle_size_six():
    buckets = Counter()
    for word in all_words(4, 6):
        ok, content = is_yamanouchi(word)
        if ok:
            buckets[(content, sum(1 for x in word if x.barred))] += 1
    from suprschur.tableaux import partitions_of

    for lam in partitions_of(6):
        if len(lam) > 4:
            continue
        for d in range(7):
            assert len(enumerate_cyw(lam, d)) == buckets.get((lam, d), 0)


def syt_count(lam):
    """Number of standard Young tableaux, by the hook length formula."""
    n = sum(lam)
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return factorial(n) // denom


def cyw_count_formula(lam, d):
    """#SYT(lam) * C(|lam|, d), for cross-checking the enumeration."""
    return syt_count(tuple(lam)) * comb(sum(lam), d)


def test_cyw_count_formula():
    from suprschur.tableaux import partitions_of

    for n in range(1, 7):
        for lam in partitions_of(n):
            for d in range(n + 1):
                assert len(enumerate_cyw(lam, d)) == cyw_count_formula(lam, d)
    assert syt_count((3, 2)) == 5


def test_cyw_is_shuffle_closed_with_d_barred_letters():
    from suprschur.tableaux import partitions_of

    for n in range(1, 6):
        for lam in partitions_of(n):
            for d in range(n + 1):
                words = enumerate_cyw(lam, d)
                assert is_shuffle_closed(words)
                assert all(sum(1 for x in word if x.barred) == d for word in words)


def test_is_shuffle_closed_examples():
    assert is_shuffle_closed(enumerate_cyw((2, 2), 2))
    assert not is_shuffle_closed({w("1 1'")})
    assert is_shuffle_closed(set())


def test_covering_swap_path():
    path = covering_swap_path(big_bar_order(3), natural_order(3))
    assert len(path) == 3
    for before, after, b, abar in path:
        assert not b.barred and abar.barred
        assert {before.rank(b), before.rank(abar)} == {after.rank(b), after.rank(abar)}
    assert path[-1][1] == natural_order(3)
    assert covering_swap_path(natural_order(2), natural_order(2)) == []
    with pytest.raises(InvalidParameterError):
        covering_swap_path(natural_order(2), natural_order(3))


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=7))
def test_word_roundtrips_through_text(codes):
    word = tuple(letter_from_code(c) for c in codes)
    assert parse_word(word_str(word)) == word
    assert word == tuple(codes)
