from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from suprschur import kronecker
from suprschur.alphabet_words import enumerate_cyw, natural_order
from suprschur.errors import InvalidParameterError, ResourceLimitError
from suprschur.kronecker import (
    ORACLE_BUDGET,
    CharacterTable,
    _box_steps,
    _census_by_bars,
    _sqread_shape_census,
    character_table,
    class_size,
    g_hook_oracle,
    g_hook_rule,
    g_oracle,
    g_sum_oracle,
    g_sum_rule,
    hook,
)
from suprschur.tableaux import insert, partitions_of, sqread


def test_character_table_known_values():
    table = character_table(2)
    assert table.chi((2,), (1, 1)) == 1 and table.chi((2,), (2,)) == 1
    assert table.chi((1, 1), (1, 1)) == 1 and table.chi((1, 1), (2,)) == -1
    table = character_table(3)
    assert table.chi((2, 1), (1, 1, 1)) == 2
    assert table.chi((2, 1), (2, 1)) == 0
    assert table.chi((2, 1), (3,)) == -1


@lru_cache(maxsize=None)
def _char_reference(lam, rho):
    """One character value by border strip removal on first-column hook
    lengths, recursing on (lam less a strip, rho without its first part)
    and caching every pair."""
    if not lam:
        return 1 if not rho else 0
    k = rho[0]
    rest = rho[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted(beta, reverse=True)
        new_beta[new_beta.index(b)] = nb
        new_beta.sort(reverse=True)
        new_lam = tuple(part for j, value in enumerate(new_beta) if (part := value - (length - 1 - j)) > 0)
        total += (-1) ** height * _char_reference(new_lam, rest)
    return total


def test_rows_match_the_pair_recursion():
    for n in range(13):
        table = character_table(n)
        reference = {lam: tuple(_char_reference(lam, rho) for rho in table.partitions) for lam in table.partitions}
        assert table.rows == reference, n
        assert all(table.chi(lam, rho) == _char_reference(lam, rho) for lam in reference for rho in reference), n


def test_trivial_and_negative_tables():
    table = character_table(0)
    assert (table.n, table.partitions, table.sizes, table.rows) == (0, ((),), (1,), {(): (1,)})
    assert table.chi((), ()) == 1
    with pytest.raises(InvalidParameterError):
        character_table(-1)


def _is_orthogonal(table):
    """First orthogonality: rows weighted by class sizes sum to n! on the
    diagonal and to 0 off it."""
    n_fact = factorial(table.n)
    for lam, row in table.rows.items():
        for mu, other in table.rows.items():
            total = sum(z * a * b for z, a, b in zip(table.sizes, row, other))
            if total != (n_fact if lam == mu else 0):
                return False
    return True


def test_orthogonality():
    for n in range(1, 9):
        assert _is_orthogonal(character_table(n))


def test_class_sizes():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2


def test_budget():
    with pytest.raises(ResourceLimitError) as info:
        character_table(ORACLE_BUDGET + 1)
    assert info.value.required == ORACLE_BUDGET + 1


def test_g_oracle_examples():
    values = {nu: g_oracle((3, 1), (2, 1, 1), nu) for nu in partitions_of(4)}
    assert values == {
        (4,): 0,
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
        (1, 1, 1, 1): 1,
    }
    assert g_oracle((2, 1), (2, 1), (2, 1)) == 1
    for lam in partitions_of(4):
        for nu in partitions_of(4):
            assert g_oracle((4,), lam, nu) == (1 if lam == nu else 0)
    with pytest.raises(InvalidParameterError):
        g_oracle((2,), (1, 1), (3,))


def _g_oracle_reference(lam, mu, nu):
    """The average looked up entry by entry: one chi call per character and
    class, with each class size from ``class_size``."""
    n = sum(lam)
    table = character_table(n)
    total = sum(
        class_size(rho) * table.chi(lam, rho) * table.chi(mu, rho) * table.chi(nu, rho)
        for rho in table.partitions
    )
    quotient, remainder = divmod(total, factorial(n))
    assert not remainder
    return quotient


def test_g_oracle_matches_chi_reference():
    checked = 0
    for n in range(1, 8):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    assert g_oracle(lam, mu, nu) == _g_oracle_reference(lam, mu, nu), (lam, mu, nu)
                    checked += 1
    parts = partitions_of(8)
    for lam in parts:
        for d in range(8):
            for nu in parts:
                assert g_oracle(lam, hook(8, d), nu) == _g_oracle_reference(lam, hook(8, d), nu), (lam, d, nu)
                checked += 1
    assert checked == sum(len(partitions_of(n)) ** 3 for n in range(1, 8)) + 22 * 8 * 22


def test_non_integral_average_still_raises(monkeypatch):
    # a fresh table with one row altered, so the cached table and its
    # coefficient rows are never touched
    table = CharacterTable(3)
    row = table.rows[(2, 1)]
    table.rows = {**table.rows, (2, 1): (row[0] + 1,) + row[1:]}
    monkeypatch.setattr(kronecker, "character_table", lambda n: table)
    for call in (
        lambda: g_oracle((2, 1), (2, 1), (3,)),
        lambda: g_hook_oracle((2, 1), 1, (2, 1)),
        lambda: g_sum_oracle((2, 1), 2, (1, 1, 1)),
    ):
        with pytest.raises(ArithmeticError):
            call()
    monkeypatch.undo()
    assert g_oracle((2, 1), (2, 1), (3,)) == 1
    assert g_hook_oracle((2, 1), 1, (2, 1)) == 1


def test_g_oracle_symmetry():
    for n in (3, 4, 5):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    base = g_oracle(lam, mu, nu)
                    for a, b, c in permutations((lam, mu, nu)):
                        assert g_oracle(a, b, c) == base


def test_hook_rule_examples():
    assert g_hook_rule((3, 2), 2, (3, 1, 1)) == 2
    assert g_sum_rule((3, 2), 2, (3, 1, 1)) == 3
    assert g_sum_rule((3, 2), 2, (2, 1, 1, 1)) == 1
    assert g_hook_rule((3, 1), 2, (2, 2)) == 1
    for nu in partitions_of(4):
        assert g_hook_rule(nu, 0, nu) == 1  # hook with no leg is the one-row shape
        for other in partitions_of(4):
            if other != nu:
                assert g_hook_rule(nu, 0, other) == 0
    assert g_sum_rule((2, 1), 0, (2, 1)) == 1
    with pytest.raises(InvalidParameterError):
        g_hook_rule((2, 1), 3, (2, 1))
    with pytest.raises(InvalidParameterError):
        hook(3, 3)


def test_hook_rule_matches_oracle_at_fifteen_boxes():
    # past the old oracle limit of n = 14: the staircase against every hook
    # and every shape
    lam = (5, 4, 3, 2, 1)
    assert ORACLE_BUDGET >= 15
    checked = nonzero = 0
    for d in range(15):
        for nu in partitions_of(15):
            value = g_hook_rule(lam, d, nu)
            assert value == g_hook_oracle(lam, d, nu), (d, nu)
            checked += 1
            nonzero += value != 0
    assert (checked, nonzero) == (2640, 1185)


def _g_sum_oracle_reference(lam, d, nu):
    """The sum oracle that added only the terms whose d is in range."""
    n = sum(lam)
    total = 0
    if 0 <= d <= n - 1:
        total += g_oracle(lam, hook(n, d), nu)
    if 0 <= d - 1 <= n - 1:
        total += g_oracle(lam, hook(n, d - 1), nu)
    return total


def test_g_sum_oracle_refuses_what_the_rule_refuses():
    for lam, d, nu in [((2, 1), 7, (2, 1)), ((), 0, ()), ((2, 1), -1, (2, 1)), ((2, 1), 1, (2, 2))]:
        for function in (g_sum_rule, g_sum_oracle):
            with pytest.raises(InvalidParameterError):
                function(lam, d, nu)
    checked = 0
    for n in range(1, 8):
        parts = partitions_of(n)
        for lam in parts:
            for d in range(n + 1):
                for nu in parts:
                    assert g_sum_oracle(lam, d, nu) == _g_sum_oracle_reference(lam, d, nu), (lam, d, nu)
                    checked += 1
    assert checked == sum(len(partitions_of(n)) ** 2 * (n + 1) for n in range(1, 8))


def test_empty_partition_is_refused_not_answered():
    # n = 0 has no hook shape: a usage error, neither a coefficient nor a
    # resource limit
    for call in (
        lambda: g_hook_rule((), 0, ()),
        lambda: g_sum_rule((), 0, ()),
        lambda: g_oracle((), (), ()),
        lambda: g_hook_rule((), 0, (1,)),
        lambda: g_oracle((), (1,), (1,)),
    ):
        with pytest.raises(InvalidParameterError):
            call()


def _sqread_shape_census_reference(lam, d):
    """The census by insertion: every colored Yamanouchi word of content lam
    with d bars is inserted, and the fixed points sqread(P(w)) == w are
    counted by shape and by whether the word ends barred."""
    order = natural_order(max(len(lam), 1))
    census = {}
    for w in enumerate_cyw(lam, d):
        tab = insert(w, order)
        if sqread(tab) != w:
            continue
        shape = tuple(len(cells) for _, cells in tab.rows())
        key = (shape, w[-1].barred if w else False)
        census[key] = census.get(key, 0) + 1
    return census


def test_census_matches_insertion_reference():
    checked = 0
    for n in range(1, 9):
        for lam in partitions_of(n):
            for d in range(n + 1) if n <= 7 else (0, 1, 4, 8):
                assert dict(_sqread_shape_census(lam, d)) == _sqread_shape_census_reference(lam, d), (lam, d)
                checked += 1
    assert checked == 284 + 22 * 4


def _diagonal_steps(nu: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The diagonals of nu in reading order, from the southwest corner to the
    box (1, nu_1).  Each diagonal lists its boxes bottom-up as the positions
    of their west and south neighbours on the previous diagonal, -1 where
    the neighbour is outside nu."""
    steps = []
    prev_rows: dict[int, int] = {}
    for k in range(len(nu) - 1, -nu[0] if nu else 0, -1):
        rows = [r for r in range(len(nu), 0, -1) if 1 <= r - k <= nu[r - 1]]
        steps.append(tuple((prev_rows.get(r, -1), prev_rows.get(r + 1, -1)) for r in rows))
        prev_rows = {r: i for i, r in enumerate(rows)}
    return tuple(steps)


def _barred_prefixes_ok(diagonal: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether a finished diagonal's barred letters, read top-down, keep
    b[v-1] >= b[v] after each of them.  b already counts them all, so they
    are taken back off bottom-up."""
    seen = list(b)
    for x in diagonal:
        if x & 1:
            v = x >> 1
            if v and seen[v] > seen[v - 1]:
                return False
            seen[v] -= 1
    return True


def _diagonal_fills(lam: tuple[int, ...], nu: tuple[int, ...]) -> dict[tuple[int, bool], int]:
    """Count the colored tableaux of shape nu in the natural order whose
    diagonal reading word is colored Yamanouchi of content lam, by number of
    barred letters and by whether the word ends barred.

    Letters are their natural-order codes 2(v-1) + barred, so the row and
    column conditions compare codes.  A state is the previous diagonal, the
    current one so far (filled bottom-up), a = lam - (unbarred counts) and
    b = barred counts.  Unbarred letters are checked against a[v] >= a[v+1]
    as they are placed; a diagonal's barred letters are read top-down after
    its unbarred ones, so they are checked against b[v-1] >= b[v] once it is
    complete.  The census of one shape at a time, with unpacked counts: the
    reference for the trie walk of ``_census_by_bars``.
    """
    parts = len(lam)
    top = 2 * parts - 1
    states: dict[tuple, int] = {((), (), lam, (0,) * parts): 1}
    for boxes in _diagonal_steps(nu):
        last = len(boxes) - 1
        for j, (west, south) in enumerate(boxes):
            grown: dict[tuple, int] = {}
            for (prev, cur, a, b), count in states.items():
                lo = 0 if west < 0 else prev[west] + (prev[west] & 1)
                hi = top if south < 0 else prev[south] - 1 + (prev[south] & 1)
                for x in range(lo, hi + 1):
                    v = x >> 1
                    if a[v] <= b[v]:
                        continue
                    if x & 1:
                        na, nb = a, b[:v] + (b[v] + 1,) + b[v + 1:]
                    else:
                        if v + 1 < parts and a[v] <= a[v + 1]:
                            continue
                        na, nb = a[:v] + (a[v] - 1,) + a[v + 1:], b
                    ncur = cur + (x,)
                    if j < last:
                        key = (prev, ncur, na, nb)
                    elif _barred_prefixes_ok(ncur, nb):
                        key = (ncur, (), na, nb)
                    else:
                        continue
                    grown[key] = grown.get(key, 0) + count
            states = grown
    out: dict[tuple[int, bool], int] = {}
    for (prev, _cur, _a, b), count in states.items():
        key = (sum(b), bool(prev and prev[0] & 1))
        out[key] = out.get(key, 0) + count
    return out


def test_box_steps_are_the_diagonals_read_in_turn():
    for n in range(1, 13):
        for nu in partitions_of(n):
            flat = [(west, south, j == len(boxes) - 1) for boxes in _diagonal_steps(nu) for j, (west, south) in enumerate(boxes)]
            assert _box_steps(nu) == flat, nu


def test_trie_census_matches_the_fill_of_one_shape_at_a_time():
    # lam_1 runs over 1..9, so the packed counts cross several field widths
    checked = 0
    for n in range(1, 10):
        parts = partitions_of(n)
        for lam in parts:
            census = _census_by_bars(lam)
            reference: dict = {}
            for nu in parts:
                for (d, ends_barred), count in _diagonal_fills(lam, nu).items():
                    reference.setdefault(d, {})[(nu, ends_barred)] = count
            assert {d: dict(by_shape) for d, by_shape in census.items()} == reference, lam
            for d in range(n + 1):
                assert dict(_sqread_shape_census(lam, d)) == reference.get(d, {}), (lam, d)
            checked += 1
    assert checked == sum(len(partitions_of(n)) for n in range(1, 10))


def test_census_cache_cannot_be_mutated():
    census = _sqread_shape_census((2, 1), 1)
    with pytest.raises((AttributeError, TypeError)):
        census.clear()
    with pytest.raises(TypeError):
        census[((2, 1), False)] = 0
    assert g_hook_rule((2, 1), 1, (2, 1)) == g_hook_oracle((2, 1), 1, (2, 1)) == 1
    assert g_sum_rule((2, 1), 1, (2, 1)) == g_sum_oracle((2, 1), 1, (2, 1)) == 2


def test_bar_removal_bijection():
    # removing the bar from a final barred letter matches the word sets with
    # one fewer bar, and preserves being a diagonal reading word
    for lam in [(2, 1), (2, 2), (3, 1)]:
        n = sum(lam)
        order = natural_order(len(lam))
        for d in range(n):
            plus = [w for w in enumerate_cyw(lam, d + 1) if w[-1].barred]
            minus = {w for w in enumerate_cyw(lam, d) if not w[-1].barred}
            stripped = {w[:-1] + (type(w[-1])(w[-1].value, False),) for w in plus}
            assert stripped == minus
            for word in plus:
                image = word[:-1] + (type(word[-1])(word[-1].value, False),)
                assert (sqread(insert(word, order)) == word) == (sqread(insert(image, order)) == image)
