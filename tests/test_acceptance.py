"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Each test prints a single PASS line with its runtime (visible with ``-s`` or
in the captured output); a failure raises before the line prints.
"""

import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from golden_data import CYW32_COLUMNS, CYW32_SCHUR, CYW32_TABLEAUX, CYW33_COMPONENTS
from helpers import shape_counts
from suprschur.alphabet_words import (
    ShuffleOrder,
    all_words,
    big_bar_order,
    enumerate_cyw,
    letter_from_code,
    natural_order,
    parse_word,
)
from suprschur.free_algebra import (
    kron_ideal,
    kronknuth_ideal,
    plac_ideal,
)
from suprschur.kronecker import g_hook_oracle, g_hook_rule, g_sum_oracle, g_sum_rule, hook
from suprschur.lascoux import compose_classes, gamma_class, knuth_class_analysis
from suprschur.switchboard import build_cyw_switchboard, component_schur, components
from suprschur.symfun import F_of_set, schur_expand, schur_expand_by_tableaux, word_convert_step
from suprschur.tableaux import ColoredTableau, partitions_of, sqread
from suprschur.verify import (
    verify_commutation,
    verify_conjecture_jnu_kronknuth,
    verify_conversion_bijection,
    verify_flagged,
    verify_insertion_fixed_point,
    verify_jnu,
    verify_jplac,
    verify_nontail_removable,
    verify_reading_word_congruence,
)

w = parse_word


def report(name: str, started: float, limit: float | None = None):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s" + (f" (limit {limit:.0f}s)" if limit else ""))
    if limit is not None:
        assert elapsed < limit


def test_criterion_01_golden_expansion():
    started = time.time()
    words = enumerate_cyw((3, 2), 2)
    assert len(words) == 50
    order = natural_order(2)
    by_tableaux = schur_expand_by_tableaux(words, order)
    by_oracle = schur_expand(F_of_set(words, order))
    assert by_tableaux == CYW32_SCHUR
    assert by_oracle == CYW32_SCHUR
    # the ten outlined tableaux realize the counts
    for rows, word in CYW32_TABLEAUX:
        tab = ColoredTableau.parse(rows, order)
        assert sqread(tab) == w(word)
        assert w(word) in set(words)
    report("1 (golden quasisymmetric expansion)", started, 5)


def test_criterion_02_component_expansions():
    started = time.time()
    board = build_cyw_switchboard((3, 3), 2)
    comps = components(board)
    assert len(comps) == 4
    expansions = component_schur(board)
    expected = sorted(sorted(f.items()) for f, _ in CYW33_COMPONENTS)
    assert sorted(sorted(f.items()) for f in expansions) == expected
    report("2 (four components with their expansions)", started, 10)


def test_criterion_03_hook_rule_matches_oracle():
    started = time.time()
    for n in range(1, 9):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                for d in range(n):
                    assert g_hook_rule(lam, d, nu) == g_hook_oracle(lam, d, nu)
                for d in range(n + 1):
                    assert g_sum_rule(lam, d, nu) == g_sum_oracle(lam, d, nu)
    report("3 (hook rule and sum rule vs character oracle, n <= 8)", started, 120)


@pytest.mark.parametrize("n", [9, 10])
def test_criterion_03_hook_rule_matches_oracle_at(n):
    started = time.time()
    checked = 0
    for lam in partitions_of(n):
        for nu in partitions_of(n):
            for d in range(n):
                assert g_hook_rule(lam, d, nu) == g_hook_oracle(lam, d, nu), (lam, d, nu)
            for d in range(n + 1):
                assert g_sum_rule(lam, d, nu) == g_sum_oracle(lam, d, nu), (lam, d, nu)
            checked += 2 * n + 1
    assert checked == {9: 30 * 30 * 19, 10: 42 * 42 * 21}[n]
    report(f"3 (hook rule and sum rule vs character oracle, n = {n})", started, 120)


def test_criterion_04_reading_word_expansion_membership():
    started = time.time()
    assert verify_jnu(kron_ideal(2), 2, 6)["ok"]
    assert verify_jnu(kron_ideal(3), 3, 6)["ok"]
    assert verify_jnu(kron_ideal(4), 4, 5)["ok"]
    report("4 (reading-word expansion in the Kronecker ideal)", started, 300)


def test_criterion_05_conjectured_strengthening_reported_range():
    started = time.time()
    for N, max_size in ((1, 5), (2, 7), (2, 8), (3, 6)):
        outcome = verify_conjecture_jnu_kronknuth(N, max_size)
        assert outcome["ok"], outcome
        assert outcome["verified_range"] == {"N": N, "max_size": max_size}
    report("5 (conjectured strengthening verified at reduced scale)", started, 300)


def test_criterion_06_column_reading_expansion_membership():
    started = time.time()
    for N in (1, 2):
        assert verify_jplac(natural_order(N), 5)["ok"]
        assert verify_jplac(big_bar_order(N), 5)["ok"]
    report("6 (column-reading expansion in the plactic ideals)", started, 120)


def test_criterion_07_commutation_suite():
    started = time.time()
    ideals = [
        kron_ideal(2),
        kronknuth_ideal(2),
        plac_ideal(natural_order(2)),
        plac_ideal(big_bar_order(2)),
    ]
    for ideal in ideals:
        assert verify_commutation(ideal, 6, "e")["ok"]
        assert verify_commutation(ideal, 6, "h")["ok"]
    report("7 (elementary and homogeneous commutators, k+l <= 6)", started, 120)


# --- criterion 8: five property suites ---


def _all_shuffle_orders(N: int):
    codes = list(range(2 * N))
    unbarred_codes = [c for c in codes if c % 2 == 0]
    barred_codes = [c for c in codes if c % 2 == 1]
    for positions in combinations(range(2 * N), N):
        seq = [None] * (2 * N)
        pos_set = set(positions)
        iu, ib = iter(unbarred_codes), iter(barred_codes)
        for i in range(2 * N):
            seq[i] = next(iu) if i in pos_set else next(ib)
        yield ShuffleOrder(tuple(letter_from_code(c) for c in seq))


def _np_all_words(nletters: int, length: int) -> np.ndarray:
    total = nletters**length
    out = np.empty((total, length), dtype=np.uint8)
    for j in range(length):
        reps = nletters ** (length - 1 - j)
        out[:, j] = np.tile(np.repeat(np.arange(nletters), reps), nletters**j)
    return out


def _np_descent_table(order: ShuffleOrder) -> np.ndarray:
    """Whether x, y is a descent of the order, at index x * 2N + y."""
    size = 2 * order.N
    letters = [letter_from_code(c) for c in range(size)]
    return np.array([order.rank(x) > order.rank(y) or (x == y and x.barred) for x in letters for y in letters])


def _np_convert(words: np.ndarray, bcode: int, acode: int, forward: bool) -> np.ndarray:
    mask = (words == bcode) | (words == acode)
    rows_count, length = words.shape
    prev = np.zeros_like(mask)
    prev[:, 1:] = mask[:, :-1]
    nxt = np.zeros_like(mask)
    nxt[:, :-1] = mask[:, 1:]
    starts = mask & ~prev
    ends = mask & ~nxt
    run_id = np.cumsum(starts, axis=1)
    out = words.copy()
    table = np.zeros((rows_count, length + 1), dtype=words.dtype)
    if forward:
        move = mask & prev  # every non-start run cell takes its left neighbor
        out[:, 1:][move[:, 1:]] = words[:, :-1][move[:, 1:]]
        rows, cols = np.nonzero(ends)
        table[rows, run_id[rows, cols]] = words[rows, cols]
        rows, cols = np.nonzero(starts)
        out[rows, cols] = table[rows, run_id[rows, cols]]
    else:
        move = mask & nxt  # every non-end run cell takes its right neighbor
        out[:, :-1][move[:, :-1]] = words[:, 1:][move[:, :-1]]
        rows, cols = np.nonzero(starts)
        table[rows, run_id[rows, cols]] = words[rows, cols]
        rows, cols = np.nonzero(ends)
        out[rows, cols] = table[rows, run_id[rows, cols]]
    return out


def _covering_swaps(N: int):
    """Every covering swap of every shuffle order, grouped by the conversion
    it applies: (b, abar, forward) -> [(order, swapped order)]."""
    groups: dict[tuple, list] = {}
    for order in _all_shuffle_orders(N):
        seq = list(order.letters)
        for i in range(2 * N - 1):
            if seq[i].barred != seq[i + 1].barred:
                swapped = list(seq)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                b, abar = (seq[i], seq[i + 1]) if not seq[i].barred else (seq[i + 1], seq[i])
                key = (b.code, abar.code, order.lt(b, abar))
                groups.setdefault(key, []).append((order, ShuffleOrder(tuple(swapped))))
    return groups


def test_criterion_08a_descent_preservation_exhaustive():
    started = time.time()
    for N, swaps, conversions in ((1, 2, 2), (2, 12, 8), (3, 60, 18)):
        groups = _covering_swaps(N)
        assert sum(map(len, groups.values())) == swaps and len(groups) == conversions
        tables = {order: _np_descent_table(order) for pairs in groups.values() for pair in pairs for order in pair}
        for length in range(1, 9):
            words = _np_all_words(2 * N, length)
            steps = words[:, :-1] * (2 * N) + words[:, 1:]
            for (bcode, acode, forward), pairs in groups.items():
                converted = _np_convert(words, bcode, acode, forward)
                converted_steps = converted[:, :-1] * (2 * N) + converted[:, 1:]
                for order, target in pairs:
                    assert np.array_equal(tables[order][steps], tables[target][converted_steps])
    report("8a (descent preservation, all covering swaps, length <= 8, N <= 3)", started)


def test_criterion_08a_conversion_matches_library():
    """The array conversion of criterion 8a is the library's word_convert_step."""
    started = time.time()
    letters = [letter_from_code(c) for c in range(6)]
    cases = [(b, abar, forward) for b in letters[0::2] for abar in letters[1::2] for forward in (True, False)]
    assert len(cases) == 18
    checked = 0
    for length in range(1, 7):
        words = list(all_words(3, length))
        array = _np_all_words(6, length)
        for b, abar, forward in cases:
            expected = _np_convert(array, b.code, abar.code, forward).tolist()
            assert [list(word_convert_step(word, b, abar, forward)) for word in words] == expected
            checked += len(words)
    assert checked == 1_007_748
    report("8a (array conversion equals word_convert_step, length <= 6, N = 3)", started)


def test_criterion_08b_insertion_fixed_point():
    started = time.time()
    outcome = verify_insertion_fixed_point(2, 6)
    assert outcome["ok"], outcome
    report("8b (insertion fixed-point characterization, length <= 6, N = 2)", started)


def test_criterion_08c_conversion_bijection():
    started = time.time()
    column_sets = [
        [w(word) for word in CYW32_COLUMNS[0]],
        [w(word) for col in CYW32_COLUMNS[1:3] for word in col],
        [w(word) for col in CYW32_COLUMNS[3:5] for word in col],
    ]
    outcome = verify_conversion_bijection(7, extra_sets=column_sets)
    assert len(outcome["results"]) == 284 + len(column_sets)
    assert outcome["ok"], outcome
    report("8c (conversion bijection on Yamanouchi sets of size <= 7 and column subsets)", started)


def test_criterion_08d_nontail_removable():
    started = time.time()
    outcome = verify_nontail_removable(4, 2)
    assert outcome["ok"], outcome
    report("8d (nontail removable boxes, 4x4 box, N = 2)", started)


def test_criterion_08e_reading_word_congruence():
    started = time.time()
    for N in (2, 3):
        outcome = verify_reading_word_congruence(6, N)
        assert outcome["ok"], outcome
    report("8e (arrow-respecting reading words congruent, <= 6 boxes, N <= 3)", started)


def test_criterion_09_hook_hook_rule():
    started = time.time()
    # worked example: the nine products and the four classes
    left, right = gamma_class((3, 1)), gamma_class((2, 1, 1))
    product = compose_classes(left, right)
    assert product == Counter(
        {
            (3, 2, 4, 1): 1,
            (3, 4, 2, 1): 1,
            (4, 3, 2, 1): 1,
            (3, 2, 1, 4): 1,
            (3, 1, 2, 4): 1,
            (1, 3, 2, 4): 1,
            (3, 4, 1, 2): 1,
            (3, 1, 4, 2): 1,
            (1, 3, 4, 2): 1,
        }
    )
    report9 = knuth_class_analysis(product)
    assert report9["is_union"] and len(report9["classes"]) == 4
    for n in range(2, 7):
        hooks = [hook(n, d) for d in range(n)]
        for lam in hooks:
            for mu in hooks:
                product = compose_classes(gamma_class(lam), gamma_class(mu))
                analysis = knuth_class_analysis(product)
                assert analysis["is_union"]
                counts = shape_counts(product)
                from suprschur.kronecker import g_oracle

                for nu in partitions_of(n):
                    assert counts.get(nu, 0) == g_oracle(lam, mu, nu)
    report("9 (hook-hook class products match the oracle, n <= 6)", started, 60)


def test_criterion_10_flagged_expansion_exhaustive():
    started = time.time()
    outcome = verify_flagged(N=2, max_alpha_weight=4, box=3)
    assert outcome["ok"], outcome["failures"]
    assert outcome["checked"] == 4233
    report("10 (flagged expansion, exhaustive inside the 3x3 box)", started, 600)
