import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import inf

import pytest

from suprschur import free_algebra
from suprschur.alphabet_words import (
    all_words,
    barred,
    big_bar_order,
    double_down,
    down_arrow,
    letter_from_code,
    natural_order,
    parse_word,
    unbarred,
    word_str,
)
from suprschur.errors import InvalidParameterError, ResourceLimitError
from suprschur.free_algebra import (
    IdealSpec,
    J_augmented,
    J_flagged,
    J_nu,
    NCPoly,
    binary_pairs,
    congruent,
    content_space,
    e_k,
    e_k_order,
    e_k_subset,
    generator_windows,
    h_k_order,
    ideal_contains,
    ideal_degree_basis,
    jshuffle_ideal,
    kron_ideal,
    kronknuth_ideal,
    letters_at_most,
    parse_ideal,
    perp_contains,
    perp_violation,
    plac_ideal,
    rotation_triples,
    swap_moves,
)
from suprschur.alphabet_words import enumerate_cyw
from suprschur.tableaux import ColoredTableau, partitions_of

from golden_data import JNU21_N2_TEXT
from helpers import column_reading_per_tableau, sqread_per_tableau

w = parse_word


def P(text: str) -> NCPoly:
    return NCPoly.from_word(w(text))


def ncpoly_from_text(text: str) -> NCPoly:
    """Read back ``NCPoly.to_text``: one ``+c * word`` or ``-c * word`` per line."""
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        coeff_part, _, word_part = line.partition("*")
        word = w(word_part)
        terms[word] = terms.get(word, 0) + int(coeff_part.replace(" ", ""))
    return NCPoly(terms)


def _partitions_up_to(size):
    return [nu for n in range(size + 1) for nu in partitions_of(n)]


def test_jnu_text_is_unchanged():
    assert J_nu((2, 1), 2).to_text() == JNU21_N2_TEXT
    assert ncpoly_from_text(JNU21_N2_TEXT) == J_nu((2, 1), 2)


def _signed_column_sum_reference(depths, column, longest=None):
    """The loop the library used before its factor table: every permutation
    multiplied factor by factor, stopping at the first zero factor.  It
    decides zero by building each factor, so ``longest`` is not used."""
    total = NCPoly()
    for pi in permutations(range(1, len(depths) + 1)):
        term = NCPoly.one()
        for j, pj in enumerate(pi, start=1):
            factor = column(j, depths[j - 1] + pj - j)
            if not factor:
                break
            term = term * factor
        else:
            inversions = sum(1 for a, b in combinations(pi, 2) if a > b)
            total = total + term * (-1) ** inversions
    return total


def _permutation_sign(pi):
    """Sign of a permutation of 0..t-1, by its cycles."""
    sign = 1
    seen = [False] * len(pi)
    for start in range(len(pi)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = pi[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _signed_column_sum_by_permutations(depths, column, longest=None):
    """The sum the library built before it went column by column: the table
    of column factors is built once, and every permutation whose factors are
    all nonzero is multiplied out in full.  It decides zero by building each
    factor, so ``longest`` is not used."""
    t = len(depths)
    table = [[column(j, depths[j - 1] + p - j) for p in range(1, t + 1)] for j in range(1, t + 1)]
    total = {}
    for pi in permutations(range(t)):
        factors = [row[p] for row, p in zip(table, pi)]
        if not all(factors):
            continue
        term = factors[0] if factors else NCPoly.one()
        for factor in factors[1:]:
            term = term * factor
        sign = _permutation_sign(pi)
        for word, c in term.terms.items():
            total[word] = total.get(word, 0) + sign * c
    return NCPoly(total)


def _by_reference(monkeypatch, function, *args, reference=_signed_column_sum_reference):
    with monkeypatch.context() as patch:
        patch.setattr(free_algebra, "_signed_column_sum", reference)
        return function(*args)


def test_jnu_matches_reference(monkeypatch):
    cases = [(nu, 2, order) for order in (natural_order(2), big_bar_order(2)) for nu in _partitions_up_to(5)]
    cases += [(nu, 3, natural_order(3)) for nu in _partitions_up_to(5)]
    assert len(cases) == 3 * 19
    for nu, N, order in cases:
        assert J_nu(nu, N, order) == _by_reference(monkeypatch, J_nu, nu, N, order)


def test_J_augmented_matches_reference_on_flagged_cases(monkeypatch):
    from suprschur import verify

    cases = set()

    def recording(alpha, flags, inserts, N):
        cases.add((tuple(alpha), tuple(flags), tuple(inserts), N))
        return J_augmented(alpha, flags, inserts, N)

    monkeypatch.setattr(verify, "J_augmented", recording)
    assert verify.verify_flagged(N=2, max_alpha_weight=3, box=3)["ok"]
    monkeypatch.undo()
    assert len(cases) > 100
    assert any(any(inserts) for _, _, inserts, _ in cases)
    assert any(not any(inserts) for _, _, inserts, _ in cases)  # the J_flagged cases
    for case in cases:
        poly = J_augmented(*case)
        assert poly == _by_reference(monkeypatch, J_augmented, *case)
        assert poly == _by_reference(monkeypatch, J_augmented, *case, reference=_signed_column_sum_by_permutations)


def test_jnu_matches_permutation_sum(monkeypatch):
    cases = [(nu, N, order) for N, size in ((3, 6), (4, 5)) for order in (natural_order(N), big_bar_order(N))
             for nu in _partitions_up_to(size)]
    assert len(cases) == 2 * (30 + 19)
    for nu, N, order in cases:
        expected = _by_reference(monkeypatch, J_nu, nu, N, order, reference=_signed_column_sum_by_permutations)
        assert J_nu(nu, N, order) == expected, (nu, N, order.key())


def test_column_sum_edge_cases(monkeypatch):
    def by_permutations(function, *args):
        return _by_reference(monkeypatch, function, *args, reference=_signed_column_sum_by_permutations)

    assert J_nu((), 3) == NCPoly.one() == by_permutations(J_nu, (), 3)

    # no state survives the pruning: every factor of the first column vanishes
    def zero_first(j, k):
        return NCPoly() if j == 1 else e_k(k, 2)

    assert free_algebra._signed_column_sum((2, 1, 1), zero_first, (-1, inf, inf)) == NCPoly()
    assert _signed_column_sum_by_permutations((2, 1, 1), zero_first) == NCPoly()
    # flags at the bottom element leave only e_0, and the first column needs e_1 or e_2
    assert J_flagged((1, 1), (None, None), 2) == NCPoly() == by_permutations(J_flagged, (1, 1), (None, None), 2)


def test_longest_chain_matches_the_chain_sum():
    letters = [letter_from_code(c) for c in range(6)]
    cases = 0
    for size in range(7):
        for subset in combinations(letters, size):
            for k in range(-1, 8):
                for repeat_barred in (True, False):
                    chain = free_algebra._chain_sum(k, subset, repeat_barred)
                    assert (0 <= k <= free_algebra._longest_chain(subset, repeat_barred)) == bool(chain)
                    cases += 1
    assert cases == 64 * 9 * 2


def test_column_sum_builds_only_factors_of_surviving_permutations(monkeypatch):
    # a factor is built only when a kept state uses it, and every kept state
    # is a prefix of a permutation whose factors are all nonzero
    from suprschur import verify

    cases = set()

    def recording(alpha, flags, inserts, N):
        cases.add((tuple(alpha), tuple(flags), tuple(inserts), N))
        return J_augmented(alpha, flags, inserts, N)

    monkeypatch.setattr(verify, "J_augmented", recording)
    assert verify.verify_flagged(N=2, max_alpha_weight=3, box=3)["ok"]
    monkeypatch.undo()
    column_sum = free_algebra._signed_column_sum
    unbuilt = []  # per case, the factors of the t x t table never built

    def recorded(depths, column, longest):
        t = len(depths)
        surviving = {
            (j, pi[j - 1])
            for pi in permutations(range(1, t + 1))
            if all(column(j, depths[j - 1] + pi[j - 1] - j) for j in range(1, t + 1))
            for j in range(1, t + 1)
        }
        built = []

        def counting(j, k):
            built.append((j, k - depths[j - 1] + j))
            return column(j, k)

        out = column_sum(depths, counting, longest)
        assert set(built) <= surviving and len(built) == len(set(built))
        unbuilt.append(t * t - len(built))
        return out

    for case in sorted(cases, key=repr):
        with monkeypatch.context() as patch:
            patch.setattr(free_algebra, "_signed_column_sum", recorded)
            poly = J_augmented(*case)
        assert poly == J_augmented(*case)
    assert len(unbuilt) == len(cases) and sum(unbuilt) > 0


def test_jnu_builds_no_product_past_its_degree(monkeypatch):
    # every permutation has column depths summing to |nu|, so no product
    # needs a degree above it
    mul = NCPoly.__mul__
    degrees = []

    def recording(self, other):
        out = mul(self, other)
        degrees.extend(out.degrees())
        return out

    monkeypatch.setattr(NCPoly, "__mul__", recording)
    assert J_nu((5,), 3).degree() == 5
    assert degrees and max(degrees) == 5


def test_jnu_cancels_as_it_builds(monkeypatch):
    # the permutation sum multiplies out 384 products for J_nu((7,), 3), the
    # largest with 279,936 terms, and ends with 198 terms
    mul = NCPoly.__mul__
    sizes = []

    def recording(self, other):
        out = mul(self, other)
        sizes.append(len(out.terms))
        return out

    monkeypatch.setattr(NCPoly, "__mul__", recording)
    assert len(J_nu((7,), 3).terms) == 198
    assert sizes and max(sizes) <= 10_000


def test_ncpoly_arithmetic_and_text():
    f = P("1 2") - 2 * P("2 1")
    assert f.pairing(P("2 1")) == -2
    assert f.degree() == 2
    assert ncpoly_from_text(f.to_text()) == f
    assert (f - f) == NCPoly()
    # the degree-3 products cancel
    assert (P("1") + P("1 1")) * (P("1 1") - P("1")) == P("1 1 1 1") - P("1 1")
    assert NCPoly.one() * f == f
    with pytest.raises(InvalidParameterError):
        (P("1") + P("1 1")).degree()


def test_elementary_examples():
    assert e_k(2, 1) == P("1' 1") + P("1' 1'")
    assert e_k(0, 3) == NCPoly.one()
    assert e_k(-1, 2) == NCPoly()
    assert e_k_subset(1, []) == NCPoly()
    assert e_k_subset(0, []) == NCPoly.one()
    # equal barred letters chain; equal unbarred do not
    assert P("1' 1'").terms[w("1' 1'")] == 1
    assert w("1 1") not in e_k(2, 2).terms
    assert w("2' 2'") in e_k(2, 2).terms


def _chains_reference(letters_desc, k, step_ok):
    """The old recursive chain walk: every word of k letters from
    ``letters_desc`` whose each step passes ``step_ok(previous, next)``."""
    chain = []

    def rec():
        if len(chain) == k:
            yield tuple(chain)
            return
        for z in letters_desc:
            if not chain or step_ok(chain[-1], z):
                chain.append(z)
                yield from rec()
                chain.pop()

    yield from rec()


def _e_k_order_reference(k, order):
    if k < 0:
        return NCPoly()
    if k == 0:
        return NCPoly.one()
    desc = list(reversed(order.letters))
    return NCPoly({w: 1 for w in _chains_reference(desc, k, lambda prev, z: order.lecol(z, prev))})


def _e_k_subset_reference(k, letters):
    if k < 0:
        return NCPoly()
    if k == 0:
        return NCPoly.one()
    pool = tuple(sorted(set(letters), reverse=True))
    step = lambda prev, z: z < prev or (z == prev and z.barred)  # noqa: E731
    return NCPoly({w: 1 for w in _chains_reference(pool, k, step)})


def _h_k_order_reference(k, order):
    if k < 0:
        return NCPoly()
    if k == 0:
        return NCPoly.one()
    return NCPoly({w: 1 for w in _chains_reference(list(order.letters), k, order.lerow)})


def test_chain_sums_match_the_old_builders():
    cases = 0
    for N in (1, 2, 3):
        letters = [letter_from_code(c) for c in range(2 * N)]
        for k in range(-1, 7):
            for order in (natural_order(N), big_bar_order(N)):
                for built, reference in (
                    (e_k_order(k, order), _e_k_order_reference(k, order)),
                    (h_k_order(k, order), _h_k_order_reference(k, order)),
                ):
                    assert list(built.terms.items()) == list(reference.terms.items())
                    cases += 1
            for size in range(2 * N + 1):
                for subset in combinations(letters, size):
                    built, reference = e_k_subset(k, subset), _e_k_subset_reference(k, subset)
                    assert list(built.terms.items()) == list(reference.terms.items())
                    cases += 1
            # the natural order and the full subset are one chain sum
            assert e_k_order(k, natural_order(N)) is e_k_subset(k, letters)
    assert cases == 768


def h_k(k, N):
    return h_k_order(k, natural_order(N))


def test_homogeneous_examples():
    N = 2
    assert h_k(1, N) == e_k(1, N)
    assert h_k(2, 1) == P("1 1") + P("1 1'")
    assert h_k(0, N) == NCPoly.one()
    assert h_k(-1, N) == NCPoly()


def test_J_examples():
    assert J_nu((1,), 2) == e_k(1, 2)
    assert J_nu((2,), 1) == P("1 1") + P("1 1'")
    assert J_nu((), 2) == NCPoly.one()
    for nu in [(2, 1), (3,), (1, 1, 1)]:
        assert J_nu(nu, 2).degree() == sum(nu)
    # the big bar order gives a different expansion
    assert J_nu((2,), 2, big_bar_order(2)) != J_nu((2,), 2)


def test_flagged_examples():
    two_bar = barred(2)
    assert J_flagged((0, 0), (two_bar, two_bar), 2) == NCPoly.one()
    assert J_flagged((1, 1), (None, two_bar), 2) == NCPoly()
    from suprschur.tableaux import conjugate

    for nu in [(2, 1), (2, 2), (3, 1)]:
        flags = (two_bar,) * nu[0]
        assert J_nu(nu, 2) == J_flagged(conjugate(nu), flags, 2)
    assert J_augmented((0, 0), (two_bar, two_bar), [w("1 2")], 2) == P("1 2")
    with pytest.raises(InvalidParameterError):
        J_flagged((1,), (two_bar, two_bar), 2)
    with pytest.raises(InvalidParameterError):
        J_augmented((1, 1), (two_bar, two_bar), [], 2)


def test_peel_identity_exact_in_the_free_algebra():
    for N in (1, 2, 3):
        for code in range(2 * N):
            x = letter_from_code(code)
            for k in range(5):
                lhs = e_k_subset(k, letters_at_most(x, N))
                rhs = NCPoly.from_word((x,)) * e_k_subset(k - 1, letters_at_most(down_arrow(x), N)) + e_k_subset(
                    k, letters_at_most(double_down(x), N)
                )
                assert lhs == rhs


def test_ideal_specs_and_parsing():
    assert parse_ideal("kron", 2) == kron_ideal(2)
    assert parse_ideal("plac-bigbar", 2).order == big_bar_order(2)
    assert parse_ideal("plac-natural", 2).name() == "plac-natural"
    with pytest.raises(InvalidParameterError):
        parse_ideal("nope", 2)
    with pytest.raises(InvalidParameterError):
        IdealSpec("kron", 2, natural_order(2))
    with pytest.raises(InvalidParameterError):
        IdealSpec("plac", 2)


def test_generator_families():
    # no rotation triples over a two letter alphabet, no far pairs either
    assert rotation_triples(kron_ideal(1)) == []
    assert all(len(p[0]) == 3 for p in binary_pairs(kron_ideal(1)))
    assert len(rotation_triples(kron_ideal(2))) == 2
    # the shuffle ideal commutes every mixed pair
    pairs = binary_pairs(jshuffle_ideal(2))
    assert (w("1 2'"), w("2' 1")) in pairs or (w("2' 1"), w("1 2'")) in pairs
    assert (w("1 1'"), w("1' 1")) in pairs or (w("1' 1"), w("1 1'")) in pairs


def _jshuffle_pairs_reference(N):
    """The super Knuth doubles, the far pairs and every mixed pair, with a
    pair already listed (in either orientation) dropped."""
    letters = [letter_from_code(c) for c in range(2 * N)]
    doubles = [pair for pair in binary_pairs(kron_ideal(N)) if len(pair[0]) == 3]
    far = [((x, z), (z, x)) for x in letters for z in letters if z.code - x.code >= 3]
    mixed = [((x, z), (z, x)) for x in letters for z in letters if not x.barred and z.barred]
    seen = set()
    pairs = []
    for pair in doubles + far + mixed:
        if frozenset(pair) not in seen:
            seen.add(frozenset(pair))
            pairs.append(pair)
    return pairs


def test_jshuffle_pairs_match_deduplicated_reference():
    for N, count in zip(range(1, 5), (3, 16, 41, 78)):
        pairs = binary_pairs(jshuffle_ideal(N))
        assert pairs == _jshuffle_pairs_reference(N) and len(pairs) == count, N


def test_ideal_degree_basis_examples():
    assert ideal_degree_basis(kron_ideal(1), 2) == []
    plac = plac_ideal(natural_order(2))
    basis3 = ideal_degree_basis(plac, 3)
    assert (P("1 2 1'") - P("2 1 1'")) in basis3
    kron3 = ideal_degree_basis(kron_ideal(2), 3)
    rotation = P("1 2 1'") - P("2 1 1'") - P("1' 1 2") + P("1' 2 1")
    assert rotation in kron3
    with pytest.raises(InvalidParameterError):
        ideal_degree_basis(plac, 1)


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("SUPRSCHUR_BUDGET", "10")
    with pytest.raises(ResourceLimitError):
        ideal_degree_basis(kron_ideal(2), 3)
    with pytest.raises(ResourceLimitError):
        ideal_contains(kron_ideal(2), P("1 2 1 2 1 2") - P("2 1 2 1 2 1"))


def test_budget_guard_holds_on_cached_content_space(monkeypatch):
    # an empty cache, so the first lookup below is a cold build whatever ran
    # before
    free_algebra._content_space.cache_clear()
    monkeypatch.delenv("SUPRSCHUR_BUDGET", raising=False)
    kron = kron_ideal(2)
    poly = P("1 2 1 2 1 2") - P("2 1 2 1 2 1")  # content {1^3, 2^3}: 20 words

    def refused() -> ResourceLimitError:
        monkeypatch.setenv("SUPRSCHUR_BUDGET", "10")
        with pytest.raises(ResourceLimitError) as info:
            ideal_contains(kron, poly)
        monkeypatch.delenv("SUPRSCHUR_BUDGET")
        return info.value

    cold = refused()
    assert cold.required == 20
    assert free_algebra._content_space.cache_info().currsize == 0
    answer = ideal_contains(kron, poly)  # default budget: builds and caches the space
    assert free_algebra._content_space.cache_info().currsize == 1
    cached = refused()
    assert (str(cached), cached.required) == (str(cold), cold.required)
    assert ideal_contains(kron, poly) == answer


def test_membership_examples():
    kron = kron_ideal(2)
    plac = plac_ideal(natural_order(2))
    f, g = P("1' 2' 2 1"), P("2' 1' 2 1")
    assert congruent(plac, f, g)
    assert not ideal_contains(kron, f - g)
    assert congruent(kron, f, f)
    assert congruent(kron, e_k(2, 2) * e_k(1, 2), e_k(1, 2) * e_k(2, 2))
    with pytest.raises(InvalidParameterError):
        ideal_contains(kron, P("1") + P("1 1"))


def test_perp_examples():
    words = enumerate_cyw((2, 2), 2)
    gamma = NCPoly({word: 1 for word in words})
    assert perp_contains(kron_ideal(2), gamma)
    violation = perp_violation(plac_ideal(natural_order(2)), gamma)
    assert violation is not None
    # any witness pair has exactly one side in the Yamanouchi set
    assert sum(1 for word in violation["pair"] if word in set(words)) == 1
    pairing = gamma.pairing(
        NCPoly.from_word(violation["left"]) * violation["generator"] * NCPoly.from_word(violation["right"])
    )
    assert pairing != 0
    # the classical witness pair is plactic-congruent with one side missing
    left, right = w("1' 2' 2 1"), w("2' 1' 2 1")
    assert congruent(plac_ideal(natural_order(2)), NCPoly.from_word(left), NCPoly.from_word(right))
    assert left in set(words) and right not in set(words)
    assert gamma.pairing(NCPoly.from_word(left) - NCPoly.from_word(right)) == 1


def _dense_membership(spec, degree):
    """Membership in the span of every padded generator of the degree, by
    dense exact elimination over its words: the reference for the content
    spaces."""
    pivots = {}

    def reduce(vec):
        vec = {word: Fraction(c) for word, c in vec.items() if c}
        while vec:
            lead = min(vec, key=lambda word: tuple(x.code for x in word))
            if lead not in pivots:
                return vec, lead
            factor = vec[lead]
            for word, value in pivots[lead].items():
                new = vec.get(word, Fraction(0)) - factor * value
                if new:
                    vec[word] = new
                else:
                    vec.pop(word, None)
        return vec, None

    for gen in ideal_degree_basis(spec, degree):
        vec, lead = reduce(gen.terms)
        if lead is not None:
            inv = 1 / vec[lead]
            pivots[lead] = {word: value * inv for word, value in vec.items()}
    return lambda poly: not reduce(poly.terms)[0]


def test_membership_agrees_with_dense_elimination():
    rng = random.Random(7)
    specs = [
        kron_ideal(2),
        kronknuth_ideal(2),
        jshuffle_ideal(2),
        plac_ideal(natural_order(2)),
        plac_ideal(big_bar_order(2)),
    ]
    cases = [(spec, degree) for spec in specs for degree in (2, 3, 4)]
    cases += [(spec, degree) for spec in (kron_ideal(3), kronknuth_ideal(3)) for degree in (3, 4)]
    for spec, degree in cases:
        words = list(all_words(spec.N, degree))
        basis = ideal_degree_basis(spec, degree)
        dense_member = _dense_membership(spec, degree)
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                word = rng.choice(words)
                terms[word] = terms.get(word, 0) + rng.choice([-2, -1, 1, 2])
            poly = NCPoly(terms)
            assert ideal_contains(spec, poly) == dense_member(poly)
        for _ in range(15):
            if not basis:
                break
            poly = NCPoly()
            for _ in range(rng.randint(1, 3)):
                poly = poly + rng.choice([-1, 1, 2]) * rng.choice(basis)
            assert ideal_contains(spec, poly)
        # normal forms are canonical: equal exactly when the difference is a
        # member.  g is u or a rearrangement of it, plus padded generators of
        # that content, so it may land in u's coset or off it.
        by_content = {}
        for gen in basis:
            by_content.setdefault(tuple(sorted(gen.support()[0])), []).append(gen)
        equal = 0
        for _ in range(40):
            u = rng.choice(words)
            content = tuple(sorted(u))
            coeff = rng.choice([1, 2])
            g = NCPoly.from_word(rng.choice([u, tuple(rng.sample(u, len(u)))]), coeff)
            gens = by_content.get(content, [])
            for gen in rng.sample(gens, min(2, len(gens))):
                g = g + rng.choice([-1, 1]) * gen
            space = content_space(spec, content)
            same = space.normal_form({u: coeff}) == space.normal_form(g.terms)
            assert same == dense_member(NCPoly.from_word(u, coeff) - g)
            equal += same
        assert 0 < equal < 40


def _content_space_reference(spec, codes):
    """The two-sided walk the content spaces used before they walked each
    padded generator from its first word only: every padded generator is met
    from every word of its support.  Returns the words, the class of each
    word, and the longer padded generators as rows over the classes."""
    words = list(free_algebra.multiset_words([letter_from_code(c) for c in codes]))
    index = {word: i for i, word in enumerate(words)}
    parent = list(range(len(words)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    table = generator_windows(spec)
    longer = {}
    for word in words:
        for left, gen, right in free_algebra._padded_generators(table, word):
            if len(gen) == 2:
                (u, _), (v, _) = gen
                ra, rb = find(index[left + u + right]), find(index[left + v + right])
                parent[max(ra, rb)] = min(ra, rb)
            else:
                longer[left, gen, right] = None
    roots = {}
    class_of = [roots.setdefault(find(i), len(roots)) for i in range(len(words))]
    rows = []
    for left, gen, right in longer:
        row = {}
        for u, c in gen:
            cls = class_of[index[left + u + right]]
            row[cls] = row.get(cls, 0) + c
        rows.append(row)
    return words, class_of, rows


def _pivot_columns(rows):
    """The leading columns of the span of the rows, which every echelon form
    of it shares."""
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = {c: v / row[lead] for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivots[lead].items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return set(pivots)


def test_content_spaces_match_two_sided_walk():
    cases = [(kron_ideal(3), n, 3) for n in range(1, 7)]
    cases += [(spec, n, 2) for spec in (kronknuth_ideal(2), jshuffle_ideal(2), plac_ideal(natural_order(2))) for n in (4, 5)]
    checked = 0
    for spec, n, N in cases:
        for codes in combinations_with_replacement(range(2 * N), n):
            space = free_algebra._ContentSpace(spec, codes)
            words, class_of, rows = _content_space_reference(spec, codes)
            assert space.words == words and space.class_of == class_of
            assert set(space._pivots) == _pivot_columns(rows)
            checked += 1
    assert checked == 923 + 3 * (35 + 56)


def _multiset_words_recursive(letters):
    """The recursion multiset_words used before its next-permutation loop:
    place each distinct letter still available, smallest first."""
    distinct = sorted(set(letters))
    counts = [list(letters).count(x) for x in distinct]
    word = []

    def rec(remaining):
        if remaining == 0:
            yield tuple(word)
            return
        for i, x in enumerate(distinct):
            if counts[i]:
                counts[i] -= 1
                word.append(x)
                yield from rec(remaining - 1)
                word.pop()
                counts[i] += 1

    yield from rec(sum(counts))


def test_multiset_words_match_recursion(monkeypatch):
    # class ids and pivot columns follow the order of the words, so the
    # spaces must come out identical too
    spec = kron_ideal(3)
    checked = 0
    for n in range(7):
        for codes in combinations_with_replacement(range(6), n):
            letters = [letter_from_code(c) for c in reversed(codes)]
            assert list(free_algebra.multiset_words(letters)) == list(_multiset_words_recursive(letters))
            checked += 1
            if not codes:
                continue
            space = free_algebra._ContentSpace(spec, codes)
            with monkeypatch.context() as patch:
                patch.setattr(free_algebra, "multiset_words", _multiset_words_recursive)
                old = free_algebra._ContentSpace(spec, codes)
            assert (space.words, space.class_of, space._pivots) == (old.words, old.class_of, old._pivots)
    assert checked == 1 + 923


def _spaces_with_pivots():
    """Every content of 3 to 5 letters at N=3 whose space has pivot rows, so
    that forms of more than one class occur, as (spec, codes, space)."""
    for spec in (kron_ideal(3), kronknuth_ideal(3)):
        for codes in (c for n in (3, 4, 5) for c in combinations_with_replacement(range(6), n)):
            space = free_algebra._ContentSpace(spec, codes)
            if space._pivots:
                yield spec, codes, space


def test_form_ids_match_normal_forms():
    contents = compound = 0
    for _, _, space in _spaces_with_pivots():
        contents += 1
        by_form, by_id = {}, {}
        for word in space.words:
            by_form.setdefault(frozenset(space.normal_form({word: 1}).items()), set()).add(word)
            fid = space.form_id(word)
            by_id.setdefault(fid, set()).add(word)
            compound += fid >= space.num_classes
        # equal ids exactly when equal forms, for every pair of words
        assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_id.values()))
    assert contents >= 40 and compound > 0
    # a form of one class with a coefficient other than 1 is not that class's
    # form; none of the contents above has one, so set a pivot row by hand
    space = free_algebra._ContentSpace(kron_ideal(2), (0, 2))
    assert space.num_classes == 2 and not space._pivots
    space._pivots = {0: {1: Fraction(-2)}}
    u, v = space.words
    assert space.normal_form({u: 1}) == {1: 2} and space.normal_form({v: 1}) == {1: 1}
    assert space.form_id(u) != space.form_id(v)


def _add_row_in_fractions(self, row):
    """The pivot normalisation used before a lead of 1 or -1 kept its row in
    ints: every pivot row is scaled by a ``Fraction``."""
    row = self._reduce(row)
    if row:
        lead = min(row)
        inv = 1 / Fraction(row.pop(lead))
        self._pivots[lead] = {c: v * inv for c, v in row.items()}


def test_integer_pivots_match_fraction_pivots(monkeypatch):
    int_rows = 0
    for spec, codes, space in _spaces_with_pivots():
        with monkeypatch.context() as patch:
            patch.setattr(free_algebra._ContentSpace, "_add_row", _add_row_in_fractions)
            old = free_algebra._ContentSpace(spec, codes)
        assert space._pivots == old._pivots
        for word in space.words:
            assert space.normal_form({word: 1}) == old.normal_form({word: 1})
            assert space.form_id(word) == old.form_id(word)
        int_rows += sum(all(type(v) is int for v in row.values()) for row in space._pivots.values())
    assert int_rows > 0
    # a lead of -1 keeps the row in ints; a lead of 2 still needs a Fraction
    space = free_algebra._ContentSpace(kron_ideal(2), (0, 2))
    space._add_row({0: -1, 1: 3})
    assert space._pivots == {0: {1: -3}} and type(space._pivots[0][1]) is int
    space._pivots = {}
    space._add_row({0: 2, 1: 1})
    assert space._pivots == {0: {1: Fraction(1, 2)}} and type(space._pivots[0][1]) is Fraction


def _mirror_reference(spec):
    """The letter map c -> 2N-1-c, checked by the definition of the ideal:
    each generator's image is a member, decided in a space built directly
    for its content.  None when some image is not."""
    top = 2 * spec.N - 1
    mirror = tuple(letter_from_code(top - c) for c in range(top + 1))
    for gen in free_algebra.generator_polys(spec):
        image = {tuple(mirror[x] for x in word): c for word, c in gen.terms.items()}
        (content,) = {tuple(sorted(word)) for word in image}
        if free_algebra._ContentSpace(spec, content).normal_form(image):
            return None
    return mirror


def _every_family(N):
    return [kron_ideal(N), kronknuth_ideal(N), jshuffle_ideal(N), plac_ideal(natural_order(N)), plac_ideal(big_bar_order(N))]


def test_mirror_holds_for_every_family():
    for N in range(1, 5):
        for spec in _every_family(N):
            mirror = free_algebra._mirror(spec)
            assert mirror is not None, spec.name()
            assert [x.code for x in mirror] == list(range(2 * N - 1, -1, -1))
            # i -> (N+1-i)' and i' -> N+1-i: an involution reversing the natural order
            assert all(mirror[x].value == N + 1 - x.value and mirror[x].barred != x.barred for x in mirror)
            assert all(mirror[mirror[c]] == c for c in range(2 * N))
            if N <= 3:
                assert mirror == _mirror_reference(spec), spec.name()


def _moves_by_window(table):
    """The move table as a dict from window to (partners, longer), checking
    that a row is None exactly where no window starts with its two letters."""
    found = {}
    for a, row in enumerate(table):
        for b, entry in enumerate(row):
            if entry is None:
                continue
            at, after = entry
            windows = [((a, b), at)] + [((a, b, c), moves) for c, moves in enumerate(after or ())]
            assert any(moves is not None for _, moves in windows)
            for window, moves in windows:
                if moves is not None:
                    found[tuple(map(letter_from_code, window))] = tuple(map(list, moves))
    return found


def test_window_moves_are_the_first_words_of_generators():
    for N in range(1, 4):
        for spec in _every_family(N):
            expected = {}
            for window, gens in generator_windows(spec).items():
                mine = [gen for gen in gens if gen[0][0] == window]
                if mine:
                    expected[window] = ([gen[1][0] for gen in mine if len(gen) == 2], [gen for gen in mine if len(gen) != 2])
            table = free_algebra._window_moves(spec, 2 * N)
            assert _moves_by_window(table) == expected, spec.name()
            assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
            # a table wide enough for two outside letters has the same windows
            wider = free_algebra._window_moves(spec, 2 * N + 2)
            assert len(wider) == 2 * N + 2 and _moves_by_window(wider) == expected


def test_mirrored_spaces_match_direct_builds():
    # a view answers in its representative's numbering; what callers read,
    # the zero test and the form-id partition of one content, must match a
    # direct build of the content itself
    views = words = 0
    for spec, N in ((kron_ideal(2), 2), (kron_ideal(3), 3), (kronknuth_ideal(3), 3)):
        mirror = free_algebra._mirror(spec)
        for n in range(2, 6):
            for codes in combinations_with_replacement(range(2 * N), n):
                space = content_space(spec, codes)
                image = tuple(sorted(mirror[c] for c in codes))
                if image >= codes:
                    assert type(space) is free_algebra._ContentSpace and space.words[0] == codes
                    continue
                assert type(space) is free_algebra._MirroredSpace
                assert space._space is content_space(spec, image)
                direct = free_algebra._ContentSpace(spec, codes)
                by_view, by_direct = {}, {}
                first = direct.words[0]
                for word in direct.words:
                    by_view.setdefault(space.form_id(word), set()).add(word)
                    by_direct.setdefault(direct.form_id(word), set()).add(word)
                    assert (not space.normal_form({word: 1})) == (not direct.normal_form({word: 1}))
                    if word != first:
                        difference = {word: 1, first: -1}
                        assert (not space.normal_form(difference)) == (not direct.normal_form(difference))
                    words += 1
                assert sorted(map(sorted, by_view.values())) == sorted(map(sorted, by_direct.values()))
                views += 1
    assert (views, words) == (504, 9888)


def test_letters_outside_the_alphabet_only_pad():
    # no generator of kron_ideal(2) has a letter 3 or 3', so those letters
    # only pad instances; such contents are built, never mirrored
    kron = kron_ideal(2)
    checked = 0
    for n in range(1, 5):
        for codes in combinations_with_replacement(range(6), n):
            if codes[-1] < 4:
                continue
            space = content_space(kron, codes)
            assert type(space) is free_algebra._ContentSpace
            words, class_of, rows = _content_space_reference(kron, codes)
            assert space.words == words and space.class_of == class_of
            assert set(space._pivots) == _pivot_columns(rows)
            checked += 1
    assert checked == 209 - 69
    assert not ideal_contains(kron, P("3 3 1") - P("3 1 3"))
    assert ideal_contains(kron, P("2 2 1 3") - P("2 1 2 3"))


def _clear_ideal_caches():
    for cache in (generator_windows, free_algebra._window_moves, free_algebra._mirror,
                  free_algebra._content_space):
        cache.cache_clear()


def test_an_asymmetric_ideal_builds_every_content(monkeypatch):
    # drop one generator whose mirror image stays: the ideal is no longer
    # mapped onto itself, so no content may be read through its image
    kron = kron_ideal(2)
    u, v = w("2 2 1'"), w("2 1' 2")
    polys = free_algebra.generator_polys
    kept = [g for g in polys(kron) if g != P("2 2 1'") - P("2 1' 2")]
    assert len(kept) == len(polys(kron)) - 1
    assert P("1' 1' 2") - P("1' 2 1'") in kept  # its mirror image
    _clear_ideal_caches()
    try:
        monkeypatch.setattr(free_algebra, "generator_polys", lambda spec: kept if spec == kron else polys(spec))
        assert free_algebra._mirror(kron) is None
        for n in range(1, 5):
            for codes in combinations_with_replacement(range(4), n):
                assert type(content_space(kron, codes)) is free_algebra._ContentSpace
        assert not ideal_contains(kron, NCPoly({u: 1, v: -1}))
    finally:
        monkeypatch.undo()
        _clear_ideal_caches()
    # with the whole ideal, the content of u is a view, and u - v a member
    assert type(content_space(kron, tuple(sorted(u)))) is free_algebra._MirroredSpace
    assert ideal_contains(kron, NCPoly({u: 1, v: -1}))


def test_column_swap_and_vanishing_memberships():
    # equal adjacent flags let adjacent column depths swap with a sign
    kron = kron_ideal(2)
    flags = (barred(1), barred(1))
    for alpha in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        swapped = (alpha[1] - 1, alpha[0] + 1)
        f = J_flagged(alpha, flags, 2) + J_flagged(swapped, flags, 2)
        assert not f or ideal_contains(kron, f)
    # and the cut one shorter than its neighbor kills the function
    for flags in [(barred(1), barred(1)), (unbarred(2), unbarred(2)), (barred(2), barred(2))]:
        f = J_flagged((1, 2), flags, 2)
        assert not f or ideal_contains(kron, f)


def test_generator_table_is_read_only():
    kron = kron_ideal(2)
    table = generator_windows(kron)
    assert ((w("2 2 1"), 1), (w("2 1 2"), -1)) in table[w("2 2 1")]
    with pytest.raises(TypeError):
        table[w("2 2 1")] = ()
    with pytest.raises(AttributeError):
        table.clear()
    # a cold content space reads the shared table; a padded generator is a member
    free_algebra._content_space.cache_clear()
    assert ideal_contains(kron, P("2 2 1 1") - P("2 1 2 1"))


def test_reading_word_congruence_reports_a_failure(monkeypatch):
    from suprschur import verify

    order_facts = verify._order_facts
    added = []  # (the first reading word, its reversal read after it)

    def with_an_extra_order(preds):
        # one more order, which no edge reaches, and a box paired with itself,
        # whose letters no swap window holds: every filling of two or more
        # boxes reads its words; the extra reader reads the first word reversed
        count, pairs, edges, readers = order_facts(preds)
        if len(preds) < 2:
            return count, pairs, edges, readers

        def first_reversed(letters):
            word = min(read(letters) for read in readers)
            if len(set(word)) > 1:
                added.append((word, word[::-1]))
            return word[::-1]

        return count + 1, pairs + ((0, 0),), edges + ((),), readers + (first_reversed,)

    monkeypatch.setattr(verify, "_order_facts", with_an_extra_order)
    report = verify.verify_reading_word_congruence(3, 2)
    assert report["ok"] is False
    word, stranger = added[-1]
    assert report["word"] == word_str(stranger)
    dense_member = _dense_membership(kron_ideal(2), len(word))
    assert not dense_member(NCPoly.from_word(word) - NCPoly.from_word(stranger))
    assert all(dense_member(NCPoly.from_word(a) - NCPoly.from_word(b)) for a, b in added[:-1])


def test_reading_word_congruence_counts_contents_whatever_the_cache():
    from suprschur import verify

    free_algebra._content_space.cache_clear()
    cold = verify.verify_reading_word_congruence(5, 2)
    # a cold run builds one space per content it consults
    assert cold["ok"] and cold["contents"] == free_algebra._content_space.cache_info().currsize > 0
    warm = verify.verify_reading_word_congruence(5, 2)
    assert warm == cold


def test_reading_word_congruence_settles_the_same_way_whatever_the_cache():
    from suprschur import tableaux, verify

    _clear_ideal_caches()
    tableaux._order_facts.cache_clear()
    tableaux._box_layout.cache_clear()
    cold = verify.verify_reading_word_congruence(6, 3)
    warm = verify.verify_reading_word_congruence(6, 3)
    assert warm == cold and cold["ok"]
    settled = [cold[k] for k in ("settled_by_pairs", "settled_by_moves", "settled_by_forms")]
    assert settled == [18_684, 4_660, 296]
    assert cold["linked"] == 18_684 + 4_660
    # the rest have one reading word each
    assert cold["tableaux"] - sum(settled) == 20_290


def test_reading_word_congruence_at_seven_boxes():
    # one size past the benchmark's: the report is pinned as it was when
    # each shape was walked on its own
    from suprschur import verify

    assert verify.verify_reading_word_congruence(7, 3) == {
        "target": "reading-congruence",
        "max_boxes": 7,
        "N": 3,
        "tableaux": 149_568,
        "words": 431_754,
        "linked": 73_390 + 19_984,
        "settled_by_pairs": 73_390,
        "settled_by_moves": 19_984,
        "settled_by_forms": 1_968,
        "decided": 6_325,
        "contents": 160,
        "ok": True,
    }


def test_reading_word_congruence_refuses_a_negative_size():
    from suprschur import verify

    with pytest.raises(InvalidParameterError):
        verify.verify_reading_word_congruence(-1, 3)
    assert verify.verify_reading_word_congruence(0, 3)["tableaux"] == 0


def test_reading_word_congruence_refuses_a_tableau_over_the_budget(monkeypatch):
    from suprschur import verify

    # at 4 boxes and N=2, 10 tableaux have 3 reading words and none has more;
    # generator swaps link them all, so no content space is ever consulted
    monkeypatch.setenv("SUPRSCHUR_BUDGET", "2")
    with pytest.raises(ResourceLimitError) as info:
        verify.verify_reading_word_congruence(4, 2)
    assert info.value.required == 3
    monkeypatch.setenv("SUPRSCHUR_BUDGET", "3")
    report = verify.verify_reading_word_congruence(4, 2)
    assert report["ok"] and report["contents"] == 0


def test_reading_word_congruence_checks_the_budget_before_the_pair_test(monkeypatch):
    from suprschur import verify

    # every letter pair swaps, so the pair test settles every filling of more
    # than one word, and none builds its words
    monkeypatch.setattr(verify, "swap_pairs", lambda spec: frozenset(all_words(2, 2)))
    monkeypatch.setenv("SUPRSCHUR_BUDGET", "2")
    with pytest.raises(ResourceLimitError) as info:
        verify.verify_reading_word_congruence(4, 2)
    assert info.value.required == 3
    monkeypatch.setenv("SUPRSCHUR_BUDGET", "3")
    report = verify.verify_reading_word_congruence(4, 2)
    assert report["ok"] and report["linked"] == 92 and report["contents"] == 0


def _reading_word_congruence_reference(max_boxes, N):
    """The congruence driver before it linked words by generator moves: every
    tableau with more than one reading word consults its content space."""
    from suprschur import verify
    from suprschur.tableaux import restricted_shapes_in_box

    order = natural_order(N)
    top = barred(N)
    ideal = kron_ideal(N)
    tableaux_checked = 0
    words_checked = 0
    consulted = set()
    for shape in restricted_shapes_in_box(max_boxes, max_boxes, max_boxes=max_boxes):
        for tab in verify.enumerate_fillings(shape, order, top):
            tableaux_checked += 1
            words = verify.arrow_respecting_words(tab)
            words_checked += len(words)
            if len(words) == 1:
                continue
            space = content_space(ideal, tuple(sorted(words[0])))
            consulted.add(space)
            base = space.form_id(words[0])
            for w in words[1:]:
                if space.form_id(w) != base:
                    return {"target": "reading-congruence", "ok": False, "tableau": tab.to_text(), "word": word_str(w)}
    return {
        "target": "reading-congruence",
        "max_boxes": max_boxes,
        "N": N,
        "tableaux": tableaux_checked,
        "words": words_checked,
        "contents": len(consulted),
        "ok": True,
    }


def _reading_word_congruence_per_tableau(max_boxes, N):
    """The congruence driver that built a tableau per filling: it links each
    tableau's words by generator moves, then consults its content space."""
    from suprschur.tableaux import arrow_respecting_words, enumerate_fillings, restricted_shapes_in_box

    order = natural_order(N)
    top = barred(N)
    ideal = kron_ideal(N)
    tableaux_checked = 0
    words_checked = 0
    linked = 0
    by_forms = 0
    consulted = set()
    for shape in restricted_shapes_in_box(max_boxes, max_boxes, max_boxes=max_boxes):
        for tab in enumerate_fillings(shape, order, top):
            tableaux_checked += 1
            words = arrow_respecting_words(tab)
            words_checked += len(words)
            if len(words) == 1:
                continue
            if linked_by_moves(ideal, words):
                linked += 1
                continue
            by_forms += 1
            space = content_space(ideal, tuple(sorted(words[0])))
            consulted.add(space)
            base = space.form_id(words[0])
            for w in words[1:]:
                if space.form_id(w) != base:
                    return {"target": "reading-congruence", "ok": False, "tableau": tab.to_text(), "word": word_str(w)}
    return {
        "target": "reading-congruence",
        "max_boxes": max_boxes,
        "N": N,
        "tableaux": tableaux_checked,
        "words": words_checked,
        "linked": linked,
        "settled_by_forms": by_forms,
        "contents": len(consulted),
        "ok": True,
    }


def _reading_word_congruence_per_filling(max_boxes, N, forms=None):
    """The congruence driver that ran the pair test and ``_orders_linked``
    on every filling of more than one order.  ``decided`` counts the
    distinct (masks, letters at the indices those tests read), the keys the
    driver decides once each.  ``forms``, if given, gets the sorted words of
    each filling that goes to its content space, in the walk's order."""
    from suprschur import verify

    order = natural_order(N)
    ideal = kron_ideal(N)
    swaps = verify.swap_pairs(ideal)
    swaps_after, swaps_before = verify._triple_swaps(ideal)
    budget = verify.monomial_budget()
    tableaux_checked = 0
    words_checked = 0
    by_pairs = by_moves = by_forms = 0
    keys = set()
    consulted = set()
    for layout, groups in verify._FillingWalk(order, barred(N)).by_arrows(max_boxes):
        for arrows, group in groups.items():
            preds = verify._arrow_preds(arrows, layout)
            count, pairs, edges, readers = verify._order_facts(preds)
            tableaux_checked += len(group)
            words_checked += count * len(group)
            if count == 1:
                continue
            verify.check_budget(count, "the reading-word set of a tableau", budget)
            boxes = sorted({i for pair in pairs for i in pair} | {k for out in edges for e in out for k in e[1:]} - {None})
            for letters in group:
                keys.add((preds, tuple(letters[i] for i in boxes)))
                if all((letters[i], letters[j]) in swaps for i, j in pairs):
                    by_pairs += 1
                    continue
                if verify._orders_linked(letters, edges, swaps, swaps_after, swaps_before):
                    by_moves += 1
                    continue
                by_forms += 1
                words = sorted(read(letters) for read in readers)
                if forms is not None:
                    forms.append(words)
                space = verify.content_space(ideal, tuple(sorted(words[0])))
                consulted.add(space)
                base = space.form_id(words[0])
                for w in words[1:]:
                    if space.form_id(w) != base:
                        tab = ColoredTableau(dict(zip(layout[0], letters)), order)
                        return {"target": "reading-congruence", "ok": False, "tableau": tab.to_text(), "word": word_str(w)}
    return {
        "target": "reading-congruence",
        "max_boxes": max_boxes,
        "N": N,
        "tableaux": tableaux_checked,
        "words": words_checked,
        "linked": by_pairs + by_moves,
        "settled_by_pairs": by_pairs,
        "settled_by_moves": by_moves,
        "settled_by_forms": by_forms,
        "decided": len(keys),
        "contents": len(consulted),
        "ok": True,
    }


CONGRUENCE_SIZES = [(6, 2), (5, 3)]  # (max_boxes, N)


@pytest.mark.parametrize("max_boxes, N", CONGRUENCE_SIZES + [(6, 3)])
def test_reading_word_congruence_matches_per_tableau_driver(max_boxes, N):
    from suprschur import verify

    report = verify.verify_reading_word_congruence(max_boxes, N)
    # the reference links by moves alone; the driver's first two tests split that
    by_pairs, by_moves = report.pop("settled_by_pairs"), report.pop("settled_by_moves")
    assert 0 < report.pop("decided") <= by_pairs + by_moves + report["settled_by_forms"]
    assert report == _reading_word_congruence_per_tableau(max_boxes, N)
    assert by_pairs > 0 and by_moves > 0 and by_pairs + by_moves == report["linked"]
    assert report["ok"] and report["contents"] > 0


@pytest.mark.parametrize("max_boxes, N", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3)])
def test_reading_word_congruence_matches_per_filling_driver(max_boxes, N):
    from suprschur import verify

    report = verify.verify_reading_word_congruence(max_boxes, N)
    assert report == _reading_word_congruence_per_filling(max_boxes, N)
    assert report["ok"] and report["decided"] < report["tableaux"]
    if (max_boxes, N) == (6, 3):
        assert report["decided"] == 2_391


def test_reading_word_congruence_reports_the_first_failure_in_walk_order(monkeypatch):
    # the words of two fillings that go to forms get forms of their own; the
    # driver and the per-filling reference must stop at the same, first one
    from suprschur import verify

    forms = []
    assert _reading_word_congruence_per_filling(5, 3, forms)["ok"]
    strangers = set(forms[3][1:]) | set(forms[-1][1:])

    class Stranger:
        def __init__(self, space):
            self.space = space

        def form_id(self, word):
            return word if word in strangers else self.space.form_id(word)

    content_space_of = verify.content_space
    monkeypatch.setattr(verify, "content_space", lambda spec, content: Stranger(content_space_of(spec, content)))
    report = verify.verify_reading_word_congruence(5, 3)
    assert report["ok"] is False and parse_word(report["word"]) in forms[3][1:]
    assert report == _reading_word_congruence_per_filling(5, 3)


@pytest.mark.parametrize("max_boxes, N", CONGRUENCE_SIZES)
def test_moves_link_only_congruent_words(max_boxes, N):
    from suprschur.tableaux import arrow_respecting_words, enumerate_fillings, restricted_shapes_in_box

    ideal = kron_ideal(N)
    linked = 0
    for shape in restricted_shapes_in_box(max_boxes, max_boxes, max_boxes=max_boxes):
        for tab in enumerate_fillings(shape, natural_order(N), barred(N)):
            words = arrow_respecting_words(tab)
            if len(words) > 1 and linked_by_moves(ideal, words):
                linked += 1
                space = content_space(ideal, tuple(sorted(words[0])))
                assert len({space.form_id(word) for word in words}) == 1, tab.to_text()
    assert linked > 0


@pytest.mark.parametrize("max_boxes, N", CONGRUENCE_SIZES)
def test_reading_word_congruence_matches_reference(max_boxes, N):
    from suprschur import verify

    report = verify.verify_reading_word_congruence(max_boxes, N)
    reference = _reading_word_congruence_reference(max_boxes, N)
    assert report["ok"] and [report[k] for k in ("ok", "tableaux", "words")] == [
        reference[k] for k in ("ok", "tableaux", "words")
    ]
    assert 0 < report["contents"] < reference["contents"] and report["linked"] > 0


def test_reading_word_congruence_refuses_a_non_generator_swap(monkeypatch):
    # "1 2" and "2 1" differ by one adjacent swap that no generator makes, so
    # a check that accepted every adjacent swap would pass the stranger
    from suprschur import verify

    order_facts = verify._order_facts
    word, stranger = w("1 2"), w("2 1")
    row = (0, 0b01)  # the masks of two boxes in a row: the east one is read after the west one
    seen = []

    def with_an_extra_order(preds):
        # the row gets a second order, east box first, so its boxes are
        # incomparable and one swap joins the two orders; its reader reads
        # "2 1" off the first "1 2" and otherwise the one real word again
        count, pairs, edges, readers = order_facts(preds)
        if preds != row:
            return count, pairs, edges, readers

        def east_first(letters):
            if readers[0](letters) == word and not seen:
                seen.append(ColoredTableau(dict(zip([(1, 1), (1, 2)], letters)), natural_order(2)).to_text())
                return stranger
            return readers[0](letters)

        swap = (((1, 0, 1, None, None),), ((0, 1, 0, None, None),))
        return 2, ((0, 1),), swap, readers + (east_first,)

    monkeypatch.setattr(verify, "_order_facts", with_an_extra_order)
    report = verify.verify_reading_word_congruence(3, 2)
    assert report == {"target": "reading-congruence", "ok": False, "tableau": seen[0], "word": "2 1"}
    assert not _dense_membership(kron_ideal(2), 2)(NCPoly.from_word(word) - NCPoly.from_word(stranger))


def _walked_fillings(max_boxes, N):
    """Every restricted filling with at most max_boxes boxes and letters at
    most N', as (letters in box order, the walk's arrows, the box set's
    layout)."""
    from suprschur.tableaux import _FillingWalk

    walk = _FillingWalk(natural_order(N), barred(N))
    for layout, groups in walk.by_arrows(max_boxes):
        for arrows, group in groups.items():
            for letters in group:
                yield letters, arrows, layout


@pytest.mark.parametrize("max_boxes, N", CONGRUENCE_SIZES + [(6, 3), (5, 4)])
def test_orders_read_distinct_words_and_pairs_settle_only_linked_fillings(max_boxes, N):
    from suprschur.tableaux import _filling_preds, _linear_extensions, _order_facts

    ideal = kron_ideal(N)
    swaps = free_algebra.swap_pairs(ideal)
    settled = 0
    pairs_checked = set()
    for letters, _, layout in _walked_fillings(max_boxes, N):
        preds = _filling_preds(letters, layout)
        orders = _linear_extensions(preds)
        count, pairs, edges, readers = _order_facts(preds)
        read = [tuple(letters[i] for i in seq) for seq in orders]
        assert [reader(letters) for reader in readers] == read
        words = set(read)
        assert len(words) == len(orders) == count == len(edges)
        if preds not in pairs_checked:
            # a pair is incomparable exactly when some order reads each box first
            pairs_checked.add(preds)
            position = [{i: k for k, i in enumerate(seq)} for seq in orders]
            both_ways = {
                (i, j)
                for i, j in combinations(range(len(preds)), 2)
                if len({at[i] < at[j] for at in position}) == 2
            }
            assert set(pairs) == both_ways and len(pairs) == len(both_ways)
            # an order's edges are its adjacent swaps that give another order
            index = {seq: k for k, seq in enumerate(orders)}
            n = len(preds)
            for seq, out in zip(orders, edges):
                expected = set()
                for p in range(n - 1):
                    swapped = seq[:p] + (seq[p + 1], seq[p]) + seq[p + 2 :]
                    if swapped in index:
                        around = (seq[p - 1] if p else None, seq[p + 2] if p + 2 < n else None)
                        expected.add((index[swapped], seq[p], seq[p + 1]) + around)
                assert set(out) == expected and len(out) == len(expected)
        if count > 1 and all((letters[i], letters[j]) in swaps for i, j in pairs):
            settled += 1
            assert linked_by_moves(ideal, sorted(words)), letters
    assert settled > 0
    if (max_boxes, N) == (6, 3):
        assert settled == 18684


@pytest.mark.parametrize("max_boxes, N", CONGRUENCE_SIZES + [(6, 3)])
def test_order_graph_links_as_the_moves_do(max_boxes, N):
    # on every filling, the walk's arrows give back the filling's masks, and
    # the walk over the order graph links exactly the fillings whose sorted
    # words the reference joins by moves
    from suprschur import verify
    from suprschur.tableaux import _arrow_preds, _filling_preds, _order_facts

    ideal = kron_ideal(N)
    swaps = free_algebra.swap_pairs(ideal)
    swaps_after, swaps_before = verify._triple_swaps(ideal)
    linked = unlinked = 0
    for letters, arrows, layout in _walked_fillings(max_boxes, N):
        preds = _filling_preds(letters, layout)
        assert _arrow_preds(arrows, layout) == preds, letters
        count, _, edges, readers = _order_facts(preds)
        if count == 1:
            continue
        words = sorted(read(letters) for read in readers)
        by_graph = verify._orders_linked(letters, edges, swaps, swaps_after, swaps_before)
        assert by_graph == linked_by_moves(ideal, words), letters
        linked += by_graph
        unlinked += not by_graph
    assert linked > 0 and unlinked > 0
    if (max_boxes, N) == (6, 3):
        assert (linked, unlinked) == (23_344, 296)


def test_order_facts_edge_cases():
    from suprschur.tableaux import _order_facts

    # fewer than two boxes: one order, whose reader keeps the word a tuple
    for preds, letters in (((), []), ((0,), [unbarred(2)])):
        count, pairs, edges, readers = _order_facts(preds)
        assert (count, pairs, edges) == (1, (), ((),)) and len(readers) == 1
        assert readers[0](letters) == tuple(letters)
    # a chain through a middle index: 0 before 1 before 2, so 0 before 2
    assert _order_facts((0, 0b001, 0b010))[:2] == (1, ())
    # an antichain of three, and a two-element chain beside a free index
    assert _order_facts((0, 0, 0))[:2] == (6, ((0, 1), (0, 2), (1, 2)))
    assert _order_facts((0, 0b001, 0))[:2] == (3, ((0, 2), (1, 2)))
    # its orders 0 1 2, 0 2 1 and 2 0 1 form a path
    assert _order_facts((0, 0b001, 0))[2] == (
        ((1, 1, 2, 0, None),),
        ((2, 0, 2, None, 1), (0, 2, 1, 0, None)),
        ((1, 2, 0, None, 1),),
    )


def linked_by_moves(spec, words):
    """The reference for the order graph: whether every word of the list is
    reached from the first by swaps of two adjacent letters that are padded
    two-term generators, passing only through words of the list.

    If ``x`` is ``w`` with a window ``u`` replaced by ``v`` and ``u - v`` is
    a generator, then ``w - x = left·(u - v)·right`` lies in the ideal; so
    ``True`` means all the words are congruent.  ``False`` decides nothing.
    """
    unreached = set(words)
    unreached.discard(words[0])
    if not unreached:
        return True
    moves = swap_moves(spec)
    frontier = [words[0]]
    while frontier:
        w = frontier.pop()
        n = len(w)
        for p in range(n - 1):
            a, b = w[p], w[p + 1]
            if a == b:
                continue
            x = w[:p] + (b, a) + w[p + 2 :]
            # the swapped pair alone, or in a triple with one letter on either side
            if x in unreached and (
                ((a, b), 0) in moves
                or (p + 3 <= n and (w[p : p + 3], 0) in moves)
                or (p and (w[p - 1 : p + 2], 1) in moves)
            ):
                unreached.remove(x)
                if not unreached:
                    return True
                frontier.append(x)
    return False


def test_swap_pairs_are_the_two_letter_swap_generators():
    for N in (1, 2, 3, 4):
        spec = kron_ideal(N)
        expected = set()
        for u, v in binary_pairs(spec):
            if len(u) == 2 and v == u[::-1]:
                expected |= {u, v}
        assert free_algebra.swap_pairs(spec) == expected
    assert w("1 2") not in free_algebra.swap_pairs(kron_ideal(2))
    assert w("1 2'") in free_algebra.swap_pairs(kron_ideal(2))


def test_swap_moves_are_the_two_term_generators(monkeypatch):
    for N in (1, 2, 3, 4):
        spec = kron_ideal(N)
        expected = set()
        for u, v in binary_pairs(spec):
            (k,) = [k for k in range(len(u) - 1) if u[:k] + (u[k + 1], u[k]) + u[k + 2 :] == v]
            expected |= {(u, k), (v, k)}
        assert swap_moves(spec) == expected
        assert len(expected) == 2 * len(binary_pairs(spec))
    # a two-term generator that is not an adjacent swap is left out
    not_swaps = [(w("1 2 2'"), w("2' 2 1")), (w("1 2"), w("2 2'"))]
    monkeypatch.setattr(free_algebra, "binary_pairs", lambda spec: not_swaps)
    assert swap_moves.__wrapped__(kron_ideal(2)) == frozenset()


@pytest.mark.parametrize("N", [2, 3])
def test_moves_are_the_padded_two_term_generators(N):
    # two words one adjacent swap apart are linked exactly when a padded
    # two-term generator has them as its two words
    spec = kron_ideal(N)
    table = generator_windows(spec)
    linked = 0
    for n in (2, 3, 4):
        for word in all_words(N, n):
            padded = {
                left + u + right
                for left, gen, right in free_algebra._padded_generators(table, word)
                if len(gen) == 2
                for u, _ in gen
            }
            for p in range(n - 1):
                other = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
                if other != word:
                    assert linked_by_moves(spec, [word, other]) == (other in padded)
                    linked += other in padded
    assert linked > 0
    assert linked_by_moves(spec, [w("2 1")])  # one word is linked to itself


def test_small_reading_word_expansions():
    # tiny instances of the two expansion theorems; the full scale runs in
    # the acceptance suite
    from suprschur.verify import verify_jnu, verify_jplac

    assert verify_jnu(kron_ideal(2), 2, 3)["ok"]
    assert verify_jplac(big_bar_order(2), 3)["ok"]
    assert verify_jnu(kronknuth_ideal(2), 2, 3)["ok"]


def _reading_expansion_per_tableau(target, ideal, order, read, max_size):
    """The reading-expansion driver that built a tableau per filling and read
    it with a per-tableau rule."""
    from collections import Counter

    from suprschur.tableaux import enumerate_tableaux

    results = []
    for nu in [p for n in range(1, max_size + 1) for p in partitions_of(n)]:
        tabs = enumerate_tableaux(nu, order, order.max_letter())
        member = ideal_contains(ideal, J_nu(nu, order.N, order) - NCPoly(Counter(read(tab) for tab in tabs)))
        results.append({"nu": list(nu), "tableaux": len(tabs), "member": member})
    return {
        "target": target,
        "ideal": ideal.name(),
        "N": order.N,
        "results": results,
        "tableaux": sum(r["tableaux"] for r in results),
        "ok": all(r["member"] for r in results),
    }


def _insertion_fixed_point_per_tableau(N, max_len):
    """The fixed-point driver that built its image from a tableau per filling."""
    from suprschur.tableaux import enumerate_tableaux, insert, sqread

    order = natural_order(N)
    checked = 0
    for t in range(1, max_len + 1):
        image = {sqread_per_tableau(tab) for nu in partitions_of(t) for tab in enumerate_tableaux(nu, order, barred(N))}
        for word in all_words(N, t):
            checked += 1
            if (sqread(insert(word, order)) == word) != (word in image):
                return {"target": "fixed-point", "ok": False, "word": word_str(word)}
    return {"target": "fixed-point", "N": N, "max_len": max_len, "checked": checked, "ok": True}


@pytest.mark.parametrize("N, max_size", [(2, 6), (3, 6), (4, 5)])
def test_jnu_report_matches_per_tableau_driver(N, max_size):
    from suprschur.verify import verify_jnu

    report = verify_jnu(kron_ideal(N), N, max_size)
    assert report == _reading_expansion_per_tableau("jnu", kron_ideal(N), natural_order(N), sqread_per_tableau, max_size)
    assert report["ok"]


@pytest.mark.parametrize("N", [2, 3])
def test_jplac_report_matches_per_tableau_driver(N):
    from suprschur.verify import verify_jplac

    for order in (natural_order(N), big_bar_order(N)):
        report = verify_jplac(order, 5)
        reference = _reading_expansion_per_tableau("jplac", plac_ideal(order), order, column_reading_per_tableau, 5)
        assert report == reference
        assert report["ok"]


@pytest.mark.parametrize("N, max_size", [(1, 5), (2, 7), (2, 8), (3, 6)])
def test_conjecture61_report_matches_per_tableau_driver(N, max_size):
    from suprschur.verify import verify_conjecture_jnu_kronknuth

    reference = _reading_expansion_per_tableau("jnu", kronknuth_ideal(N), natural_order(N), sqread_per_tableau, max_size)
    reference.update(target="conjecture61", verified_range={"N": N, "max_size": max_size})
    assert verify_conjecture_jnu_kronknuth(N, max_size) == reference


def test_insertion_fixed_point_matches_per_tableau_driver():
    from suprschur.verify import verify_insertion_fixed_point

    assert verify_insertion_fixed_point(2, 6) == _insertion_fixed_point_per_tableau(2, 6)


def test_jnu_report_counts_the_tableaux_read():
    # the benchmark's point: 18 shapes, 2,498 tableaux, read in the order of
    # the shapes given, with a result per shape
    from suprschur.verify import verify_jnu

    report = verify_jnu(kron_ideal(3), 3, 5)
    assert report["tableaux"] == sum(r["tableaux"] for r in report["results"]) == 2498
    assert [r["tableaux"] for r in report["results"][:3]] == [6, 18, 18]  # (1), (2), (1, 1)
    shapes = [tuple(r["nu"]) for r in report["results"]]
    random.Random(5).shuffle(shapes)
    again = verify_jnu(kron_ideal(3), 3, 5, nu_list=shapes)
    assert [tuple(r["nu"]) for r in again["results"]] == shapes
    assert {tuple(r["nu"]): r for r in again["results"]} == {tuple(r["nu"]): r for r in report["results"]}
    assert again["tableaux"] == 2498 and again["ok"]


def test_commutation_small():
    from suprschur.verify import verify_commutation

    for spec in [kron_ideal(2), kronknuth_ideal(2), plac_ideal(natural_order(2)), plac_ideal(big_bar_order(2))]:
        assert verify_commutation(spec, 4, "e")["ok"]
        assert verify_commutation(spec, 4, "h")["ok"]
