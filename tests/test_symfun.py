import random
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType

import pytest

import exponent_vectors as ev
from exponent_vectors import QSymMonomialVector, in_variables, schur_monomials
from golden_data import CYW32_SCHUR, CYW33_COMPONENTS
from suprschur.alphabet_words import (
    ShuffleOrder,
    all_words,
    big_bar_order,
    descent_set,
    enumerate_cyw,
    is_shuffle_closed,
    natural_order,
    parse_word,
)
from suprschur.errors import InvalidParameterError, NotSymmetricError
from suprschur.free_algebra import J_nu, NCPoly, h_k_order
from suprschur.symfun import (
    F_of_poly,
    F_of_set,
    QSymVector,
    composition,
    cut_set,
    is_symmetric,
    kostka,
    schur_expand,
    schur_expand_by_tableaux,
    symfunc_serialize,
    word_convert,
    word_convert_step,
)
from suprschur.tableaux import partitions_of

w = parse_word


@lru_cache(maxsize=None)
def _fundamental_terms(descents, degree, nvars):
    """The monomials of a fundamental quasisymmetric function with their
    coefficients, read-only, so the cache can hand it to every caller."""
    if any(not 1 <= pos <= degree - 1 for pos in descents):
        raise InvalidParameterError("descents must lie between 1 and degree-1")
    coeffs = {}
    indices = [0] * degree

    def rec(pos):
        if pos == degree:
            exps = [0] * nvars
            for i in indices:
                exps[i] += 1
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, 0) + 1
            return
        lo = 0 if pos == 0 else indices[pos - 1] + (1 if pos in descents else 0)
        for i in range(lo, nvars):
            indices[pos] = i
            rec(pos + 1)

    rec(0)
    return MappingProxyType(coeffs)


def fundamental_qsym(descents, degree, nvars):
    """Gessel's fundamental quasisymmetric function for a descent set: the
    sum of x_{i_1}...x_{i_t} over weakly increasing index sequences that
    step strictly at every descent position.  Each call returns a fresh
    vector.  The reference side of ``F_of_set``, which fills F per descent
    set instead."""
    return QSymMonomialVector(degree, nvars, dict(_fundamental_terms(descents, degree, nvars)))


def test_fundamental_qsym_examples():
    q = fundamental_qsym(frozenset(), 2, 2)
    assert q.coeffs == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    q = fundamental_qsym(frozenset({1}), 2, 2)
    assert q.coeffs == {(1, 1): 1}
    # strict first step in three variables: four monomials
    q = fundamental_qsym(frozenset({1}), 3, 3)
    assert q.coeffs == {(1, 2, 0): 1, (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 1}
    with pytest.raises(InvalidParameterError):
        fundamental_qsym(frozenset({5}), 3, 3)


def test_F_examples():
    nat = natural_order(2)
    single = in_variables(F_of_set([w("1")], nat), 3)
    assert single.coeffs == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert single == ev.F_of_set([w("1")], nat, nvars=3)
    assert F_of_set([w("1")], nat).coeffs == {0: 1}
    with pytest.raises(InvalidParameterError):
        F_of_set([w("1"), w("1 1")], nat)


def test_schur_expand_golden():
    nat = natural_order(2)
    words = enumerate_cyw((3, 2), 2)
    vec = F_of_set(words, nat)
    assert is_symmetric(vec)
    assert schur_expand(vec) == CYW32_SCHUR
    assert schur_expand_by_tableaux(words, nat) == CYW32_SCHUR
    assert symfunc_serialize(CYW32_SCHUR)["3,1,1"] == 3


def test_schur_expand_trivial_and_errors():
    assert ev.schur_expand(fundamental_qsym(frozenset(), 2, 2)) == {(2,): 1}
    skew = QSymMonomialVector(2, 2, {(2, 0): 1})
    assert not ev.is_symmetric(skew)
    with pytest.raises(NotSymmetricError):
        ev.schur_expand(skew)
    with pytest.raises(InvalidParameterError):
        ev.schur_expand(QSymMonomialVector(3, 2, {(2, 1): 1, (1, 2): 1}))
    # the composition route: F of the empty descent set is h_2 = s_2
    assert schur_expand(F_of_set([w("1 1")], natural_order(1))) == {(2,): 1}
    skew = QSymVector(3, {cut_set((2, 1)): 1})
    assert not is_symmetric(skew)
    with pytest.raises(NotSymmetricError):
        schur_expand(skew)
    # degree 3 has cut positions 1 and 2 only
    with pytest.raises(InvalidParameterError):
        QSymVector(3, {4: 1})
    with pytest.raises(InvalidParameterError):
        QSymVector(0, {1: 1})


def test_compositions_and_cut_sets():
    assert composition(0, 0) == () and cut_set(()) == 0
    assert composition(0, 4) == (4,) and cut_set((4,)) == 0
    # cuts at positions 1 and 4: the parts 1, 3, 2
    assert cut_set((1, 3, 2)) == 0b1001 and composition(0b1001, 6) == (1, 3, 2)
    assert composition(0b11111, 6) == (1,) * 6
    for degree in range(1, 8):
        seen = set()
        for cuts in range(1 << (degree - 1)):
            parts = composition(cuts, degree)
            assert sum(parts) == degree and all(parts) and cut_set(parts) == cuts
            seen.add(parts)
        assert len(seen) == 1 << (degree - 1)


def _rearrangements(exps, nvars):
    """Every distinct placement of the nonzero parts into nvars slots."""
    parts = [e for e in exps if e]
    slots = [0] * nvars

    def rec(remaining):
        if not remaining:
            yield tuple(slots)
            return
        seen = set()
        for i, e in enumerate(remaining):
            if e in seen:
                continue
            seen.add(e)
            for pos in range(nvars):
                if slots[pos] == 0:
                    slots[pos] = e
                    yield from rec(remaining[:i] + remaining[i + 1:])
                    slots[pos] = 0

    yield from rec(parts)


def _is_symmetric_by_orbits(vec):
    """Reference check: enumerate each orbit and look up every member."""
    canonical = {}
    for exps, c in vec.coeffs.items():
        if canonical.setdefault(tuple(sorted(exps, reverse=True)), c) != c:
            return False
    return all(
        vec.coeffs.get(exps, 0) == c
        for key, c in canonical.items()
        for exps in set(_rearrangements(key, vec.nvars))
    )


def _random_symmetric(rng, degree, nvars):
    """A random integer combination of monomial symmetric polynomials."""
    coeffs = {}
    for nu in partitions_of(degree):
        if len(nu) > nvars or rng.random() < 0.4:
            continue
        c = rng.choice([-3, -2, -1, 1, 2, 5])
        key = nu + (0,) * (nvars - len(nu))
        coeffs.update((exps, c) for exps in _rearrangements(key, nvars))
    return QSymMonomialVector(degree, nvars, coeffs)


def test_is_symmetric_matches_orbit_enumeration():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        degree = rng.randint(0, 5)
        nvars = rng.randint(max(degree, 1), degree + 2)
        vec = _random_symmetric(rng, degree, nvars)
        variants = [vec]
        if vec.coeffs:
            exps = rng.choice(sorted(vec.coeffs))
            missing = dict(vec.coeffs)
            del missing[exps]
            changed = dict(vec.coeffs)
            changed[exps] += rng.choice([-1, 1, 2])
            variants += [QSymMonomialVector(degree, nvars, missing), QSymMonomialVector(degree, nvars, changed)]
        for candidate in variants:
            expected = _is_symmetric_by_orbits(candidate)
            assert ev.is_symmetric(candidate) == expected
            verdicts[expected] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100
    # degree 0: the constant is symmetric in any number of variables
    for nvars in (1, 3):
        constant = QSymMonomialVector(0, nvars, {(0,) * nvars: 7})
        assert ev.is_symmetric(constant) and _is_symmetric_by_orbits(constant)
        assert ev.schur_expand(constant) == {(): 7}
    constant = QSymVector(0, {0: 7})
    assert is_symmetric(constant) and schur_expand(constant) == {(): 7}


def _monomial_symmetric(mu):
    """The cut sets of every rearrangement of mu: m_mu in the monomial
    quasisymmetric basis."""
    return {cut_set(alpha) for alpha in permutations(mu)}


def test_is_symmetric_on_compositions_matches_exponent_vectors():
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        degree = rng.randint(1, 6)
        coeffs = {}
        for mu in partitions_of(degree):
            if rng.random() < 0.5:
                coeffs.update(dict.fromkeys(_monomial_symmetric(mu), rng.choice([-3, -1, 1, 2, 5])))
        variants = [QSymVector(degree, coeffs)]
        if coeffs:
            cuts = rng.choice(sorted(coeffs))
            missing = dict(coeffs)
            del missing[cuts]
            changed = dict(coeffs)
            changed[cuts] += rng.choice([-1, 1, 2])
            variants += [QSymVector(degree, missing), QSymVector(degree, changed)]
        for candidate in variants:
            verdict = is_symmetric(candidate)
            for nvars in (degree, degree + 1):
                assert ev.is_symmetric(in_variables(candidate, nvars)) == verdict
            verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_schur_expand_recovers_random_combinations():
    rng = random.Random(23)
    for n in range(1, 6):
        for nvars in (n, n + 1):
            for _ in range(4):
                expected = {nu: rng.choice([-4, -2, -1, 1, 3]) for nu in partitions_of(n) if rng.random() < 0.6}
                vec = QSymMonomialVector(n, nvars)
                for nu, c in expected.items():
                    vec.add_inplace(QSymMonomialVector(n, nvars, schur_monomials(nu, nvars)), c)
                assert ev.is_symmetric(vec)
                assert ev.schur_expand(vec) == expected
                # the same combination in the monomial quasisymmetric basis
                coeffs = {}
                for nu, c in expected.items():
                    for mu in partitions_of(n):
                        for cuts in _monomial_symmetric(mu):
                            coeffs[cuts] = coeffs.get(cuts, 0) + c * kostka(nu, mu)
                on_compositions = QSymVector(n, coeffs)
                assert in_variables(on_compositions, nvars) == vec
                assert is_symmetric(on_compositions)
                assert schur_expand(on_compositions) == expected


def test_fundamental_qsym_returns_a_fresh_vector():
    q = fundamental_qsym(frozenset(), 2, 2)
    q.add_inplace(q)
    assert q.coeffs == {(2, 0): 2, (1, 1): 2, (0, 2): 2}
    assert fundamental_qsym(frozenset(), 2, 2).coeffs == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert in_variables(F_of_set([w("1 1")], natural_order(1)), 2).coeffs == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_schur_monomials_is_kostka():
    # columns of the transition matrix are Kostka numbers
    mono = schur_monomials((2, 1), 3)
    assert mono[(2, 1, 0)] == 1 and mono[(1, 1, 1)] == 2
    assert kostka((2, 1), (2, 1)) == 1 and kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (3,)) == 0 and kostka((), ()) == 1 and kostka((1,), ()) == 0
    # content need not be a partition, and zero parts add no entries
    assert kostka((2, 1), (1, 2)) == 1 and kostka((2, 1), (1, 0, 2)) == 1


def test_kostka_matches_tableau_enumeration():
    checked = 0
    for n in range(0, 9):
        shapes = partitions_of(n)
        for nu in shapes:
            monomials = schur_monomials(nu, n)
            for mu in shapes:
                assert kostka(nu, mu) == monomials.get(mu + (0,) * (n - len(mu)), 0), (nu, mu)
                checked += 1
    assert checked == sum(len(partitions_of(n)) ** 2 for n in range(9))


def test_schur_monomials_cannot_be_mutated():
    # the cache hands the same expansion to every caller, schur_expand included
    for nu, nvars in (((2, 1), 3), ((), 2), ((1, 1, 1), 2)):
        mono = schur_monomials(nu, nvars)
        with pytest.raises(TypeError):
            mono[(0,) * nvars] = 5
        with pytest.raises(TypeError):
            del mono[(0,) * nvars]
        assert not hasattr(mono, "clear")
    assert schur_monomials((2, 1), 3)[(1, 1, 1)] == 2
    assert ev.schur_expand(QSymMonomialVector(3, 3, schur_monomials((2, 1), 3))) == {(2, 1): 1}


def test_component_expansions_golden():
    nat = natural_order(2)
    for expected, pairs in CYW33_COMPONENTS:
        words = {w(word) for _, word in pairs}
        # these sets are reading-word sets of their component; expansion by
        # tableaux needs the whole component, checked in the switchboard tests
        total = schur_expand_by_tableaux(enumerate_cyw((3, 3), 2), nat)
    merged = {}
    for expected, _ in CYW33_COMPONENTS:
        for nu, c in expected.items():
            merged[nu] = merged.get(nu, 0) + c
    assert total == merged


def test_big_bar_equals_natural_on_shuffle_closed():
    for lam, d in [((3, 2), 2), ((2, 2), 1), ((4,), 2)]:
        words = enumerate_cyw(lam, d)
        assert is_shuffle_closed(words)
        assert F_of_set(words, big_bar_order(len(lam) if len(lam) > 1 else 2)) == F_of_set(
            words, natural_order(len(lam) if len(lam) > 1 else 2)
        )


def test_word_convert_examples():
    prec = big_bar_order(3)
    swapped = ShuffleOrder(w("1 2 1' 3 2' 3'"))
    assert word_convert(w("1' 1' 3 3 1' 1' 1' 3 1'"), prec, swapped) == w("1' 1' 1' 3 3 1' 1' 1' 3")
    assert word_convert(w("3 3 1' 1' 3 1' 3 2 2' 1 1' 3"), prec, swapped) == w("3 3 3 1' 1' 3 1' 2 2' 1 3 1'")
    assert word_convert(w("2 2 2'"), prec, swapped) == w("2 2 2'")


def test_word_convert_round_trips_and_preserves_descents():
    nat, bb = natural_order(2), big_bar_order(2)
    for t in range(0, 6):
        for word in all_words(2, t):
            out = word_convert(word, bb, nat)
            assert descent_set(out, nat) == descent_set(word, bb)
            assert word_convert(out, nat, bb) == word
            back = word_convert(word, nat, bb)
            assert descent_set(back, bb) == descent_set(word, nat)


def test_word_convert_step_is_involution_on_shuffle_closed_sets():
    words = set(enumerate_cyw((3, 2), 2))
    b, abar = w("2")[0], w("1'")[0]
    image = {word_convert_step(word, b, abar, forward=True) for word in words}
    assert image == words


def test_cauchy_coefficients_match():
    # both expansions of the Cauchy product, coefficient by coefficient
    nvars = 3
    for order in (natural_order(2), big_bar_order(2)):
        for degree in range(1, 5):
            lhs: dict = {}
            for word in all_words(2, degree):
                q = fundamental_qsym(descent_set(word, order), degree, nvars)
                for exps, c in q.coeffs.items():
                    lhs[(exps, word)] = lhs.get((exps, word), 0) + c
            rhs: dict = {}
            for exps in _weak_compositions(degree, nvars):
                poly = NCPoly.one()
                for part in exps:
                    poly = poly * h_k_order(part, order)
                for word, c in poly.terms.items():
                    rhs[(tuple(exps), word)] = rhs.get((tuple(exps), word), 0) + c
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs


def _weak_compositions(total, parts):
    if parts == 1:
        yield [total]
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield [first] + rest


def test_F_expansion_matches_pairing_with_J():
    # the Schur coefficients of F are inner products with the noncommutative
    # Schur functions, for vectors orthogonal to the Kronecker ideal
    for lam_d in [((2, 1), 1), ((2, 2), 2), ((3, 1), 0), ((2, 1, 1), 2)]:
        lam, d = lam_d
        N = len(lam)
        words = enumerate_cyw(lam, d)
        gamma = NCPoly({word: 1 for word in words})
        expansion = schur_expand(F_of_set(words, natural_order(N)))
        n = sum(lam)
        for nu in partitions_of(n):
            assert expansion.get(nu, 0) == J_nu(nu, N).pairing(gamma)


def test_single_plactic_class_counts():
    # for one insertion-fiber class, the quasisymmetric sum is a single
    # Schur function counted by the tableau route as well
    from suprschur.free_algebra import multiset_words
    from suprschur.tableaux import insert

    rng = random.Random(5)
    for order in (natural_order(2), big_bar_order(2)):
        for _ in range(6):
            length = rng.randint(2, 5)
            seed = tuple(rng.choice(order.letters) for _ in range(length))
            target = insert(seed, order)
            cls = [word for word in multiset_words(seed) if insert(word, order) == target]
            expansion = schur_expand(F_of_set(cls, order))
            by_tableaux = schur_expand_by_tableaux(cls, order)
            assert expansion == by_tableaux
            assert sum(expansion.values()) == 1


def test_F_of_poly_weights():
    nat = natural_order(1)
    vec = in_variables(F_of_poly({w("1"): 2, w("1'"): -2}, nat), 2)
    assert not vec.coeffs
    assert vec == ev.F_of_poly({w("1"): 2, w("1'"): -2}, nat, nvars=2)


def _F_of_poly_reference(terms, order, nvars=None):
    """The expansion word by word: every word adds its whole fundamental
    quasisymmetric function, monomial by monomial."""
    lengths = {len(word) for word in terms}
    degree = lengths.pop() if lengths else 0
    if nvars is None:
        nvars = max(degree, 1)
    coeffs = {}
    for word, c in terms.items():
        for exps, k in _fundamental_terms(descent_set(word, order), degree, nvars).items():
            coeffs[exps] = coeffs.get(exps, 0) + c * k
    return QSymMonomialVector(degree, nvars, coeffs)


def _schur_expand_reference(vec):
    """The peel over every monomial: each step sorts every exponent vector
    left to find the lead and subtracts the whole Schur polynomial."""
    if vec.nvars < vec.degree and vec.degree > 0:
        raise InvalidParameterError("need at least as many variables as the degree")
    if not ev.is_symmetric(vec):
        raise NotSymmetricError("vector is not symmetric")
    residue = dict(vec.coeffs)
    out = {}
    while residue:
        lead = max(tuple(sorted(exps, reverse=True)) for exps in residue)
        nu = tuple(part for part in lead if part)
        coeff = residue[lead]
        out[nu] = coeff
        for exps, c in schur_monomials(nu, vec.nvars).items():
            new = residue.get(exps, 0) - coeff * c
            if new:
                residue[exps] = new
            else:
                residue.pop(exps, None)
    return {nu: c for nu, c in out.items() if c}


def _assert_matches_references(terms, order, nvars=None):
    """The composition route against the exponent-vector route in nvars
    variables, and that against the word-by-word references."""
    vec = ev.F_of_poly(terms, order, nvars)
    assert vec == _F_of_poly_reference(terms, order, nvars)
    on_compositions = F_of_poly(terms, order)
    assert in_variables(on_compositions, vec.nvars) == vec
    try:
        expected = _schur_expand_reference(vec)
    except (InvalidParameterError, NotSymmetricError) as exc:
        with pytest.raises(type(exc)):
            ev.schur_expand(vec)
        if vec.nvars >= vec.degree:
            # enough variables to see every composition: both routes refuse
            with pytest.raises(NotSymmetricError):
                schur_expand(on_compositions)
        return None
    assert ev.schur_expand(vec) == expected
    assert schur_expand(on_compositions) == expected
    return expected


def test_F_and_schur_match_references_on_every_cyw_set():
    checked = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            for d in range(n + 1):
                words = enumerate_cyw(lam, d)
                for order in (natural_order(len(lam)), big_bar_order(len(lam))):
                    expected = _assert_matches_references(dict.fromkeys(words, 1), order)
                    assert expected == schur_expand_by_tableaux(words, order)
                    checked += 1
    assert checked == 2 * 164


def test_F_and_schur_match_references_on_hook_mu_polynomials():
    from suprschur.alphabet_words import unbarred
    from suprschur.kronecker import hook
    from suprschur.lascoux import compose_classes, gamma_class

    for n in (3, 4):
        for lam in partitions_of(n):
            for d in range(n):
                product = compose_classes(gamma_class(lam), gamma_class(hook(n, d)))
                weighted = {tuple(unbarred(v) for v in perm): mult for perm, mult in product.items()}
                assert _assert_matches_references(weighted, natural_order(n)) is not None


def test_F_of_poly_cancels_inside_one_descent_set():
    nat = natural_order(2)
    # all three words ascend weakly, so each has the empty descent set
    terms = {w("1 1 2"): 3, w("1 2 2"): -1, w("1 1' 2"): -2}
    assert {descent_set(word, nat) for word in terms} == {frozenset()}
    for nvars in (None, 2, 5):
        vec = ev.F_of_poly(terms, nat, nvars)
        assert not vec and vec.coeffs == {}
        assert vec == _F_of_poly_reference(terms, nat, nvars)
        if vec.nvars >= vec.degree:
            assert ev.schur_expand(vec) == {}
    on_compositions = F_of_poly(terms, nat)
    assert not on_compositions and on_compositions.coeffs == {}
    assert schur_expand(on_compositions) == {}
    # weights cancelling across two descent sets leave both sets' terms
    crossed = {w("1 2"): 1, w("2 1"): -1}
    assert ev.F_of_poly(crossed, nat) == _F_of_poly_reference(crossed, nat)
    assert in_variables(F_of_poly(crossed, nat), 2) == _F_of_poly_reference(crossed, nat)
    assert F_of_poly(crossed, nat).coeffs == {0: 1}


def test_F_and_schur_match_references_at_every_number_of_variables():
    rng = random.Random(31)
    for order in (natural_order(2), big_bar_order(2)):
        for degree in range(0, 6):
            words = list(all_words(2, degree))
            for nvars in range(0, degree + 3):
                for _ in range(3):
                    terms = {word: rng.choice([-2, -1, 1, 3]) for word in rng.sample(words, min(len(words), 6))}
                    _assert_matches_references(terms, order, nvars)
                # symmetric input: every word of the degree, each once
                _assert_matches_references(dict.fromkeys(words, 1), order, nvars)
    # degree 0: the empty word alone, and no word at all
    assert ev.F_of_poly({(): 4}, natural_order(1), nvars=3).coeffs == {(0, 0, 0): 4}
    assert in_variables(F_of_poly({(): 4}, natural_order(1)), 3).coeffs == {(0, 0, 0): 4}
    assert ev.schur_expand(ev.F_of_poly({(): 4}, natural_order(1), nvars=3)) == {(): 4}
    assert schur_expand(F_of_poly({(): 4}, natural_order(1))) == {(): 4}
    empty = ev.F_of_poly({}, natural_order(1))
    assert empty == _F_of_poly_reference({}, natural_order(1)) and not empty
    assert in_variables(F_of_poly({}, natural_order(1)), 1) == empty and not F_of_poly({}, natural_order(1))


def test_schur_expand_checks_symmetry_before_peeling():
    # right on every weakly decreasing exponent, wrong elsewhere: a peel that
    # read only those would return s_(2) + ...; the gate must raise first
    for degree, nvars, coeffs in (
        (2, 2, {(2, 0): 1}),
        (2, 2, {(2, 0): 1, (1, 1): 1}),
        (2, 3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 2}),
    ):
        vec = QSymMonomialVector(degree, nvars, coeffs)
        assert not ev.is_symmetric(vec)
        with pytest.raises(NotSymmetricError):
            ev.schur_expand(vec)
        with pytest.raises(NotSymmetricError):
            _schur_expand_reference(vec)
    # the same on compositions: right on every partition, missing or wrong
    # on a rearrangement
    for degree, parts in (
        (3, {(2, 1): 1}),
        (3, {(2, 1): 1, (1, 2): 2}),
        (4, {(3, 1): 1, (1, 3): 1, (2, 1, 1): 1}),
        (4, {(2, 2): 1, (1, 1, 1, 1): 3, (2, 1, 1): -1, (1, 2, 1): -1}),
    ):
        vec = QSymVector(degree, {cut_set(alpha): c for alpha, c in parts.items()})
        assert not is_symmetric(vec)
        assert not ev.is_symmetric(in_variables(vec, degree))
        with pytest.raises(NotSymmetricError):
            schur_expand(vec)


def test_composition_route_matches_tableaux_at_nine_boxes():
    words = enumerate_cyw((3, 3, 2, 1), 3)
    order = natural_order(4)
    expansion = schur_expand(F_of_set(words, order))
    assert expansion == schur_expand_by_tableaux(words, order)
    assert sum(expansion.values()) == 91
