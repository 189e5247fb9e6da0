from collections import Counter

import pytest

import exponent_vectors as ev
from exponent_vectors import in_variables
from helpers import shape_counts
from suprschur.alphabet_words import enumerate_cyw, natural_order, standardize
from suprschur.errors import InvalidParameterError, ResourceLimitError
from suprschur.kronecker import g_oracle, hook
from suprschur.lascoux import compose, compose_classes, gamma_class, knuth_class_analysis
from suprschur.symfun import is_symmetric, schur_expand
from suprschur.tableaux import partitions_of


def test_gamma_class_examples():
    assert set(gamma_class((3, 1))) == {(4, 1, 2, 3), (1, 4, 2, 3), (1, 2, 4, 3)}
    assert set(gamma_class((2, 1, 1))) == {(4, 3, 1, 2), (4, 1, 3, 2), (1, 4, 3, 2)}
    assert gamma_class((4,)) == [(1, 2, 3, 4)]
    with pytest.raises(ResourceLimitError):
        gamma_class((6, 4))


def test_compose_examples():
    assert compose((4, 1, 2, 3), (4, 3, 1, 2)) == (3, 2, 4, 1)
    assert compose((1, 2, 4, 3), (4, 1, 3, 2)) == (3, 1, 4, 2)
    identity = (1, 2, 3, 4)
    assert compose((2, 1, 4, 3), identity) == (2, 1, 4, 3)
    with pytest.raises(InvalidParameterError):
        compose((1, 2), (1, 2, 3))


def test_worked_product_table():
    left = gamma_class((3, 1))
    right = gamma_class((2, 1, 1))
    product = compose_classes(left, right)
    expected = Counter(
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
    assert product == expected
    report = knuth_class_analysis(product)
    assert report["is_union"]
    assert sorted(cls["shape"] for cls in report["classes"]) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)]


def test_trivial_union():
    n = 4
    product = compose_classes(gamma_class((n,)), gamma_class((n,)))
    report = knuth_class_analysis(product)
    assert report["is_union"] and len(report["classes"]) == 1
    assert report["classes"][0]["shape"] == (n,)


def test_hook_hook_rule_small():
    for n in range(2, 6):
        hooks = [hook(n, d) for d in range(n)]
        for lam in hooks:
            for mu in hooks:
                product = compose_classes(gamma_class(lam), gamma_class(mu))
                report = knuth_class_analysis(product)
                assert report["is_union"]
                counts = shape_counts(product)
                for nu in partitions_of(n):
                    assert counts.get(nu, 0) == g_oracle(lam, mu, nu)


def standardized_cyw(lam, d):
    """Standardizations (in the natural order) of the colored Yamanouchi words."""
    order = natural_order(max(len(lam), 1))
    return Counter(standardize(word, order) for word in enumerate_cyw(tuple(lam), d))


def test_standardized_cyw_splits_as_a_product():
    for lam in [(3, 2), (2, 2), (2, 1, 1)]:
        n = sum(lam)
        for d in range(n + 1):
            lhs = standardized_cyw(lam, d)
            rhs = Counter()
            if d <= n - 1:
                rhs += compose_classes(gamma_class(lam), gamma_class(hook(n, d)))
            if 0 <= d - 1 <= n - 1:
                rhs += compose_classes(gamma_class(lam), gamma_class(hook(n, d - 1)))
            assert lhs == rhs


def test_hook_mu_quasisymmetric_function_is_symmetric():
    from suprschur.alphabet_words import natural_order, unbarred
    from suprschur.symfun import F_of_poly

    for n in (3, 4):
        for lam in partitions_of(n):
            for d in range(n):
                mu = hook(n, d)
                product = compose_classes(gamma_class(lam), gamma_class(mu))
                weighted = {tuple(unbarred(v) for v in perm): mult for perm, mult in product.items()}
                vec = F_of_poly(weighted, natural_order(n))
                assert in_variables(vec, n) == ev.F_of_poly(weighted, natural_order(n))
                assert is_symmetric(vec)
                expansion = schur_expand(vec)
                for nu in partitions_of(n):
                    assert expansion.get(nu, 0) == g_oracle(lam, mu, nu)
