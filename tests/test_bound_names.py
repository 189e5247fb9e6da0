"""The names the benchmark (``perfbench/``) reads from the library must stay
bound, even where the library itself no longer calls them: the tracer
rebinds some by attribute, and the workloads, the child runner and the
tracer call the others.  A deleted or renamed one breaks every traced run,
and some of them (``IdealSpec.key``) no other tier-1 test executes."""

import inspect

from suprschur import alphabet_words, errors, free_algebra, kronecker, symfun, verify

BOUND_NAMES = [
    (alphabet_words, "enumerate_cyw"),
    (alphabet_words, "natural_order"),
    (kronecker, "enumerate_cyw"),
    (kronecker, "insert"),
    (kronecker, "sqread"),
    (kronecker, "g_hook_rule"),
    (kronecker, "g_sum_rule"),
    (kronecker, "g_hook_oracle"),
    (kronecker, "g_sum_oracle"),
    (verify, "sqread"),
    (verify, "enumerate_tableaux"),
    (verify, "enumerate_fillings"),
    (verify, "arrow_respecting_words"),
    (verify, "J_nu"),
    (verify, "ideal_contains"),
    (verify, "verify_jnu"),
    (verify, "verify_reading_word_congruence"),
    (free_algebra, "kron_ideal"),
    (free_algebra, "monomial_budget"),
    (free_algebra.NCPoly, "__mul__"),
    (free_algebra.NCPoly, "content_split"),
    (free_algebra.IdealSpec, "key"),
    (errors, "ResourceLimitError"),
    (symfun, "F_of_set"),
    (symfun, "schur_expand"),
]


def test_traced_names_are_bound():
    missing = [f"{owner.__name__}.{name}" for owner, name in BOUND_NAMES if not callable(getattr(owner, name, None))]
    assert missing == []
    assert type(getattr(kronecker, "ORACLE_BUDGET", None)) is int


def test_patched_oracle_line_is_present():
    # perfbench/selftest.py::test_wrong_oracle_is_counted_as_failed patches
    # this exact line to make the oracle wrong
    assert "return g_oracle(lam, hook(sum(lam), d), nu)" in inspect.getsource(kronecker.g_hook_oracle)
