"""The names the benchmark's tracer (``perfbench/tracing.py``) rebinds by
attribute must stay bound, even where the library itself no longer calls
them: a deleted or renamed one breaks every traced run."""

from suprschur import alphabet_words, free_algebra, kronecker, symfun, verify

BOUND_NAMES = [
    (alphabet_words, "enumerate_cyw"),
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
    (free_algebra.NCPoly, "__mul__"),
    (symfun, "F_of_set"),
    (symfun, "schur_expand"),
]


def test_traced_names_are_bound():
    missing = [f"{owner.__name__}.{name}" for owner, name in BOUND_NAMES if not callable(getattr(owner, name, None))]
    assert missing == []
