"""Colored words, noncommutative super Schur functions, switchboards, and
Kronecker coefficients for hook shapes."""

from .alphabet_words import (
    Letter,
    ShuffleOrder,
    barred,
    big_bar_order,
    descent_set,
    down_arrow,
    double_down,
    enumerate_cyw,
    is_shuffle_closed,
    is_yamanouchi,
    natural_order,
    parse_word,
    standardize,
    to_plain_r,
    unbarred,
    word_str,
)
from .free_algebra import (
    IdealSpec,
    NCPoly,
    J_augmented,
    J_flagged,
    J_nu,
    congruent,
    e_k,
    e_k_order,
    e_k_subset,
    h_k_order,
    ideal_contains,
    ideal_degree_basis,
    kron_ideal,
    kronknuth_ideal,
    jshuffle_ideal,
    perp_contains,
    plac_ideal,
)
from .lascoux import superstandard
from .tableaux import (
    ColoredTableau,
    RestrictedShape,
    arrows,
    column_reading,
    convert,
    enumerate_tableaux,
    insert,
    is_arrow_respecting,
    nontail_removable,
    some_arrow_respecting_word,
    sqread,
    validate_tableau,
)

__version__ = "0.1.0"
