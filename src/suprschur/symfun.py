"""Fundamental quasisymmetric functions, Schur expansions, and word conversion.

A quasisymmetric function of degree n is kept in the monomial
quasisymmetric basis: one coefficient per composition alpha of n, the
coefficient of M_alpha.  A composition is keyed by its cut set, the partial
sums of its parts without the last, as a bitmask with bit p-1 for position
p in 1..n-1; so there are 2^(n-1) keys, whatever the number of variables.

``F`` of a weighted word set is filled per descent set.  The weights are
summed by descent set D first.  Since F_D is the sum of M_alpha over the
compositions whose cut set contains D, M_alpha then takes the sum of the
weights of the sets D inside its cut set (Gessel 1984; Stanley, EC2 7.19).

A quasisymmetric function is symmetric exactly when the coefficient of
M_alpha depends only on alpha sorted; it is then the sum of c_mu m_mu over
partitions mu.  The Schur expansion peels these coefficients with Kostka
numbers, the counts of semistandard tableaux of shape nu and content mu
(EC2 7.10), found by removing horizontal strips.  So the oracle is
independent of the colored-tableau route it is used to check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .alphabet_words import (
    ColoredWord,
    Letter,
    ShuffleOrder,
    arrangement_count,
    covering_swap_path,
    descent_mask,
)
from .errors import InvalidParameterError, NotSymmetricError
from .tableaux import partitions_of, tableaux_with_sqread_in

SymFunc = dict[tuple[int, ...], int]  # partition -> coefficient in the Schur basis


class QSymVector:
    """A quasisymmetric function of fixed degree in the monomial
    quasisymmetric basis, stored as a map from cut-set bitmasks to nonzero
    integer coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[int, int] | None = None):
        self.degree = degree
        self.coeffs: dict[int, int] = {}
        size = 1 << max(degree - 1, 0)
        for cuts, c in (coeffs or {}).items():
            if c:
                if not 0 <= cuts < size:
                    raise InvalidParameterError("cut set does not match the degree")
                self.coeffs[cuts] = c

    def __eq__(self, other) -> bool:
        return isinstance(other, QSymVector) and self.degree == other.degree and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)


def composition(cuts: int, degree: int) -> tuple[int, ...]:
    """The composition of the degree with the given cut set."""
    parts = []
    last = 0
    for pos in range(1, degree):
        if cuts >> (pos - 1) & 1:
            parts.append(pos - last)
            last = pos
    if degree:
        parts.append(degree - last)
    return tuple(parts)


def cut_set(parts: Iterable[int]) -> int:
    """The cut-set bitmask of a composition: bit p-1 for each partial sum p
    of its parts but the last."""
    cuts = 0
    total = 0
    for part in parts:
        if total:
            cuts |= 1 << (total - 1)
        total += part
    return cuts


def F_of_poly(terms: Mapping[ColoredWord, int], order: ShuffleOrder) -> QSymVector:
    """Sum of fundamental quasisymmetric functions over the descent sets of
    the support, with the given integer weights, in the monomial
    quasisymmetric basis.

    Each weight is added at its word's descent mask, a cut-set bitmask;
    M_alpha then takes the sum over the descent sets inside alpha's cut
    set, one bit at a time."""
    lengths = {len(w) for w in terms}
    if len(lengths) > 1:
        raise InvalidParameterError("all words must have the same length")
    degree = lengths.pop() if lengths else 0
    sums = [0] * (1 << max(degree - 1, 0))
    for w, c in terms.items():
        sums[descent_mask(w, order)] += c
    for pos in range(degree - 1):
        bit = 1 << pos
        for cuts in range(len(sums)):
            if cuts & bit:
                sums[cuts] += sums[cuts ^ bit]
    return QSymVector(degree, dict(enumerate(sums)))


def F_of_set(words: Iterable[ColoredWord], order: ShuffleOrder) -> QSymVector:
    return F_of_poly({w: 1 for w in words}, order)


def is_symmetric(vec: QSymVector) -> bool:
    """Whether the coefficient of M_alpha depends only on alpha sorted.

    Groups the stored compositions by their sorted parts: the vector is
    symmetric when each group has one coefficient and as many members as
    its partition has rearrangements.  Stored coefficients are nonzero, so
    a full count means every rearrangement is present.
    """
    groups: dict[tuple[int, ...], list[int]] = {}  # partition -> [coefficient, members]
    for cuts, c in vec.coeffs.items():
        key = tuple(sorted(composition(cuts, vec.degree), reverse=True))
        group = groups.get(key)
        if group is None:
            groups[key] = [c, 1]
        elif group[0] != c:
            return False
        else:
            group[1] += 1
    return all(members == arrangement_count(key) for key, (_, members) in groups.items())


def _horizontal_strips(nu: tuple[int, ...], size: int) -> Iterator[tuple[int, ...]]:
    """The partitions rho inside nu with nu/rho a horizontal strip of the
    given size: nu[i+1] <= rho[i] <= nu[i] row by row, trailing zeros cut."""
    rows = len(nu)

    def rec(i: int, left: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == rows:
            if not left:
                yield tuple(part for part in prefix if part)
            return
        floor = nu[i + 1] if i + 1 < rows else 0
        for part in range(max(floor, nu[i] - left), nu[i] + 1):
            yield from rec(i + 1, left - (nu[i] - part), prefix + (part,))

    return rec(0, size, ())


@lru_cache(maxsize=None)
def kostka(nu: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The Kostka number K_{nu,mu}: semistandard tableaux of shape nu (a
    partition) and content mu (a composition).

    The boxes holding the largest entry len(mu) form a horizontal strip of
    size mu[-1]; removing it leaves a tableau of content mu[:-1]."""
    if not mu:
        return 0 if nu else 1
    if len(nu) > len(mu) or sum(nu) != sum(mu):
        return 0
    rest = mu[:-1]
    return sum(kostka(rho, rest) for rho in _horizontal_strips(nu, mu[-1]))


def schur_expand(vec: QSymVector) -> SymFunc:
    """Expand a symmetric function in Schur functions by peeling
    dominance-leading terms; exact and unique.

    The symmetry check comes first.  Once it passes, the function is the
    sum of c_mu m_mu over partitions mu, with c_mu the coefficient of M_mu,
    so only partitions are read.  They are peeled in lexicographic order,
    largest first, which extends the dominance order: when nu comes up, no
    Schur function left can reach m_nu but s_nu, so s_nu takes nu's residue
    c, and c K_{nu,kappa} comes off every later kappa."""
    if not is_symmetric(vec):
        raise NotSymmetricError("vector is not symmetric")
    partitions = partitions_of(vec.degree)
    residue = [vec.coeffs.get(cut_set(mu), 0) for mu in partitions]
    out: SymFunc = {}
    for i, nu in enumerate(partitions):
        coeff = residue[i]
        if coeff:
            out[nu] = coeff
            for j in range(i + 1, len(partitions)):
                residue[j] -= coeff * kostka(nu, partitions[j])
    return out


def schur_expand_by_tableaux(words: Iterable[ColoredWord], order: ShuffleOrder) -> SymFunc:
    """Coefficient of each Schur function as a count of colored tableaux
    whose diagonal reading word lies in the set."""
    found = tableaux_with_sqread_in(words, order)
    return {nu: len(found[nu]) for nu in sorted(found, reverse=True)}


def symfunc_serialize(f: SymFunc) -> dict[str, int]:
    return {",".join(map(str, nu)): c for nu, c in sorted(f.items(), reverse=True)}


# ---------------------------------------------------------------------------
# word conversion


def word_convert_step(word: ColoredWord, b: Letter, abar: Letter, forward: bool = True) -> ColoredWord:
    """One covering swap: rotate each maximal run of b/a-bar letters once.

    The defining direction moves the unbarred letter up past the barred one
    and rotates right; the inverse swap undoes it by rotating left.
    """
    out = list(word)
    i = 0
    while i < len(out):
        if out[i] == b or out[i] == abar:
            j = i
            while j + 1 < len(out) and (out[j + 1] == b or out[j + 1] == abar):
                j += 1
            if forward:
                out[i : j + 1] = [out[j]] + out[i:j]
            else:
                out[i : j + 1] = out[i + 1 : j + 1] + [out[i]]
            i = j + 1
        else:
            i += 1
    return tuple(out)


def word_convert(word: ColoredWord, frm: ShuffleOrder, to: ShuffleOrder) -> ColoredWord:
    """Convert a colored word between shuffle orders, one covering swap at a
    time; preserves descent sets step by step."""
    out = tuple(word)
    for before, _, b, abar in covering_swap_path(frm, to):
        out = word_convert_step(out, b, abar, forward=before.lt(b, abar))
    return out
