"""Fundamental quasisymmetric functions, Schur expansions, and word conversion.

``F`` of a weighted word set is filled per descent set.  The weights are
summed by descent set D first; then each monomial x^e takes the sum over
the sets D that lie inside the cut set of e, the partial sums of its nonzero
parts without the last, since x^e occurs in F_D, once, exactly then.

The Schur expansion oracle works in exactly n = degree variables, where the
Schur polynomials of that degree are linearly independent; their monomial
expansions come from semistandard tableau enumeration, so the oracle is
independent of the tableau-counting route it is used to check.  Once the
symmetry check passes, a symmetric function is fixed by its coefficients on
weakly decreasing exponents, so the peel reads and subtracts only those.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .alphabet_words import (
    ColoredWord,
    Letter,
    ShuffleOrder,
    arrangement_count,
    covering_swap_path,
    descent_set,
)
from .errors import InvalidParameterError, NotSymmetricError
from .tableaux import check_partition, partitions_of, tableaux_with_sqread_in

Exponents = tuple[int, ...]
SymFunc = dict[tuple[int, ...], int]  # partition -> coefficient in the Schur basis


class QSymMonomialVector:
    """A polynomial of fixed degree in finitely many variables, stored as a
    map from exponent vectors to integer coefficients."""

    __slots__ = ("degree", "nvars", "coeffs")

    def __init__(self, degree: int, nvars: int, coeffs: Mapping[Exponents, int] | None = None):
        self.degree = degree
        self.nvars = nvars
        self.coeffs: dict[Exponents, int] = {}
        for exps, c in (coeffs or {}).items():
            if c:
                if len(exps) != nvars or sum(exps) != degree:
                    raise InvalidParameterError("exponent vector does not match degree/variables")
                self.coeffs[exps] = c

    def add_inplace(self, other: "QSymMonomialVector", scale: int = 1) -> None:
        if (other.degree, other.nvars) != (self.degree, self.nvars):
            raise InvalidParameterError("degree/variable mismatch")
        for exps, c in other.coeffs.items():
            new = self.coeffs.get(exps, 0) + scale * c
            if new:
                self.coeffs[exps] = new
            else:
                self.coeffs.pop(exps, None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSymMonomialVector)
            and self.degree == other.degree
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)


@lru_cache(maxsize=None)
def _monomial_cuts(degree: int, nvars: int) -> tuple[tuple[int, tuple[Exponents, ...]], ...]:
    """Every exponent vector of the degree in nvars variables, grouped by its
    cut set: the partial sums of its nonzero parts without the last, as a
    bitmask with bit p-1 for position p."""
    groups: dict[int, list[Exponents]] = {}

    def rec(prefix: Exponents, left: int, total: int, cuts: int) -> None:
        if len(prefix) == nvars:
            if not left:
                groups.setdefault(cuts, []).append(prefix)
            return
        for part in range(left, -1, -1):
            step = total + part
            cut = 1 << (step - 1) if part and part < left else 0
            rec(prefix + (part,), left - part, step, cuts | cut)

    rec((), degree, 0, 0)
    return tuple((cuts, tuple(exps)) for cuts, exps in groups.items())


def F_of_poly(terms: Mapping[ColoredWord, int], order: ShuffleOrder, nvars: int | None = None) -> QSymMonomialVector:
    """Sum of fundamental quasisymmetric functions over the descent sets of
    the support, with the given integer weights.

    The weights are summed per descent set first; x^e then takes the sum
    over the descent sets inside its cut set."""
    lengths = {len(w) for w in terms}
    if len(lengths) > 1:
        raise InvalidParameterError("all words must have the same length")
    degree = lengths.pop() if lengths else 0
    if nvars is None:
        nvars = max(degree, 1)
    by_set: dict[frozenset[int], int] = {}
    for w, c in terms.items():
        descents = descent_set(w, order)
        by_set[descents] = by_set.get(descents, 0) + c
    weights = [(sum(1 << (pos - 1) for pos in descents), c) for descents, c in by_set.items() if c]
    coeffs: dict[Exponents, int] = {}
    for cuts, group in _monomial_cuts(degree, nvars):
        total = sum(c for mask, c in weights if not mask & ~cuts)
        if total:
            coeffs.update(dict.fromkeys(group, total))
    return QSymMonomialVector(degree, nvars, coeffs)


def F_of_set(words: Iterable[ColoredWord], order: ShuffleOrder, nvars: int | None = None) -> QSymMonomialVector:
    return F_of_poly({w: 1 for w in words}, order, nvars)


def is_symmetric(vec: QSymMonomialVector) -> bool:
    """Invariance of coefficients under permuting the variables.

    Groups the stored exponent vectors by their sorted rearrangement: the
    vector is symmetric when each group has one coefficient and as many
    members as its orbit under the symmetric group.  Stored coefficients
    are nonzero, so a full count means every rearrangement is present.
    """
    groups: dict[Exponents, list[int]] = {}  # sorted exponents -> [coefficient, members]
    for exps, c in vec.coeffs.items():
        key = tuple(sorted(exps, reverse=True))
        group = groups.get(key)
        if group is None:
            groups[key] = [c, 1]
        elif group[0] != c:
            return False
        else:
            group[1] += 1
    return all(members == arrangement_count(key) for key, (_, members) in groups.items())


@lru_cache(maxsize=None)
def schur_monomials(nu: tuple[int, ...], nvars: int) -> Mapping[Exponents, int]:
    """Monomial expansion of the Schur polynomial by semistandard tableau
    enumeration (Kostka numbers), read-only, so the cache can hand it to
    every caller."""
    nu = check_partition(nu)
    coeffs: dict[Exponents, int] = {}
    rows = len(nu)
    if rows > nvars:
        return MappingProxyType(coeffs)
    if not nu:
        return MappingProxyType({(0,) * nvars: 1})
    tableau = [[0] * part for part in nu]
    boxes = [(r, c) for r, part in enumerate(nu) for c in range(part)]

    def rec(i: int) -> None:
        if i == len(boxes):
            exps = [0] * nvars
            for row in tableau:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, 0) + 1
            return
        r, c = boxes[i]
        lo = tableau[r][c - 1] if c else 1
        lo = max(lo, tableau[r - 1][c] + 1 if r else 1)
        for v in range(lo, nvars + 1):
            tableau[r][c] = v
            rec(i + 1)
        tableau[r][c] = 0

    rec(0)
    return MappingProxyType(coeffs)


def schur_expand(vec: QSymMonomialVector) -> SymFunc:
    """Expand a symmetric monomial vector in Schur polynomials by peeling
    dominance-leading terms; exact and unique when nvars >= degree.

    The symmetry check comes first.  Once it passes, the vector is fixed by
    its coefficients on weakly decreasing exponents, so only those are read:
    each peel takes the largest one left and subtracts the Kostka numbers of
    its Schur polynomial on those exponents."""
    if vec.nvars < vec.degree and vec.degree > 0:
        raise InvalidParameterError("need at least as many variables as the degree")
    if not is_symmetric(vec):
        raise NotSymmetricError("vector is not symmetric")
    nvars = vec.nvars
    # the partitions with at most nvars parts, padded with zeros
    dominant = [nu + (0,) * (nvars - len(nu)) for nu in partitions_of(vec.degree) if len(nu) <= nvars]
    residue = {exps: c for exps in dominant if (c := vec.coeffs.get(exps))}
    out: SymFunc = {}
    while residue:
        lead = max(residue)
        nu = tuple(part for part in lead if part)
        coeff = residue[lead]
        out[nu] = coeff
        monomials = schur_monomials(nu, nvars)
        for exps in dominant:
            c = monomials.get(exps)
            if c:
                new = residue.get(exps, 0) - coeff * c
                if new:
                    residue[exps] = new
                else:
                    residue.pop(exps, None)
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
