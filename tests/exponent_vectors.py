"""The exponent-vector route of the Schur expansion oracle, kept as the
reference for ``suprschur.symfun``, which works on compositions.

Here a quasisymmetric function lives in a fixed number of variables, one
coefficient per exponent vector; Schur polynomials are listed tableau by
tableau.  ``in_variables`` carries a composition vector over, so every test
that reads exponent vectors can read the composition route through it.
"""

from functools import lru_cache
from types import MappingProxyType

from suprschur.alphabet_words import arrangement_count, descent_set
from suprschur.errors import InvalidParameterError, NotSymmetricError
from suprschur.tableaux import check_partition, partitions_of


class QSymMonomialVector:
    """A polynomial of fixed degree in finitely many variables, stored as a
    map from exponent vectors to integer coefficients."""

    __slots__ = ("degree", "nvars", "coeffs")

    def __init__(self, degree, nvars, coeffs=None):
        self.degree = degree
        self.nvars = nvars
        self.coeffs = {}
        for exps, c in (coeffs or {}).items():
            if c:
                if len(exps) != nvars or sum(exps) != degree:
                    raise InvalidParameterError("exponent vector does not match degree/variables")
                self.coeffs[exps] = c

    def add_inplace(self, other, scale=1):
        if (other.degree, other.nvars) != (self.degree, self.nvars):
            raise InvalidParameterError("degree/variable mismatch")
        for exps, c in other.coeffs.items():
            new = self.coeffs.get(exps, 0) + scale * c
            if new:
                self.coeffs[exps] = new
            else:
                self.coeffs.pop(exps, None)

    def __eq__(self, other):
        return (
            isinstance(other, QSymMonomialVector)
            and self.degree == other.degree
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)


@lru_cache(maxsize=None)
def monomial_cuts(degree, nvars):
    """Every exponent vector of the degree in nvars variables, grouped by its
    cut set: the partial sums of its nonzero parts without the last, as a
    bitmask with bit p-1 for position p."""
    groups = {}

    def rec(prefix, left, total, cuts):
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


def in_variables(vec, nvars):
    """A composition vector of ``suprschur.symfun`` as a polynomial in nvars
    variables: x^e takes the coefficient of M_alpha, alpha the nonzero parts
    of e."""
    coeffs = {}
    for cuts, group in monomial_cuts(vec.degree, nvars):
        total = vec.coeffs.get(cuts)
        if total:
            coeffs.update(dict.fromkeys(group, total))
    return QSymMonomialVector(vec.degree, nvars, coeffs)


def F_of_poly(terms, order, nvars=None):
    """Sum of fundamental quasisymmetric functions over the descent sets of
    the support, with the given integer weights, in nvars variables.

    The weights are summed per descent set first; x^e then takes the sum
    over the descent sets inside its cut set."""
    lengths = {len(w) for w in terms}
    if len(lengths) > 1:
        raise InvalidParameterError("all words must have the same length")
    degree = lengths.pop() if lengths else 0
    if nvars is None:
        nvars = max(degree, 1)
    by_set = {}
    for w, c in terms.items():
        descents = descent_set(w, order)
        by_set[descents] = by_set.get(descents, 0) + c
    weights = [(sum(1 << (pos - 1) for pos in descents), c) for descents, c in by_set.items() if c]
    coeffs = {}
    for cuts, group in monomial_cuts(degree, nvars):
        total = sum(c for mask, c in weights if not mask & ~cuts)
        if total:
            coeffs.update(dict.fromkeys(group, total))
    return QSymMonomialVector(degree, nvars, coeffs)


def F_of_set(words, order, nvars=None):
    return F_of_poly({w: 1 for w in words}, order, nvars)


def is_symmetric(vec):
    """Invariance of coefficients under permuting the variables.

    Groups the stored exponent vectors by their sorted rearrangement: the
    vector is symmetric when each group has one coefficient and as many
    members as its orbit under the symmetric group.  Stored coefficients
    are nonzero, so a full count means every rearrangement is present.
    """
    groups = {}  # sorted exponents -> [coefficient, members]
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
def schur_monomials(nu, nvars):
    """Monomial expansion of the Schur polynomial by semistandard tableau
    enumeration (Kostka numbers), read-only, so the cache can hand it to
    every caller."""
    nu = check_partition(nu)
    coeffs = {}
    rows = len(nu)
    if rows > nvars:
        return MappingProxyType(coeffs)
    if not nu:
        return MappingProxyType({(0,) * nvars: 1})
    tableau = [[0] * part for part in nu]
    boxes = [(r, c) for r, part in enumerate(nu) for c in range(part)]

    def rec(i):
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


def schur_expand(vec):
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
    out = {}
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
