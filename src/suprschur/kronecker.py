"""Kronecker coefficients: character-theoretic oracle and the hook rules.

The oracle averages triple products of characters over conjugacy classes.
The cached character tables of S_n are the one store of character values.
Each keeps a character as a row over the classes, filled by the
Murnaghan-Nakayama rule from the tables of smaller n, and the row of
g(lam, mu, nu) over every nu for each pair (lam, mu) asked for.  The hook
rules count colored tableaux of shape nu whose diagonal reading word is a
colored Yamanouchi word of content lam.

The count is a direct fill, not a search over words.  A box's west and south
neighbours lie on the diagonal read just before it, so filling nu diagonal by
diagonal from the southwest needs only the previous diagonal to enforce the
row and column conditions.  A word of content lam is colored Yamanouchi
exactly when every prefix, with u unbarred and b barred letters of each
value, has b[v] >= b[v+1] and lam[v] - u[v] >= lam[v+1] - u[v+1], so the
condition is checked as each diagonal is read.  The last letter read is the box
(1, nu_1), which decides whether the word ends barred.  One fill per lam walks
the trie of the box steps of every shape of n, so shapes share the states of
a common prefix and a subtree where none survives is never walked; keyed by
the number of barred letters, it serves every d at once.  Each counted
tableau is the insertion tableau of its reading word, so the count equals
the number of colored Yamanouchi words w with sqread(P(w)) = w; the tests
keep that census and the fill of one shape at a time as references.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul
from types import MappingProxyType
from typing import Mapping, Sequence

# The census calls none of enumerate_cyw, insert and sqread.  They stay bound
# here because the benchmark's tracer rebinds them by attribute on this module.
from .alphabet_words import enumerate_cyw  # noqa: F401
from .errors import InvalidParameterError, ResourceLimitError
from .tableaux import check_partition, insert, partitions_of, sqread  # noqa: F401

ORACLE_BUDGET = 18


def class_size(rho: Sequence[int]) -> int:
    rho = tuple(rho)
    z = 1
    mult: dict[int, int] = {}
    for part in rho:
        z *= part
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        z *= factorial(m)
    return factorial(sum(rho)) // z


def _border_strips(lam: tuple[int, ...], k: int):
    """(sign, lam less the strip) for each border strip of size k.  A strip moves
    a first-column hook length b to a free b - k >= 0; each one it passes flips the sign."""
    beta = [part + len(lam) - i for i, part in enumerate(lam, 1)]
    for b in beta:
        if b < k or b - k in beta:
            continue
        moved = sorted((b - k if other == b else other for other in beta), reverse=True)
        rest = tuple(part for j, value in enumerate(moved, 1) if (part := value - len(lam) + j) > 0)
        yield (-1) ** sum(b - k < other < b for other in beta), rest


class CharacterTable:
    """Exact character table of the symmetric group on n letters.

    Each character is one row, a tuple over the classes in the order of
    ``partitions``; ``sizes`` holds the class sizes and ``index`` the column
    of each class.  Column rho of row lam sums the rows of the table for
    n - rho[0] at column rho[1:] over the signed border strips of size rho[0]."""

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.sizes = tuple(class_size(rho) for rho in self.partitions)
        self.index = {rho: i for i, rho in enumerate(self.partitions)}
        self.rows = {(): (1,)}
        self._coefficients: dict[int, tuple[int, ...]] = {}
        if n:
            columns: dict[int, list[int]] = {}
            for rho in self.partitions:
                columns.setdefault(rho[0], []).append(character_table(n - rho[0]).index[rho[1:]])
            self.rows = {}
            for lam in self.partitions:
                row = []
                for k, cols in columns.items():
                    rows = character_table(n - k).rows
                    strips = [(sign, rows[rest]) for sign, rest in _border_strips(lam, k)]
                    row.extend(sum(sign * values[c] for sign, values in strips) for c in cols)
                self.rows[lam] = tuple(row)

    def chi(self, lam: Sequence[int], rho: Sequence[int]) -> int:
        return self.rows[tuple(lam)][self.index[tuple(rho)]]

    def coefficients(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
        """g(lam, mu, nu) for every nu, in the order of ``partitions``, kept
        per (lam, mu): the class weights z * chi^lam * chi^mu, formed once,
        against each character row, divided by n!."""
        key = self.index[lam] * len(self.index) + self.index[mu]
        row = self._coefficients.get(key)
        if row is None:
            weights = [z * a * b for z, a, b in zip(self.sizes, self.rows[lam], self.rows[mu])]
            order = factorial(self.n)
            row = []
            for values in self.rows.values():
                quotient, remainder = divmod(sum(map(mul, weights, values)), order)
                if remainder:
                    raise ArithmeticError("character averaging did not give an integer")
                row.append(quotient)
            row = self._coefficients[key] = tuple(row)
        return row


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    if n < 0:
        raise InvalidParameterError("a character table needs n >= 0")
    if n > ORACLE_BUDGET:
        raise ResourceLimitError(f"character table budget is n <= {ORACLE_BUDGET}", required=n)
    return CharacterTable(n)


def _same_size(*parts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The arguments, lam first, as partitions of one size n >= 1; n = 0 has
    no hook shape, so it is refused here, not later."""
    parts = tuple(map(check_partition, parts))
    n = sum(parts[0])
    if not n:
        raise InvalidParameterError("lam must be a partition of n >= 1")
    for part in parts[1:]:
        if sum(part) != n:
            raise InvalidParameterError("the partitions must have the same size")
    return parts


def _oracle_parts(*parts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The arguments as ``_same_size`` gives them, found among the classes
    of ``character_table(n)``, whose rows the oracle reads anyway.  Only a
    part that is no class there, or an n outside 1..ORACLE_BUDGET, goes
    through ``_same_size``, so a non-partition is refused before any table
    too large is asked for."""
    parts = tuple(map(tuple, parts))
    n = sum(parts[0])
    if 1 <= n <= ORACLE_BUDGET:
        index = character_table(n).index
        if all(part in index for part in parts):
            return parts
    return _same_size(*parts)


def g_oracle(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Kronecker coefficient as an averaged triple product of characters."""
    return _triple_product(*_oracle_parts(lam, mu, nu))


def _triple_product(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """g_oracle on partitions already checked to be of one size n >= 1."""
    table = character_table(sum(lam))
    return table.coefficients(lam, mu)[table.index[nu]]


def hook(n: int, d: int) -> tuple[int, ...]:
    """The hook partition with arm n-d and leg d."""
    if not 0 <= d <= n - 1:
        raise InvalidParameterError(f"need 0 <= d <= {n - 1}")
    return (n - d,) + (1,) * d


def _box_steps(nu: tuple[int, ...]) -> list[tuple[int, int, bool]]:
    """The boxes of nu diagonal by diagonal from the southwest corner to
    (1, nu_1), each diagonal bottom-up, as (west, south, closes): the
    positions of the box's west and south neighbours on the previous
    diagonal (-1 outside nu) and whether it tops its diagonal.  Diagonal k
    holds the rows lo..hi, as nu_r falls while the column r - k grows."""
    steps = []
    prev_lo, prev_hi = len(nu) + 1, 0
    for k in range(len(nu) - 1, -nu[0], -1):
        lo = hi = max(1, k + 1)
        while hi < len(nu) and hi + 1 - k <= nu[hi]:
            hi += 1
        for r in range(hi, lo - 1, -1):
            steps.append((prev_hi - r if r >= prev_lo else -1, prev_hi - r - 1 if r < prev_hi else -1, r == lo))
        prev_lo, prev_hi = lo, hi
    return steps


def _step_trie(n: int) -> dict:
    """The trie of the _box_steps of every nu of n, ending in nu."""
    root: dict = {}
    for nu in partitions_of(n):
        *path, last = _box_steps(nu)
        node = root
        for edge in path:
            node = node.setdefault(edge, {})
        node[last] = nu
    return root


@lru_cache(maxsize=None)
def _census_by_bars(lam: tuple[int, ...]) -> Mapping[int, Mapping[tuple[tuple[int, ...], bool], int]]:
    """For every number d of bars, the census of shapes nu and final bars.

    Letters are their natural-order codes 2(v-1) + barred, so the row and
    column conditions compare codes.  A state is the previous diagonal, the
    current one so far, a = lam - (unbarred counts) and b = barred counts,
    each packed into one int with a field of lam_1's width per value.
    Unbarred letters are checked against a[v] >= a[v+1] as they are placed;
    a diagonal's barred letters are read top-down after its unbarred ones,
    so once it is complete they are taken back off b bottom-up, each checked
    against b[v-1] >= b[v]."""
    top = 2 * len(lam) - 1
    width = lam[0].bit_length()
    field = (1 << width) - 1
    shifts = [(x >> 1) * width for x in range(top + 1)]
    packed = sum(part << v * width for v, part in enumerate(lam))
    by_d: dict[int, dict[tuple[tuple[int, ...], bool], int]] = {}
    stack = [(_step_trie(sum(lam)), {((), (), packed, 0): 1})]
    while stack:
        node, states = stack.pop()
        for (west, south, closes), child in node.items():
            grown: dict[tuple, int] = {}
            for (prev, cur, a, b), count in states.items():
                lo = 0 if west < 0 else prev[west] + (prev[west] & 1)
                hi = top if south < 0 else prev[south] - 1 + (prev[south] & 1)
                for x in range(lo, hi + 1):
                    shift = shifts[x]
                    left = a >> shift & field
                    if left <= b >> shift & field:
                        continue
                    if x & 1:
                        na, nb = a, b + (1 << shift)
                    elif left <= a >> shift + width & field:
                        continue
                    else:
                        na, nb = a - (1 << shift), b
                    ncur = cur + (x,)
                    if closes:
                        seen = nb
                        for y in ncur:
                            if y & 1:
                                shift = shifts[y]
                                if shift and seen >> shift & field > seen >> shift - width & field:
                                    break
                                seen -= 1 << shift
                        else:
                            key = (ncur, (), na, nb)
                            grown[key] = grown.get(key, 0) + count
                        continue
                    key = (prev, ncur, na, nb)
                    grown[key] = grown.get(key, 0) + count
            if not grown:
                continue
            if type(child) is dict:
                stack.append((child, grown))
                continue
            keys = ((child, False), (child, True))  # shared by every d
            for (prev, _cur, _a, b), count in grown.items():
                census = by_d.setdefault(sum(b >> shift & field for shift in shifts[::2]), {})
                key = keys[prev[0] & 1]
                census[key] = census.get(key, 0) + count
    return MappingProxyType({d: MappingProxyType(census) for d, census in by_d.items()})


_EMPTY: Mapping = MappingProxyType({})


def _sqread_shape_census(lam: tuple[int, ...], d: int) -> Mapping[tuple[tuple[int, ...], bool], int]:
    """Count colored tableaux of each shape nu whose diagonal reading word is
    colored Yamanouchi of content lam with d barred letters, split by whether
    the word ends barred.  The table is cached and read-only."""
    return _census_by_bars(lam).get(d, _EMPTY)


def g_hook_rule(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """g for (lam, hook with d boxes below the corner, nu): the number of
    colored tableaux of shape nu whose diagonal reading word is a colored
    Yamanouchi word of content lam ending in an unbarred letter."""
    lam, nu = _same_size(lam, nu)
    n = sum(lam)
    if not 0 <= d <= n - 1:
        raise InvalidParameterError(f"need 0 <= d <= {n - 1}")
    census = _sqread_shape_census(lam, d)
    return census.get((nu, False), 0)


def _sum_triple(
    lam: Sequence[int], d: int, nu: Sequence[int], same_size=_same_size
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """lam and nu as partitions of one size n >= 1, with 0 <= d <= n checked:
    the triples that the sum rule and its oracle both accept.  The oracle
    checks the partitions with ``_oracle_parts``."""
    lam, nu = same_size(lam, nu)
    n = sum(lam)
    if not 0 <= d <= n:
        raise InvalidParameterError(f"need 0 <= d <= {n}")
    return lam, nu


def g_sum_rule(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """The two-coefficient sum g(lam, hook(d), nu) + g(lam, hook(d-1), nu),
    counted as tableaux with diagonal reading word Yamanouchi of content lam."""
    lam, nu = _sum_triple(lam, d, nu)
    census = _sqread_shape_census(lam, d)
    return census.get((nu, False), 0) + census.get((nu, True), 0)


def g_hook_oracle(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """Oracle value for the same triple as g_hook_rule."""
    return g_oracle(lam, hook(sum(lam), d), nu)


def g_sum_oracle(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """Oracle value for the boundary-safe two-coefficient sum; it refuses
    what g_sum_rule refuses."""
    lam, nu = _sum_triple(lam, d, nu, _oracle_parts)
    n = sum(lam)
    total = 0
    if 0 <= d <= n - 1:
        total += _triple_product(lam, hook(n, d), nu)
    if 0 <= d - 1 <= n - 1:
        total += _triple_product(lam, hook(n, d - 1), nu)
    return total
