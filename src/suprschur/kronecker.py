"""Kronecker coefficients: character-theoretic oracle and the hook rules.

The oracle computes symmetric group characters by the Murnaghan-Nakayama
recursion (via first-column hook lengths) and averages triple products over
conjugacy classes.  The hook rules count colored tableaux whose diagonal
reading word is a colored Yamanouchi word; tableaux are found through the
insertion fixed point sqread(P(w)) = w, which is itself property-tested.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping, Sequence

from .alphabet_words import enumerate_cyw, natural_order
from .errors import InvalidParameterError, ResourceLimitError
from .tableaux import check_partition, insert, partitions_of, sqread

ORACLE_BUDGET = 12


@lru_cache(maxsize=None)
def _char(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Character value via border strip removal on first-column hook lengths."""
    if not lam:
        return 1 if not rho else 0
    k = rho[0]
    rest = rho[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted(beta, reverse=True)
        new_beta[new_beta.index(b)] = nb
        new_beta.sort(reverse=True)
        new_lam = tuple(
            part
            for j, value in enumerate(new_beta)
            if (part := value - (length - 1 - j)) > 0
        )
        total += (-1) ** height * _char(new_lam, rest)
    return total


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


class CharacterTable:
    """Exact character table of the symmetric group on n letters."""

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.class_sizes = {rho: class_size(rho) for rho in self.partitions}
        self.values = {
            (lam, rho): _char(lam, rho) for lam in self.partitions for rho in self.partitions
        }

    def chi(self, lam: Sequence[int], rho: Sequence[int]) -> int:
        return self.values[(tuple(lam), tuple(rho))]

    def check_orthogonality(self) -> bool:
        n_fact = factorial(self.n)
        for lam in self.partitions:
            for mu in self.partitions:
                total = sum(
                    self.class_sizes[rho] * self.values[(lam, rho)] * self.values[(mu, rho)]
                    for rho in self.partitions
                )
                if total != (n_fact if lam == mu else 0):
                    return False
        return True


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    if not 1 <= n <= ORACLE_BUDGET:
        raise ResourceLimitError(f"character table budget is n <= {ORACLE_BUDGET}", required=n)
    return CharacterTable(n)


def g_oracle(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Kronecker coefficient as an averaged triple product of characters."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise InvalidParameterError("all three partitions must have the same size")
    table = character_table(n)
    total = sum(
        table.class_sizes[rho] * table.chi(lam, rho) * table.chi(mu, rho) * table.chi(nu, rho)
        for rho in table.partitions
    )
    quotient, remainder = divmod(total, factorial(n))
    if remainder:
        raise ArithmeticError("character averaging did not give an integer")
    return quotient


def hook(n: int, d: int) -> tuple[int, ...]:
    """The hook partition with arm n-d and leg d."""
    if not 0 <= d <= n - 1:
        raise InvalidParameterError(f"need 0 <= d <= {n - 1}")
    return (n - d,) + (1,) * d


@lru_cache(maxsize=None)
def _sqread_shape_census(lam: tuple[int, ...], d: int) -> Mapping[tuple[tuple[int, ...], bool], int]:
    """For each colored Yamanouchi word that is a diagonal reading word,
    record the shape of its insertion tableau and whether it ends barred.

    The cache hands the same census to every caller, so it is read-only."""
    order = natural_order(max(len(lam), 1))
    census: dict[tuple[tuple[int, ...], bool], int] = {}
    for w in enumerate_cyw(lam, d):
        tab = insert(w, order)
        if sqread(tab) != w:
            continue
        widths: dict[int, int] = {}
        for (r, _c) in tab.boxes:
            widths[r] = widths.get(r, 0) + 1
        shape = tuple(widths[r] for r in sorted(widths))
        key = (shape, w[-1].barred if w else False)
        census[key] = census.get(key, 0) + 1
    return MappingProxyType(census)


def g_hook_rule(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """g for (lam, hook with d boxes below the corner, nu): the number of
    colored tableaux of shape nu whose diagonal reading word is a colored
    Yamanouchi word of content lam ending in an unbarred letter."""
    lam, nu = check_partition(lam), check_partition(nu)
    n = sum(lam)
    if sum(nu) != n:
        raise InvalidParameterError("lam and nu must have the same size")
    if not 0 <= d <= n - 1:
        raise InvalidParameterError(f"need 0 <= d <= {n - 1}")
    census = _sqread_shape_census(lam, d)
    return census.get((nu, False), 0)


def g_sum_rule(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """The two-coefficient sum g(lam, hook(d), nu) + g(lam, hook(d-1), nu),
    counted as tableaux with diagonal reading word Yamanouchi of content lam."""
    lam, nu = check_partition(lam), check_partition(nu)
    n = sum(lam)
    if sum(nu) != n:
        raise InvalidParameterError("lam and nu must have the same size")
    if not 0 <= d <= n:
        raise InvalidParameterError(f"need 0 <= d <= {n}")
    census = _sqread_shape_census(lam, d)
    return census.get((nu, False), 0) + census.get((nu, True), 0)


def g_hook_oracle(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """Oracle value for the same triple as g_hook_rule."""
    return g_oracle(lam, hook(sum(lam), d), nu)


def g_sum_oracle(lam: Sequence[int], d: int, nu: Sequence[int]) -> int:
    """Oracle value for the boundary-safe two-coefficient sum."""
    n = sum(lam)
    total = 0
    if 0 <= d <= n - 1:
        total += g_oracle(lam, hook(n, d), nu)
    if 0 <= d - 1 <= n - 1:
        total += g_oracle(lam, hook(n, d - 1), nu)
    return total
