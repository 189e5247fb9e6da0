"""The Lascoux heuristic: products of Knuth classes of permutations.

A class here is the set of permutations whose insertion tableau is the
row-consecutive filling of a shape; products are composed pointwise and the
resulting multiset is analyzed by insertion tableau.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .tableaux import (
    IntRows,
    check_partition,
    inverse_rsk,
    ordinary_insertion_tableau,
    standard_tableaux,
    superstandard,
)

GAMMA_BUDGET = 9

Perm = tuple[int, ...]
PermMultiset = Counter  # Counter[Perm]


def gamma_class(lam: Sequence[int]) -> list[Perm]:
    """All permutations whose insertion tableau is the row-consecutive
    standard tableau of the given shape, by inverse RSK over recording
    tableaux."""
    lam = check_partition(lam)
    if sum(lam) > GAMMA_BUDGET:
        raise ResourceLimitError(f"gamma class budget is n <= {GAMMA_BUDGET}", required=sum(lam))
    target = superstandard(lam)
    return sorted(inverse_rsk(target, q) for q in standard_tableaux(lam))


def compose(u: Perm, v: Perm) -> Perm:
    """(u o v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise InvalidParameterError("permutations have different sizes")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def compose_classes(left: Iterable[Perm], right: Iterable[Perm]) -> PermMultiset:
    """Multiset of pairwise compositions."""
    left = list(left)
    right = list(right)
    out: PermMultiset = Counter()
    for u in left:
        for v in right:
            out[compose(u, v)] += 1
    return out


def knuth_class_analysis(multiset: Mapping[Perm, int]) -> dict:
    """Group a permutation multiset by insertion tableau and test whether it
    is a disjoint union of full Knuth classes, each with multiplicity one."""
    groups: dict[IntRows, Counter] = {}
    for perm, mult in multiset.items():
        if mult:
            groups.setdefault(ordinary_insertion_tableau(perm), Counter())[perm] = mult
    classes = []
    is_union = True
    for tableau in sorted(groups, key=lambda t: tuple(map(len, t)), reverse=True):
        present = groups[tableau]
        shape = tuple(len(row) for row in tableau)
        full_class = {inverse_rsk(tableau, q) for q in standard_tableaux(shape)}
        multiplicities = set(present.values())
        complete = set(present) == full_class
        uniform = len(multiplicities) == 1
        if not (complete and uniform and multiplicities == {1}):
            is_union = False
        classes.append(
            {
                "shape": shape,
                "tableau": tableau,
                "multiplicity": multiplicities.pop() if uniform else None,
                "complete": complete,
                "present": sum(present.values()),
                "class_size": len(full_class),
            }
        )
    return {"is_union": is_union, "classes": classes}
