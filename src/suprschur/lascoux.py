"""The Lascoux heuristic: products of Knuth classes of permutations.

A class here is the set of permutations whose insertion tableau is the
row-consecutive filling of a shape; products are composed pointwise and the
resulting multiset is analyzed by insertion tableau.  The ordinary
(uncolored) tableaux this needs live here too: superstandard fillings, RSK
and the standard tableaux of a shape.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .tableaux import check_partition

GAMMA_BUDGET = 9

Perm = tuple[int, ...]
PermMultiset = Counter  # Counter[Perm]


# ---------------------------------------------------------------------------
# ordinary (uncolored) tableaux: superstandard fillings and RSK

IntRows = tuple[tuple[int, ...], ...]


def superstandard(lam: Sequence[int]) -> IntRows:
    """Rows labeled consecutively left to right, top to bottom."""
    lam = check_partition(lam)
    rows = []
    nxt = 1
    for part in lam:
        rows.append(tuple(range(nxt, nxt + part)))
        nxt += part
    return tuple(rows)


def ordinary_rsk(word: Sequence[int]) -> tuple[IntRows, IntRows]:
    """Row insertion with recording tableau."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            bump = None
            for i, y in enumerate(row):
                if y > x:
                    bump = i
                    break
            if bump is None:
                row.append(x)
                q_rows[r].append(step)
                break
            row[bump], x = x, row[bump]
            r += 1
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def ordinary_insertion_tableau(word: Sequence[int]) -> IntRows:
    return ordinary_rsk(word)[0]


def inverse_rsk(p_rows: IntRows, q_rows: IntRows) -> tuple[int, ...]:
    """Recover the word inserting to P with recording tableau Q."""
    rows = [list(row) for row in p_rows]
    positions = {value: (r, c) for r, row in enumerate(q_rows) for c, value in enumerate(row)}
    word = []
    for step in range(len(positions), 0, -1):
        r, c = positions[step]
        x = rows[r].pop(c)
        for rr in range(r - 1, -1, -1):
            row = rows[rr]
            # rightmost entry smaller than x comes out
            i = max(j for j, y in enumerate(row) if y < x)
            row[i], x = x, row[i]
        word.append(x)
    if any(row for row in rows):
        raise InvalidParameterError("recording tableau does not match the insertion tableau")
    return tuple(reversed(word))


def standard_tableaux(lam: Sequence[int]) -> Iterator[IntRows]:
    """All standard Young tableaux of the given shape."""
    lam = check_partition(lam)
    n = sum(lam)
    rows: list[list[int]] = [[] for _ in lam]

    def fill(value: int) -> Iterator[IntRows]:
        if value > n:
            yield tuple(tuple(row) for row in rows)
            return
        for r, row in enumerate(rows):
            if len(row) < lam[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                row.append(value)
                yield from fill(value + 1)
                row.pop()

    yield from fill(1)


# ---------------------------------------------------------------------------
# Knuth classes of permutations


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
