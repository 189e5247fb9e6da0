"""Switch graphs on colored words: construction, validation, components,
per-component Schur expansions, and DOT export.

Edges are switches in some interior position i: two words that differ only
in the window (i-1, i, i+1).  The switches are read off the ideal
generators in ``free_algebra``: a Knuth switch is a two-term generator of
the natural-order plactic ideal, and a rotation switch joins two words of
one rotation generator of the Kronecker ideal.  A board is valid when every
vertex with exactly one natural-order descent among positions i-1, i lies
on exactly one i-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .alphabet_words import (
    ColoredWord,
    ShuffleOrder,
    descent_set,
    natural_order,
    word_str,
)
from .errors import ConstructionFailureError, VerificationFailureError
from .free_algebra import NCPoly, binary_pairs, kron_ideal, kronknuth_ideal, perp_contains, plac_ideal, rotation_triples
from .symfun import F_of_set, SymFunc, schur_expand, schur_expand_by_tableaux

KNUTH = "knuth"
ROTATION = "rotation"


@dataclass(frozen=True)
class Switch:
    position: int
    kind: str
    words: tuple[ColoredWord, ColoredWord]  # sorted by word key

    @staticmethod
    def make(position: int, kind: str, w1: ColoredWord, w2: ColoredWord) -> "Switch":
        lo, hi = sorted((w1, w2))
        return Switch(position, kind, (lo, hi))

    def other(self, word: ColoredWord) -> ColoredWord:
        return self.words[1] if word == self.words[0] else self.words[0]


@lru_cache(maxsize=None)
def _switch_table(N: int) -> Mapping[ColoredWord, tuple[tuple[ColoredWord, str], ...]]:
    """Each three-letter window over letters up to N, mapped to its switch
    partners with their kinds.

    Knuth switches are the two-term generators of the natural-order plactic
    ideal, read in both directions.  Each rotation generator
    ``xzy - zxy - yxz + yzx`` of the Kronecker ideal links ``yxz`` with
    ``xzy`` and ``yzx`` with ``zxy``.  The table is cached and shared, so it
    is read-only.
    """
    links = [(u, v, KNUTH) for u, v in binary_pairs(plac_ideal(natural_order(N)))]
    for x, y, z in rotation_triples(kron_ideal(N)):
        links += [((y, x, z), (x, z, y), ROTATION), ((y, z, x), (z, x, y), ROTATION)]
    table: dict[ColoredWord, list[tuple[ColoredWord, str]]] = {}
    for u, v, kind in links:
        table.setdefault(u, []).append((v, kind))
        table.setdefault(v, []).append((u, kind))
    return MappingProxyType({window: tuple(partners) for window, partners in table.items()})


def find_switch_partners(word: ColoredWord, i: int) -> list[tuple[ColoredWord, str]]:
    """All words related to the given one by a switch in position i (1-based,
    2 <= i <= len-1), with the switch kind."""
    if not 2 <= i <= len(word) - 1:
        raise ConstructionFailureError(f"switch position {i} out of range", word=word, position=i)
    window = word[i - 2 : i + 1]
    # the relations among letters up to M are the same in every table with N >= M
    table = _switch_table(max(x.value for x in window))
    return [(word[: i - 2] + partner + word[i + 1 :], kind) for partner, kind in table.get(window, ())]


class Switchboard:
    """An edge-labeled switch graph on a fixed set of colored words."""

    def __init__(self, vertices: Iterable[ColoredWord], edges: Iterable[Switch]):
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = frozenset(edges)
        self._incident: dict[tuple[ColoredWord, int], list[Switch]] = {}
        for edge in self.edges:
            for w in edge.words:
                self._incident.setdefault((w, edge.position), []).append(edge)

    def word_length(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    def i_edges(self, word: ColoredWord, i: int) -> list[Switch]:
        return self._incident.get((word, i), [])

    def indicator(self) -> NCPoly:
        return NCPoly({w: 1 for w in self.vertices})

    def to_dot(self) -> str:
        lines = ["graph switchboard {"]
        index = {w: f"v{k}" for k, w in enumerate(self.vertices, start=1)}
        for w in self.vertices:
            lines.append(f'  {index[w]} [label="{word_str(w)}"];')
        for edge in sorted(self.edges, key=lambda e: (e.position, e.words)):
            label = f"{edge.position}" if edge.kind == KNUTH else f"~{edge.position}"
            lines.append(f'  {index[edge.words[0]]} -- {index[edge.words[1]]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _needs_edge(word: ColoredWord, i: int, order: ShuffleOrder) -> bool:
    des = descent_set(word, order)
    return ((i - 1) in des) != (i in des)


def build_cyw_switchboard(lam: Sequence[int], d: int) -> Switchboard:
    """The canonical board on the colored Yamanouchi words: rotation switches
    whenever the window letters occupy three consecutive positions of the
    natural order, Knuth switches otherwise."""
    from .alphabet_words import enumerate_cyw

    vertices = enumerate_cyw(tuple(lam), d)
    return build_switchboard(vertices)


def build_switchboard(vertices: Sequence[ColoredWord]) -> Switchboard:
    """Canonical-preference board construction over an arbitrary vertex set."""
    order = natural_order(max((x.value for w in vertices for x in w), default=1))
    pool = set(vertices)
    n = len(vertices[0]) if vertices else 0
    edges = set()
    for w in vertices:
        for i in range(2, n):
            if not _needs_edge(w, i, order):
                continue
            partners = find_switch_partners(w, i)
            rotations = [p for p, kind in partners if kind == ROTATION]
            knuths = [p for p, kind in partners if kind == KNUTH]
            if rotations:
                partner, kind = rotations[0], ROTATION
            elif knuths:
                partner, kind = knuths[0], KNUTH
            else:
                raise ConstructionFailureError("vertex admits no switch", word=w, position=i)
            if partner not in pool:
                raise ConstructionFailureError(
                    f"required partner {word_str(partner)} missing from the vertex set",
                    word=w,
                    position=i,
                )
            edges.add(Switch.make(i, kind, w, partner))
    board = Switchboard(vertices, edges)
    if not validate_switchboard(board):
        raise ConstructionFailureError("constructed board violates the one-edge axiom")
    return board


def validate_switchboard(board: Switchboard) -> bool:
    """Each edge is a genuine switch and each vertex with exactly one descent
    among positions i-1, i lies on exactly one i-edge."""
    order = natural_order(max((x.value for w in board.vertices for x in w), default=1))
    for edge in board.edges:
        w1, w2 = edge.words
        if (w2, edge.kind) not in find_switch_partners(w1, edge.position):
            return False
    n = board.word_length()
    for w in board.vertices:
        for i in range(2, n):
            expected = 1 if _needs_edge(w, i, order) else 0
            if len(board.i_edges(w, i)) != expected:
                return False
    return True


def components(board: Switchboard) -> list[tuple[ColoredWord, ...]]:
    """Connected components, each sorted, ordered by their smallest vertex."""
    parent = {w: w for w in board.vertices}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for edge in board.edges:
        r1, r2 = find(edge.words[0]), find(edge.words[1])
        if r1 != r2:
            parent[max(r1, r2)] = min(r1, r2)
    groups: dict[ColoredWord, list[ColoredWord]] = {}
    for w in board.vertices:
        groups.setdefault(find(w), []).append(w)
    return [tuple(sorted(groups[root])) for root in sorted(groups)]


def component_schur(board: Switchboard) -> list[SymFunc]:
    """Per-component Schur expansion via tableau counting, cross-checked
    against the monomial-basis oracle.

    Each component's indicator must pair to zero with ``kronknuth_ideal(N)``,
    the ideal of the kron-Knuth conjecture.  A component of a canonical board
    need not be orthogonal to the larger Kronecker ideal: for
    ``lam = (3, 1)``, ``d = 2`` two of its seven components pair nonzero with
    a padded far pair, although the whole board's indicator pairs to zero.
    """
    N = max((x.value for w in board.vertices for x in w), default=1)
    order = natural_order(N)
    out = []
    for component in components(board):
        gamma = NCPoly({w: 1 for w in component})
        if not perp_contains(kronknuth_ideal(N), gamma):
            raise VerificationFailureError("component indicator is not orthogonal to the kron-Knuth ideal")
        by_tableaux = schur_expand_by_tableaux(component, order)
        by_oracle = schur_expand(F_of_set(component, order))
        if by_tableaux != by_oracle:
            raise VerificationFailureError(
                f"tableau count {by_tableaux} disagrees with the monomial oracle {by_oracle}"
            )
        out.append(by_tableaux)
    return out
