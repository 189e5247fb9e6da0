"""The free algebra on colored words, its relation ideals, and normal forms
in the quotient U/I.

Each ideal is given by one generator table, ``generator_windows``: every
word of every generator maps to the generators containing it.  A padded
generator ``left·g·right`` meets a word exactly where one of the word's
windows is a key of the table.  The perp test walks those instances with
``_padded_generators``; a content space walks each instance once, from the
window that is the generator's first word.  For that walk the ideal's move
table, ``_window_moves``, keeps only those first-word windows, indexed
letter by letter, each with its two-term partners and longer generators.

All four relation families preserve the colored content of a word, so the
degree-m component of each ideal splits across contents.  A content space
models one content of U/I: the two-term generators are handled by a
union-find on its words (their padded instances span exactly the vectors
with zero coefficient sum on every connected class), and the longer ones
project to rows over the classes, kept in echelon form.  One reduction by
those rows gives a canonical normal form, so membership is "every content's
form is zero" and congruence is "equal forms"; ``form_id`` names the form
of one word by a small int.

The letter map sigma: i -> (N+1-i)', i' -> N+1-i sends every generator of
each family to plus or minus a generator (``_mirror`` checks this per
ideal).  Applied letter by letter it then maps the space of a content c
onto the space of sigma(c).  So of each mirror orbit {c, sigma(c)} only the
content that sorts first is built; the other is a ``_MirroredSpace`` over
it, and the one cache of spaces, ``_content_space``, holds both.

Every two-term generator of these families swaps two adjacent letters.
``swap_moves`` lists those swaps, and ``swap_pairs`` the ones that are a
move whatever the letters around them.  Words joined by such moves are
congruent, which the reading-word congruence check uses to settle most
tableaux without building a content space.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import inf
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .alphabet_words import (
    ColoredWord,
    Letter,
    ShuffleOrder,
    arrangement_count,
    letter_from_code,
    natural_order,
    word_str,
)
from .errors import InvalidParameterError, ResourceLimitError

DEFAULT_BUDGET = 200_000


def monomial_budget() -> int:
    """Largest number of monomials handled in one degree/content component.

    Read from ``SUPRSCHUR_BUDGET`` on every call.  Membership checks it on
    every content lookup, whether or not the content space is cached, so
    lowering the budget takes effect at once.
    """
    return int(os.environ.get("SUPRSCHUR_BUDGET", DEFAULT_BUDGET))


def check_budget(size: int, what: str, budget: int | None = None) -> None:
    """Refuse a component of ``size`` monomials over the budget: raise
    ``ResourceLimitError`` with ``required`` set to the size.

    The budget is ``monomial_budget()`` unless a caller that checks many
    sizes in one run has read it once and passes it.
    """
    if budget is None:
        budget = monomial_budget()
    if size > budget:
        raise ResourceLimitError(
            f"{what} has {size} monomials, over the budget of {budget} (raise SUPRSCHUR_BUDGET to proceed)",
            required=size,
        )


class NCPoly:
    """Finitely supported integer combination of colored words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ColoredWord, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def from_word(cls, word: ColoredWord, coeff: int = 1) -> "NCPoly":
        return cls({tuple(word): coeff})

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @classmethod
    def _wrap(cls, terms: dict[ColoredWord, int]) -> "NCPoly":
        """Adopt a dict whose coefficients are all nonzero, without copying it."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            new = out.get(w, 0) + c
            if new:
                out[w] = new
            else:
                del out[w]
        return NCPoly._wrap(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly._wrap({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, int):
            return NCPoly({w: c * other for w, c in self.terms.items()})
        out: dict[ColoredWord, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        for w in [w for w, c in out.items() if not c]:
            del out[w]
        return NCPoly._wrap(out)

    def __rmul__(self, other: int) -> "NCPoly":
        return self * other

    def pairing(self, other: "NCPoly") -> int:
        """Bilinear form for which the colored words are orthonormal."""
        small, large = sorted((self.terms, other.terms), key=len)
        return sum(c * large.get(w, 0) for w, c in small.items())

    def degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise InvalidParameterError("polynomial is not homogeneous")
        return degs.pop() if degs else 0

    def content_split(self) -> dict[tuple[int, ...], dict[ColoredWord, int]]:
        out: dict[tuple[int, ...], dict[ColoredWord, int]] = {}
        for w, c in self.terms.items():
            out.setdefault(tuple(sorted(w)), {})[w] = c
        return out

    def support(self) -> list[ColoredWord]:
        return sorted(self.terms)

    def to_text(self) -> str:
        lines = []
        for w in self.support():
            c = self.terms[w]
            lines.append(f"{'+' if c >= 0 else '-'}{abs(c)} * {word_str(w)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"NCPoly({self.to_text()!r})" if self.terms else "NCPoly(0)"


# ---------------------------------------------------------------------------
# relation ideals

FAMILIES = ("plac", "kron", "kronknuth", "jshuffle")

Generator = tuple[tuple[ColoredWord, int], ...]  # a generator's (word, coeff) pairs


@dataclass(frozen=True)
class IdealSpec:
    family: str
    N: int
    order: ShuffleOrder | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown ideal family {self.family!r}")
        if (self.family == "plac") != (self.order is not None):
            raise InvalidParameterError("exactly the plactic family takes an order")
        if self.order is not None and self.order.N != self.N:
            raise InvalidParameterError("order does not match alphabet size")

    def key(self) -> tuple:
        return (self.family, self.N, self.order.key() if self.order else None)

    def name(self) -> str:
        if self.family == "plac":
            return "plac-natural" if self.order == natural_order(self.N) else "plac-bigbar"
        return self.family


def plac_ideal(order: ShuffleOrder) -> IdealSpec:
    return IdealSpec("plac", order.N, order)


def kron_ideal(N: int) -> IdealSpec:
    return IdealSpec("kron", N)


def kronknuth_ideal(N: int) -> IdealSpec:
    return IdealSpec("kronknuth", N)


def jshuffle_ideal(N: int) -> IdealSpec:
    return IdealSpec("jshuffle", N)


def parse_ideal(name: str, N: int) -> IdealSpec:
    from .alphabet_words import big_bar_order

    table = {
        "plac-natural": lambda: plac_ideal(natural_order(N)),
        "plac-bigbar": lambda: plac_ideal(big_bar_order(N)),
        "kron": lambda: kron_ideal(N),
        "kronknuth": lambda: kronknuth_ideal(N),
        "jshuffle": lambda: jshuffle_ideal(N),
    }
    if name not in table:
        raise InvalidParameterError(f"unknown ideal {name!r} (expected one of {sorted(table)})")
    return table[name]()


def _letters(N: int) -> list[Letter]:
    return [letter_from_code(c) for c in range(2 * N)]


def _super_knuth_doubles(order: ShuffleOrder) -> list[tuple[ColoredWord, ColoredWord]]:
    pairs = []
    letters = order.letters
    for y in letters:
        if not y.barred:
            pairs.extend(((y, y, x), (y, x, y)) for x in letters if order.lt(x, y))
            pairs.extend(((z, y, y), (y, z, y)) for z in letters if order.lt(y, z))
        else:
            pairs.extend(((y, y, z), (y, z, y)) for z in letters if order.lt(y, z))
            pairs.extend(((x, y, y), (y, x, y)) for x in letters if order.lt(x, y))
    return pairs


def _knuth_triples(order: ShuffleOrder, min_gap: int | None = None) -> list[tuple[ColoredWord, ColoredWord]]:
    """xzy = zxy and yxz = yzx for x < y < z, optionally with x below the
    natural predecessor of the predecessor of z."""
    pairs = []
    letters = order.letters
    for i, x in enumerate(letters):
        for j in range(i + 1, len(letters)):
            y = letters[j]
            for k in range(j + 1, len(letters)):
                z = letters[k]
                if min_gap is not None and z.code - x.code < min_gap:
                    continue
                pairs.append(((x, z, y), (z, x, y)))
                pairs.append(((y, x, z), (y, z, x)))
    return pairs


def _far_pairs(N: int) -> list[tuple[ColoredWord, ColoredWord]]:
    out = []
    for x in _letters(N):
        for z in _letters(N):
            if z.code - x.code >= 3:
                out.append(((x, z), (z, x)))
    return out


def _near_mixed_pairs(N: int) -> list[tuple[ColoredWord, ColoredWord]]:
    """xz = zx for x unbarred and z barred with codes less than 3 apart; the
    other mixed pairs are far pairs."""
    out = []
    for x in _letters(N):
        for z in _letters(N):
            if not x.barred and z.barred and abs(z.code - x.code) < 3:
                out.append(((x, z), (z, x)))
    return out


def binary_pairs(spec: IdealSpec) -> list[tuple[ColoredWord, ColoredWord]]:
    """All two-term generators of the ideal, as (left word, right word)."""
    if spec.family == "plac":
        return _super_knuth_doubles(spec.order) + _knuth_triples(spec.order)
    nat = natural_order(spec.N)
    if spec.family == "kron":
        return _super_knuth_doubles(nat) + _far_pairs(spec.N)
    if spec.family == "kronknuth":
        return _super_knuth_doubles(nat) + _knuth_triples(nat, min_gap=3)
    # jshuffle: commute every unbarred letter past every barred one, plus far pairs
    return _super_knuth_doubles(nat) + _far_pairs(spec.N) + _near_mixed_pairs(spec.N)


def rotation_triples(spec: IdealSpec) -> list[tuple[Letter, Letter, Letter]]:
    """Triples (x, y, z) occupying three consecutive natural-order positions."""
    if spec.family not in ("kron", "kronknuth"):
        return []
    letters = _letters(spec.N)
    return [tuple(letters[k : k + 3]) for k in range(2 * spec.N - 2)]


def _rotation_poly(x: Letter, y: Letter, z: Letter) -> NCPoly:
    return NCPoly({(x, z, y): 1, (z, x, y): -1, (y, x, z): -1, (y, z, x): 1})


def generator_polys(spec: IdealSpec) -> list[NCPoly]:
    gens = [NCPoly({w1: 1, w2: -1}) for w1, w2 in binary_pairs(spec)]
    gens.extend(_rotation_poly(*triple) for triple in rotation_triples(spec))
    return gens


@lru_cache(maxsize=None)
def generator_windows(spec: IdealSpec) -> Mapping[ColoredWord, tuple[Generator, ...]]:
    """Each word of each generator, mapped to the generators that contain it.

    A generator is a tuple of ``(word, coeff)`` pairs.  The table is cached
    and shared, so it is read-only all the way down.
    """
    table: dict[ColoredWord, list[Generator]] = {}
    for poly in generator_polys(spec):
        gen = tuple(poly.terms.items())
        for word in poly.terms:
            table.setdefault(word, []).append(gen)
    return MappingProxyType({word: tuple(gens) for word, gens in table.items()})


@lru_cache(maxsize=None)
def swap_moves(spec: IdealSpec) -> frozenset[tuple[ColoredWord, int]]:
    """The two-term generators ``u - v`` whose words differ by swapping two
    adjacent letters, as ``(window, offset)``: the window ``u`` (and ``v``)
    with the offset of the swapped pair in it.

    Read off ``binary_pairs``; a pair that is not such a swap is left out.
    """
    moves = set()
    for u, v in binary_pairs(spec):
        for k in range(len(u) - 1):
            if u[:k] + (u[k + 1], u[k]) + u[k + 2 :] == v:
                moves.update(((u, k), (v, k)))
    return frozenset(moves)


def swap_pairs(spec: IdealSpec) -> frozenset[tuple[Letter, Letter]]:
    """The letter pairs ``(a, b)`` for which ``a b - b a`` is a generator:
    the two-letter windows of ``swap_moves``.  Such a swap is a move in
    every word, whatever the letters around it."""
    return frozenset(u for u, _ in swap_moves(spec) if len(u) == 2)


def _padded_generators(
    table: Mapping[ColoredWord, tuple[Generator, ...]], w: ColoredWord
) -> Iterator[tuple[ColoredWord, Generator, ColoredWord]]:
    """Every padded generator ``left·g·right`` whose support contains ``w``,
    as ``(left, g, right)``, by window start and then window width."""
    for i in range(len(w) - 1):
        # every generator has degree 2 or 3
        for j in range(i + 2, min(i + 3, len(w)) + 1):
            for gen in table.get(w[i:j], ()):
                yield w[:i], gen, w[j:]


def multiset_words(letters: Sequence[Letter]) -> Iterator[ColoredWord]:
    """Distinct arrangements of a letter multiset, lexicographic by code.

    Each word is the next permutation of the last one (Knuth's Algorithm L):
    find the rightmost ascent, swap its left letter with the rightmost
    larger letter after it, and reverse the tail.
    """
    word = sorted(letters)
    n = len(word)
    while True:
        yield tuple(word)
        j = n - 2
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        l = n - 1
        while word[j] >= word[l]:
            l -= 1
        word[j], word[l] = word[l], word[j]
        word[j + 1 :] = word[:j:-1]


Moves = tuple[tuple[ColoredWord, ...], tuple[Generator, ...]]  # (partner windows, longer generators)
MoveTable = tuple[tuple[tuple[Moves | None, tuple[Moves | None, ...] | None] | None, ...], ...]


@lru_cache(maxsize=None)
def _window_moves(spec: IdealSpec, size: int) -> MoveTable:
    """The moves of each window that is some generator's first word, in a
    table indexed letter by letter over the codes ``range(size)``:
    ``table[a][b]`` is None when no such window starts with ``a b``, and
    otherwise ``(at_ab, after_ab)``, where ``at_ab`` is the moves of the
    window ``a b`` and ``after_ab[c]`` those of ``a b c`` (None where there
    are none, and ``after_ab`` None when no such window has three letters).

    The moves of a window ``u`` are the other words ``v`` of its two-term
    generators ``u - v`` and its generators of three or more terms, each in
    the order of ``generator_windows``; every generator has degree 2 or 3.
    A content space walks every padded generator from its first word, so
    these are the only windows it looks up, by two or three list indexings
    instead of a slice and a hash.  ``size`` is ``2N``, or more for a content
    with letters outside the ideal's alphabet: those letters are in no
    generator, so their rows are empty.  Cached, and read-only all the way
    down.
    """
    moves: dict[ColoredWord, Moves] = {}
    for window, gens in generator_windows(spec).items():
        mine = [gen for gen in gens if gen[0][0] == window]
        if mine:
            partners = tuple(gen[1][0] for gen in mine if len(gen) == 2)
            moves[window] = (partners, tuple(gen for gen in mine if len(gen) != 2))
    codes = range(size)

    def entry(a: int, b: int):
        if not any(window[:2] == (a, b) for window in moves):
            return None
        after = tuple(moves.get((a, b, c)) for c in codes)
        return moves.get((a, b)), (after if any(after) else None)

    return tuple(tuple(entry(a, b) for b in codes) for a in codes)


@lru_cache(maxsize=None)
def _mirror(spec: IdealSpec) -> tuple[Letter, ...] | None:
    """The letter map sigma: code c to 2N-1-c, that is i to (N+1-i)' and i'
    to N+1-i, as a tuple indexed by code, if it sends every generator of the
    ideal to plus or minus a generator; otherwise None.

    sigma is an involution that reverses the natural order.  Applied letter
    by letter it is an automorphism of the free algebra, so when it permutes
    the generators up to sign it maps the ideal onto itself, and the content
    space of c, word by word, onto the content space of sigma(c).
    """
    top = 2 * spec.N - 1
    mirror = tuple(letter_from_code(top - c) for c in range(top + 1))
    polys = generator_polys(spec)
    gens = {frozenset(poly.terms.items()) for poly in polys}
    for poly in polys:
        image = [(tuple([mirror[x] for x in w]), c) for w, c in poly.terms.items()]
        if frozenset(image) not in gens and frozenset((w, -c) for w, c in image) not in gens:
            return None
    return mirror


class _ContentSpace:
    """Exact model of one content component of U modulo an ideal.

    ``words`` are the content's words in lexicographic order; ``class_of``
    gives each word its class under the two-term generators, the classes
    numbered in the order of their first words; ``_pivots`` holds the
    longer generators' rows over those classes in echelon form.  The
    union-find runs on a flat parent list, and each word's windows are
    looked up once each in the ideal's ``_window_moves``.
    """

    def __init__(self, spec: IdealSpec, codes: tuple[int, ...]):
        letters = [letter_from_code(c) for c in codes]
        self.words = words = list(multiset_words(letters))
        self.index = index = {w: i for i, w in enumerate(words)}
        parent = list(range(len(words)))

        # Walk each padded generator once, from its first word: a window that
        # is a generator's first word pads it to an instance, and any other
        # window of a generator is met again as that instance's first word.
        table = _window_moves(spec, max(2 * spec.N, max(codes, default=-1) + 1))
        n = len(codes)
        longer = []  # padded generators of three or more terms, as (left, g, right)
        for a, w in enumerate(words):
            for i in range(n - 1):
                entry = table[w[i]][w[i + 1]]
                if entry is None:
                    continue
                at, after = entry
                for j, moves in ((i + 2, at), (i + 3, after[w[i + 2]] if after and i + 2 < n else None)):
                    if moves is None:
                        continue
                    partners, gens = moves
                    left, right = w[:i], w[j:]
                    for v in partners:  # u - v: the two padded words are one class
                        ra, rb = a, index[left + v + right]
                        while parent[ra] != ra:
                            parent[ra] = ra = parent[parent[ra]]
                        while parent[rb] != rb:
                            parent[rb] = rb = parent[parent[rb]]
                        if ra < rb:
                            parent[rb] = ra
                        elif rb < ra:
                            parent[ra] = rb
                    for gen in gens:
                        longer.append((left, gen, right))
        # classes are numbered by their first word, whatever the union order
        roots: dict[int, int] = {}
        self.class_of = class_of = []
        for a in range(len(words)):
            r = a
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            class_of.append(roots.setdefault(r, len(roots)))
        self.num_classes = len(roots)

        # pivot column -> the rest of its row; the pivot entry itself is 1
        self._pivots: dict[int, dict[int, Fraction]] = {}
        for left, gen, right in longer:
            self._add_row(self._classes({left + u + right: c for u, c in gen}))
        # class -> its form id, filled in as form_id asks
        self._form_ids: list[int | None] = [None] * self.num_classes
        self._compound_forms: dict[frozenset, int] = {}

    def _classes(self, component: dict[ColoredWord, int]) -> dict[int, int]:
        row: dict[int, int] = {}
        for w, coeff in component.items():
            cls = self.class_of[self.index[w]]
            row[cls] = row.get(cls, 0) + coeff
        return row

    def _reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Eliminate every pivot column from ``row``, which is consumed.

        Each pivot row has entries only right of its pivot, so the remainder
        is canonical: two rows give equal remainders exactly when their
        difference is a combination of the pivot rows.
        """
        out = {}
        while row:
            lead = min(row)
            value = row.pop(lead)
            if not value:
                continue
            pivot = self._pivots.get(lead)
            if pivot is None:
                out[lead] = value
                continue
            for c, v in pivot.items():
                row[c] = row.get(c, 0) - value * v
        return out

    def _add_row(self, row: dict[int, Fraction]) -> None:
        row = self._reduce(row)
        if row:
            lead = min(row)
            value = row.pop(lead)
            # a lead of 1 or -1 is its own inverse, so the row stays in ints
            inv = value if value in (1, -1) else 1 / Fraction(value)
            self._pivots[lead] = {c: v * inv for c, v in row.items()}

    def normal_form(self, component: dict[ColoredWord, int]) -> dict[int, Fraction]:
        """Canonical form of a combination of this content's words: equal
        exactly when the combinations are congruent, empty exactly when the
        combination lies in the ideal."""
        return self._reduce(self._classes(component))

    def form_id(self, w: ColoredWord) -> int:
        """A small int naming the normal form of the word ``w``: two words of
        this content get equal ids exactly when their forms are equal.

        Each class's form is reduced once.  A form that is a single class
        with coefficient 1 is named by that class; any other form gets the
        next id from ``num_classes`` on.
        """
        cls = self.class_of[self.index[w]]
        fid = self._form_ids[cls]
        if fid is None:
            form = self._reduce({cls: 1})
            if len(form) == 1 and 1 in form.values():
                (fid,) = form
            else:
                key = frozenset(form.items())
                fid = self._compound_forms.setdefault(key, self.num_classes + len(self._compound_forms))
            self._form_ids[cls] = fid
        return fid


class _MirroredSpace:
    """The content space of c read through the space of sigma(c), where
    sigma is the ideal's ``_mirror`` and sigma(c) sorts before c.

    Each word is mapped letter by letter before it is looked up, so a
    combination is zero, and two words have equal forms, exactly when their
    images do there.  The forms themselves are in the numbering of sigma(c)'s
    classes, not in the numbering a direct build of c would give.
    """

    __slots__ = ("_space", "_mirror")

    def __init__(self, space: _ContentSpace, mirror: tuple[Letter, ...]):
        self._space = space
        self._mirror = mirror

    def normal_form(self, component: dict[ColoredWord, int]) -> dict[int, Fraction]:
        m = self._mirror
        return self._space.normal_form({tuple([m[x] for x in w]): c for w, c in component.items()})

    def form_id(self, w: ColoredWord) -> int:
        m = self._mirror
        return self._space.form_id(tuple([m[x] for x in w]))


# one space, built or mirrored, per ideal and content.  A mirrored one wraps
# this cache's entry for its image; sigma is an involution, so the image's
# own image sorts after it and the image is built.
@lru_cache(maxsize=None)
def _content_space(spec: IdealSpec, content: tuple[int, ...]) -> _ContentSpace | _MirroredSpace:
    mirror = _mirror(spec)
    if mirror is not None and all(c < len(mirror) for c in content):
        image = tuple(sorted([mirror[c] for c in content]))
        if image < content:
            return _MirroredSpace(_content_space(spec, image), mirror)
    return _ContentSpace(spec, content)


def content_space(spec: IdealSpec, content: tuple[int, ...]) -> _ContentSpace | _MirroredSpace:
    """The content space of ``content`` (its sorted letter codes).

    A content is built once per ideal and mirror orbit: when the ideal's
    ``_mirror`` sigma exists and sigma(content) sorts before the content,
    the space is a ``_MirroredSpace`` over the space of sigma(content);
    otherwise it is built itself.  Each content's space is cached, so every
    call returns the same object.  That is always so when sigma is None, and
    for a content with a letter outside the ideal's alphabet, where sigma is
    not defined.  Callers use only two things of a space: whether a normal
    form is empty (``ideal_contains``) and whether two words of the one
    content have equal forms (``form_id``).  Forms of different contents are
    never compared, and a mirrored form is in its representative's
    numbering.

    The budget is checked against the number of words of the content before
    every lookup, cached or not, so a space built under a larger budget is
    refused just as a fresh build would be.  A content and its mirror image
    have the same number of words.
    """
    check_budget(arrangement_count(content), "content component")
    return _content_space(spec, content)


def ideal_contains(spec: IdealSpec, poly: NCPoly) -> bool:
    """Exact membership of a homogeneous polynomial in the degree component
    of the ideal: every content's normal form is zero.

    Raises ``ResourceLimitError`` when a content component of ``poly`` has
    more words than ``monomial_budget()``.
    """
    if not poly:
        return True
    poly.degree()  # raises on non-homogeneous input
    return not any(
        content_space(spec, content).normal_form(component)
        for content, component in poly.content_split().items()
    )


def congruent(spec: IdealSpec, f: NCPoly, g: NCPoly) -> bool:
    return ideal_contains(spec, f - g)


def perp_violation(spec: IdealSpec, gamma: NCPoly):
    """A padded generator with nonzero pairing against gamma, or None.

    Only instances whose support meets the support of gamma can pair
    nonzero, so it is enough to walk the padded generators of the support
    words.  A two-term witness also gives its words as ``pair``, the
    support word first.
    """
    table = generator_windows(spec)
    terms = gamma.terms
    for w in gamma.support():
        for left, gen, right in _padded_generators(table, w):
            if sum(c * terms.get(left + u + right, 0) for u, c in gen):
                pair = None
                if len(gen) == 2:
                    (other,) = (left + u + right for u, _ in gen if left + u + right != w)
                    pair = (w, other)
                return {"generator": NCPoly(dict(gen)), "left": left, "right": right, "pair": pair}
    return None


def perp_contains(spec: IdealSpec, gamma: NCPoly) -> bool:
    """Whether gamma pairs to zero with the whole ideal."""
    return perp_violation(spec, gamma) is None


def ideal_degree_basis(spec: IdealSpec, degree: int) -> list[NCPoly]:
    """Spanning set of the degree component: every padding of every generator.

    The library decides membership by content spaces and never calls this.
    It stays, exported, because it states the ideal by its definition, with
    no reduction in between: it is the dense side against which membership
    and the content spaces are checked, and it refuses a degree component
    over the monomial budget like every other path.
    """
    if degree < 2:
        raise InvalidParameterError("generators start in degree 2")
    check_budget((2 * spec.N) ** degree, "degree component")
    letters = _letters(spec.N)
    out = []
    for gen in generator_polys(spec):
        k = gen.degree()
        if k > degree:
            continue
        for left_len in range(degree - k + 1):
            for left in product(letters, repeat=left_len):
                lead = NCPoly.from_word(left)
                for right in product(letters, repeat=degree - k - left_len):
                    out.append(lead * gen * NCPoly.from_word(right))
    return out


# ---------------------------------------------------------------------------
# noncommutative super elementary / homogeneous / Schur functions


@lru_cache(maxsize=None)
def _chain_sum(k: int, letters: tuple[Letter, ...], repeat_barred: bool) -> NCPoly:
    """Sum of the words of ``k`` letters taken in the order of ``letters``:
    each letter comes after the one before it in the tuple, or equals it
    when its bar is ``repeat_barred``.

    The words are built level by level, each word with the first position
    its next letter may take, so they come out in lexicographic order of
    positions.
    """
    if k < 0:
        return NCPoly()
    chains: list[tuple[ColoredWord, int]] = [((), 0)]
    for _ in range(k):
        chains = [
            (chain + (z,), q if z.barred == repeat_barred else q + 1)
            for chain, start in chains
            for q, z in enumerate(letters[start:], start)
        ]
    return NCPoly._wrap({chain: 1 for chain, _ in chains})


def _longest_chain(letters: Sequence[Letter], repeat_barred: bool) -> float:
    """The largest ``k`` for which ``_chain_sum(k, letters, repeat_barred)``
    has a word, found without building any: every letter once, or no bound
    when some letter may repeat.  Every ``k`` from 0 to it has words."""
    return inf if any(z.barred == repeat_barred for z in letters) else len(letters)


def e_k_order(k: int, order: ShuffleOrder) -> NCPoly:
    """Sum of decreasing chains, allowing repeats only at barred letters."""
    return _chain_sum(k, order.letters[::-1], True)


def e_k(k: int, N: int) -> NCPoly:
    return e_k_order(k, natural_order(N))


def e_k_subset(k: int, letters: Iterable[Letter]) -> NCPoly:
    """Like e_k but with letters drawn from a subset, in the natural order."""
    return _chain_sum(k, tuple(sorted(set(letters), reverse=True)), True)


def h_k_order(k: int, order: ShuffleOrder) -> NCPoly:
    """Sum of increasing chains, allowing repeats only at unbarred letters."""
    return _chain_sum(k, order.letters, False)


def J_nu(nu: Sequence[int], N: int, order: ShuffleOrder | None = None) -> NCPoly:
    """Noncommutative super Schur function via the signed sum over column sets."""
    from .tableaux import check_partition, conjugate

    nu = check_partition(nu)
    if order is None:
        order = natural_order(N)
    depths = conjugate(nu)
    longest = _longest_chain(order.letters, True)
    return _signed_column_sum(depths, lambda j, k: e_k_order(k, order), [longest] * len(depths))


def _signed_column_sum(
    depths: Sequence[int], column: Callable[[int, int], NCPoly], longest: Sequence[float]
) -> NCPoly:
    """The determinant-style sum over permutations pi of 1..t of
    sign(pi) * column(1, k_1) * ... * column(t, k_t), where
    k_j = depths[j - 1] + pi(j) - j.  ``column(j, k)`` is nonzero exactly
    when 0 <= k <= longest[j - 1], which is read without building it.

    The sum is built column by column, left to right.  After j columns a
    state is the set of row offsets pi(1), ..., pi(j) used so far, as a
    bitmask, and it holds the signed sum of the products of the first j
    factors over those choices.  Appending offset p to a state multiplies it
    on the right by column j+1's factor at p, with sign (-1)^m, where m is
    the number of used offsets above p: the inversions that p closes.  The
    state of all t offsets is the sum.  Partial sums meet at a state and
    cancel there, before any later factor is multiplied in.

    A state is kept only if the columns still to come can be given the
    unused offsets with every factor nonzero.  One backward pass over the
    2^t masks decides this per sum, from ``longest`` alone.  Without it, a
    state whose every completion hits a zero factor is still carried to the
    end, and its products can have degree above sum(depths): the shifts
    pi(j) - j sum to zero, so a prefix that skips low offsets reaches higher
    k.  With it, every product built is a prefix of a surviving permutation,
    and a column's factor is built only when a kept state first uses it.
    """
    t = len(depths)
    live = [[0 <= depths[j - 1] + p - j <= longest[j - 1] for p in range(1, t + 1)] for j in range(1, t + 1)]
    full = (1 << t) - 1
    # completes[mask]: the columns from popcount(mask) on can take the unused offsets
    completes = [False] * (full + 1)
    completes[full] = True
    for mask in range(full - 1, -1, -1):
        row = live[mask.bit_count()]
        completes[mask] = any(
            not mask >> p & 1 and row[p] and completes[mask | 1 << p] for p in range(t)
        )
    if not completes[0]:
        return NCPoly()
    states = {0: NCPoly.one()}
    for j, row in enumerate(live, start=1):
        factors: dict[int, NCPoly] = {}  # offset -> this column's factor, built on first use
        sums: dict[int, dict[ColoredWord, int]] = {}
        for mask, partial in states.items():
            for p, alive in enumerate(row):
                bit = 1 << p
                if mask & bit or not alive or not completes[mask | bit]:
                    continue
                factor = factors.get(p)
                if factor is None:
                    factor = factors[p] = column(j, depths[j - 1] + p + 1 - j)
                total = sums.setdefault(mask | bit, {})
                sign = -1 if (mask >> p).bit_count() % 2 else 1
                # the empty state's partial sum is 1, so its products are the factors
                for w, c in (factor if mask == 0 else partial * factor).terms.items():
                    total[w] = total.get(w, 0) + sign * c
        states = {mask: poly for mask, total in sums.items() if (poly := NCPoly(total))}
    return states.get(full, NCPoly())


FlagValue = Letter | None  # None is the adjoined bottom element


def letters_at_most(flag: FlagValue, N: int) -> tuple[Letter, ...]:
    if flag is None:
        return ()
    return tuple(letter_from_code(c) for c in range(flag.code + 1))


def J_augmented(
    alpha: Sequence[int],
    flags: Sequence[FlagValue],
    inserts: Sequence[ColoredWord],
    N: int,
) -> NCPoly:
    """Column-flagged super Schur function with words spliced between columns."""
    alpha = tuple(alpha)
    flags = tuple(flags)
    inserts = tuple(tuple(w) for w in inserts)
    l = len(alpha)
    if len(flags) != l:
        raise InvalidParameterError("alpha and flags must have equal length")
    if len(inserts) != max(l - 1, 0):
        raise InvalidParameterError("need one insert word per gap between columns")
    pools = [letters_at_most(flag, N) for flag in flags]

    def column(j: int, k: int) -> NCPoly:
        factor = e_k_subset(k, pools[j - 1])
        if j < l and inserts[j - 1]:
            factor = factor * NCPoly.from_word(inserts[j - 1])
        return factor

    # an insert word multiplies a nonzero factor to a nonzero one
    return _signed_column_sum(alpha, column, [_longest_chain(pool, True) for pool in pools])


def J_flagged(alpha: Sequence[int], flags: Sequence[FlagValue], N: int) -> NCPoly:
    """Eq-style column-flagged super Schur function J_alpha^n."""
    return J_augmented(alpha, flags, [()] * max(len(alpha) - 1, 0), N)
