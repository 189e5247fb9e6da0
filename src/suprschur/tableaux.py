"""Colored tableaux, restricted shapes, reading words, insertion, and conversion.

Boxes are (row, col) pairs with the English matrix convention, 1-based.
A restricted shape is a lower order ideal of a partition diagram for the
order that grows to the northeast; concretely: occupied columns form a
prefix 1..m, each column is a contiguous interval of rows, column tops are
weakly increasing and column bottoms weakly decreasing.  A partition shape
is the special case where every column starts at row 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .alphabet_words import (
    ColoredWord,
    Letter,
    ShuffleOrder,
    parse_word,
    word_str,
)
from .errors import ConstructionFailureError, InvalidParameterError, MalformedInputError

Box = tuple[int, int]


# ---------------------------------------------------------------------------
# partitions


def is_partition(parts: Sequence[int]) -> bool:
    """Whether the parts weakly decrease and are all positive: in one pass,
    since the parts of a weakly decreasing sequence are positive exactly
    when its last part is."""
    if not parts:
        return True
    prev = parts[0]
    for part in parts:
        if part > prev:
            return False
        prev = part
    return prev > 0


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if not is_partition(parts):
        raise InvalidParameterError(f"{parts} is not a partition")
    return parts


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0])) if lam else ()


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse-lexicographic (largest-first) order."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise MalformedInputError(f"cannot parse partition {text!r}") from None
    return check_partition(parts)


def partition_str(lam: Sequence[int]) -> str:
    return ",".join(str(part) for part in lam)


# ---------------------------------------------------------------------------
# shapes


class RestrictedShape:
    """A set of boxes closed under moving southwest inside a partition diagram."""

    __slots__ = ("boxes", "column_intervals")

    def __init__(self, boxes: Iterable[Box]):
        boxes = frozenset(boxes)
        cols: dict[int, list[int]] = {}
        for r, c in boxes:
            if r < 1 or c < 1:
                raise MalformedInputError("boxes must have positive coordinates")
            cols.setdefault(c, []).append(r)
        if boxes and sorted(cols) != list(range(1, len(cols) + 1)):
            raise MalformedInputError("occupied columns must form a prefix 1..m")
        intervals = []
        for c in range(1, len(cols) + 1):
            rows = sorted(cols[c])
            if rows != list(range(rows[0], rows[-1] + 1)):
                raise MalformedInputError(f"column {c} is not a contiguous interval of rows")
            intervals.append((rows[0], rows[-1]))
        for (t1, b1), (t2, b2) in zip(intervals, intervals[1:]):
            if t2 < t1 or b2 > b1:
                raise MalformedInputError("column tops must increase and bottoms decrease")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "column_intervals", tuple(intervals))

    @classmethod
    def from_intervals(cls, intervals: Sequence[tuple[int, int]]) -> "RestrictedShape":
        return cls({(r, c + 1) for c, (top, bottom) in enumerate(intervals) for r in range(top, bottom + 1)})

    @classmethod
    def from_partition(cls, lam: Sequence[int]) -> "RestrictedShape":
        lam = check_partition(lam)
        return cls({(r + 1, c + 1) for r, row in enumerate(lam) for c in range(row)})

    @classmethod
    def from_column_pair(cls, heights: Sequence[int], alpha: Sequence[int]) -> "RestrictedShape":
        """The difference of column diagrams: column c keeps rows alpha[c]+1..heights[c]."""
        if len(heights) != len(alpha):
            raise InvalidParameterError("heights and alpha must have equal length")
        boxes = set()
        for c, (height, cut) in enumerate(zip(heights, alpha), start=1):
            if not 0 <= cut <= height:
                raise InvalidParameterError(f"need 0 <= alpha_{c} <= {height}")
            boxes.update((r, c) for r in range(cut + 1, height + 1))
        return cls(boxes)

    def __len__(self) -> int:
        return len(self.boxes)

    def __contains__(self, box: Box) -> bool:
        return box in self.boxes

    def __eq__(self, other) -> bool:
        return isinstance(other, RestrictedShape) and self.boxes == other.boxes

    def __hash__(self) -> int:
        return hash(self.boxes)

    def __repr__(self) -> str:
        return f"RestrictedShape({self.column_intervals})"


def restricted_shapes_in_box(max_rows: int, max_cols: int, max_boxes: int | None = None) -> list[RestrictedShape]:
    """All nonempty restricted shapes fitting inside the given box."""
    shapes = []

    def extend(intervals: list[tuple[int, int]]):
        if intervals:
            shape = RestrictedShape.from_intervals(intervals)
            if max_boxes is None or len(shape) <= max_boxes:
                shapes.append(shape)
        if len(intervals) == max_cols:
            return
        min_top = intervals[-1][0] if intervals else 1
        max_bottom = intervals[-1][1] if intervals else max_rows
        for top in range(min_top, max_rows + 1):
            for bottom in range(top, max_bottom + 1):
                if max_boxes is not None and intervals and sum(b - t + 1 for t, b in intervals) + bottom - top + 1 > max_boxes:
                    continue
                extend(intervals + [(top, bottom)])

    extend([])
    return shapes


# ---------------------------------------------------------------------------
# colored tableaux


class ColoredTableau:
    """A filling of a shape by letters, tagged with the order it lives in."""

    __slots__ = ("entries", "order", "boxes")

    def __init__(self, entries: Mapping[Box, Letter], order: ShuffleOrder, shape: RestrictedShape | None = None):
        entries = dict(entries)
        if shape is not None:
            missing = shape.boxes - entries.keys()
            if missing:
                raise MalformedInputError(f"boxes without entries: {sorted(missing)}")
            extra = entries.keys() - shape.boxes
            if extra:
                raise MalformedInputError(f"entries outside the shape: {sorted(extra)}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "boxes", frozenset(entries))

    @classmethod
    def _wrap(cls, entries: dict[Box, Letter], order: ShuffleOrder, boxes: frozenset[Box] | None = None) -> "ColoredTableau":
        """Adopt a dict of entries, and its box set when the caller has it,
        without copying or checking them."""
        tab = cls.__new__(cls)
        object.__setattr__(tab, "entries", entries)
        object.__setattr__(tab, "order", order)
        object.__setattr__(tab, "boxes", frozenset(entries) if boxes is None else boxes)
        return tab

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Letter]], order: ShuffleOrder) -> "ColoredTableau":
        entries = {(r + 1, c + 1): x for r, row in enumerate(rows) for c, x in enumerate(row)}
        return cls(entries, order)

    @classmethod
    def parse(cls, text: str, order: ShuffleOrder) -> "ColoredTableau":
        """One row per line (or rows separated by ``/``), space-separated letters."""
        lines = [ln for ln in text.replace("/", "\n").splitlines() if ln.strip()]
        return cls.from_rows([parse_word(ln) for ln in lines], order)

    def __getitem__(self, box: Box) -> Letter:
        return self.entries[box]

    def shape(self) -> RestrictedShape:
        return RestrictedShape(self.boxes)

    def rows(self) -> list[tuple[int, list[tuple[int, Letter]]]]:
        by_row: dict[int, list[tuple[int, Letter]]] = {}
        for (r, c), x in self.entries.items():
            by_row.setdefault(r, []).append((c, x))
        return [(r, sorted(by_row[r])) for r in sorted(by_row)]

    def to_text(self) -> str:
        return "\n".join(word_str([x for _, x in cells]) for _, cells in self.rows())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredTableau)
            and self.entries == other.entries
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.entries.items()), self.order))

    def __repr__(self) -> str:
        return f"ColoredTableau({self.to_text()!r})"


def validate_tableau(tab: ColoredTableau) -> bool:
    """Rows and columns weakly increase; unbarred letters strictly increase
    down columns and barred letters strictly increase along rows."""
    tab.shape()  # raises MalformedInputError when the box set is not a restricted shape
    order = tab.order
    for (r, c), x in tab.entries.items():
        east = tab.entries.get((r, c + 1))
        if east is not None and not order.lerow(x, east):
            return False
        south = tab.entries.get((r + 1, c))
        if south is not None and not order.lecol(x, south):
            return False
    return True


def sqread(tab: ColoredTableau) -> ColoredWord:
    """Diagonal reading word: per diagonal from the southwest, unbarred
    entries toward the northwest, then barred entries toward the southeast."""
    return _sqread_reader(tab.boxes)(_layout_and_letters(tab)[1])


def column_reading(tab: ColoredTableau) -> ColoredWord:
    """Concatenate columns bottom to top, leftmost column first."""
    return _column_reader(tab.boxes)(_layout_and_letters(tab)[1])


_barred = attrgetter("barred")


def _getter(seq: Sequence[int]) -> Callable:
    """The letters at the indices of a permutation, as a tuple even for one."""
    return itemgetter(*seq) if len(seq) > 1 else tuple


@lru_cache(maxsize=None)
def _sqread_reader(boxes: frozenset[Box]) -> Callable:
    """``sqread`` of a filling of the boxes from its letters in box order
    (``_FillingWalk.letters``), with one getter per pattern of bars."""
    ordered = sorted(boxes)
    getters = {}

    def read(letters: Sequence[Letter]) -> ColoredWord:
        bars = tuple(map(_barred, letters))
        get = getters.get(bars)
        if get is None:
            # per diagonal from the southwest: unbarred to the northwest, then barred to the southeast
            key = lambda i: (ordered[i][1] - ordered[i][0], bars[i], ordered[i][0] if bars[i] else -ordered[i][0])
            get = getters[bars] = _getter(sorted(range(len(ordered)), key=key))
        return get(letters)

    return read


@lru_cache(maxsize=None)
def _column_reader(boxes: frozenset[Box]) -> Callable:
    """The reader of ``column_reading``: a fixed order of the indices."""
    ordered = sorted(boxes)
    return _getter(sorted(range(len(ordered)), key=lambda i: (ordered[i][1], -ordered[i][0])))


def insert(word: ColoredWord, order: ShuffleOrder) -> ColoredTableau:
    """Row insertion where a barred letter also bumps its own copies.

    An unbarred letter bumps the smallest row entry strictly above it; a
    barred letter bumps the smallest entry that is strictly above it or an
    equal barred letter.
    """
    rank = order._rank
    rows: list[list[Letter]] = []
    for x in word:
        for row in rows:
            rx = rank[x]
            barred = x.barred
            for i, y in enumerate(row):
                if rank[y] > rx or (barred and y == x):
                    row[i], x = x, y
                    break
            else:
                row.append(x)
                break
        else:
            rows.append([x])
    entries = {(r, c): x for r, row in enumerate(rows, 1) for c, x in enumerate(row, 1)}
    return ColoredTableau._wrap(entries, order)


def tableaux_with_sqread_in(words: Iterable[ColoredWord], order: ShuffleOrder) -> dict[tuple[int, ...], set[ColoredTableau]]:
    """All colored tableaux for the order whose diagonal reading word lies in
    the set, grouped by shape.

    A tableau is the insertion tableau of its own reading word, so the only
    tableau that can read to w is P(w), and it does exactly when
    sqread(P(w)) == w.
    """
    pool = set(words)
    if len({len(w) for w in pool}) > 1:
        raise InvalidParameterError("all words must have the same length")
    out: dict[tuple[int, ...], set[ColoredTableau]] = {}
    for w in pool:
        tab = insert(w, order)
        if sqread(tab) == w:
            shape = tuple(len(cells) for _, cells in tab.rows())
            out.setdefault(shape, set()).add(tab)
    return out


class _FillingWalk:
    """The valid fillings of box sets for one order, with entries at most
    max_letter.  The letter tables are built once, here, and serve every
    box set walked.

    A walk goes depth first over the boxes in lexicographic order, the
    letters of each box in rank order, so the fillings come in
    lexicographic order of their letter ranks.  The prefixes wait on an
    explicit stack, and the last box extends its prefix straight into the
    output.
    """

    def __init__(self, order: ShuffleOrder, max_letter: Letter):
        self.alphabet = alphabet = tuple(x for x in order.letters if order.rank(x) <= order.rank(max_letter))
        # The letters allowed east of x and south of x.  Each is a suffix of
        # the letters in rank order, so the letters both neighbours allow
        # are the shorter of their two suffixes.
        self.east_of = {x: tuple(y for y in alphabet if order.lerow(x, y)) for x in alphabet}
        self.south_of = {x: tuple(y for y in alphabet if order.lecol(x, y)) for x in alphabet}
        self.both = {(w, n): min(self.east_of[w], self.south_of[n], key=len) for w in alphabet for n in alphabet}

    @cached_property
    def heads(self) -> dict[tuple[bool, bool], dict[Letter, tuple[Letter, int]]]:
        """Per candidate flags ``(nw, se)``: each letter x of a northwest box
        that can carry an arrow, with the southeast letter that makes it and
        the arrow's kind (``_arrow``).  ``by_arrows`` reads them."""
        alphabet = self.alphabet
        return {
            (nw, se): {x: (y, kind) for x in alphabet for y in alphabet if (kind := _arrow(x, y, nw, se))}
            for nw in (False, True)
            for se in (False, True)
        }

    @staticmethod
    def _neighbours(ordered: Sequence[Box]) -> list[tuple[int | None, int | None]]:
        """Per box, the indices of its west and north neighbours, or None."""
        index = {box: i for i, box in enumerate(ordered)}
        return [(index.get((r, c - 1)), index.get((r - 1, c))) for r, c in ordered]

    def _choices(self, ordered: Sequence[Box]) -> list[tuple[itemgetter, Mapping]]:
        """Per box, a getter of its west and north neighbours' letters from a
        prefix, and the table from those to the letters the box allows."""
        steps = []
        for west, north in self._neighbours(ordered):
            if west is not None and north is not None:
                steps.append((itemgetter(west, north), self.both))
            elif west is not None:
                steps.append((itemgetter(west), self.east_of))
            elif north is not None:
                steps.append((itemgetter(north), self.south_of))
            else:
                # a shape's first box: every prefix gives the empty slice
                steps.append((itemgetter(slice(0)), {(): self.alphabet}))
        return steps

    def letters(self, ordered: Sequence[Box]) -> Iterator[tuple[Letter, ...]]:
        """Every filling of the boxes, given in lexicographic order: each a
        tuple of letters in box order."""
        if not ordered:
            yield ()
            return
        choices = self._choices(ordered)
        last = len(ordered) - 1
        stack: list[tuple[Letter, ...]] = [()]
        while stack:
            prefix = stack.pop()
            get, allowed = choices[len(prefix)]
            if len(prefix) == last:
                for x in allowed[get(prefix)]:
                    yield prefix + (x,)
            else:
                # reversed, so that the stack pops the smallest letter first
                stack.extend([prefix + (x,) for x in reversed(allowed[get(prefix)])])

    def by_arrows(self, max_boxes: int) -> Iterator[tuple[_Layout, dict[int, list[tuple[Letter, ...]]]]]:
        """Each restricted shape of at most max_boxes boxes that has a
        filling, as its ``_box_layout``, with its fillings grouped by arrows
        (``_filling_arrows``).  One walk, depth first over the trie of the
        shapes' box sequences, serves them all: the boxes before a box fix
        its neighbours and the numbered candidates ending at it, whose
        rectangles lie in the rows above it."""
        heads = self.heads
        # a node: its box's ``_choices``; the candidates ending there, as the
        # northwest box and {its letter: (the letter here, the arrow's bits)};
        # the children by box; the layout of the shape ending there, or None
        roots = {}
        for shape in restricted_shapes_in_box(max_boxes, max_boxes, max_boxes=max_boxes):
            layout = _box_layout(shape.boxes)
            ordered, _, candidates = layout
            children = roots
            for j, (box, (get, allowed)) in enumerate(zip(ordered, self._choices(ordered))):
                if box not in children:
                    ends = tuple(
                        (i, {x: (y, kind << 2 * c) for x, (y, kind) in heads[nw, se].items()})
                        for c, (i, end, nw, se) in enumerate(candidates)
                        if end == j
                    )
                    children[box] = [get, allowed, ends, {}, None]
                node = children[box]
                children = node[3]
            node[4] = layout
        # a node waits with its parent's groups, shared by its siblings, and
        # grows its own when it is taken
        stack = [(node, {0: [()]}) for node in roots.values()]
        while stack:
            (get, allowed, ends, children, layout), groups = stack.pop()
            grown = {}
            for arrows, prefixes in groups.items():
                if not ends:
                    out = [p + (x,) for p in prefixes for x in allowed[get(p)]]
                    if out:
                        grown[arrows] = out
                    continue
                for p in prefixes:
                    hits = {}  # a letter here -> the arrows it makes
                    for corner, made in ends:
                        hit = made.get(p[corner])
                        if hit is not None:
                            hits[hit[0]] = hits.get(hit[0], 0) | hit[1]
                    for x in allowed[get(p)]:
                        key = arrows | hits.get(x, 0)
                        if key in grown:
                            grown[key].append(p + (x,))
                        else:
                            grown[key] = [p + (x,)]
            if grown:
                if layout is not None:
                    yield layout, grown
                stack.extend((child, grown) for child in children.values())


def enumerate_fillings(shape: RestrictedShape, order: ShuffleOrder, max_letter: Letter) -> Iterator[ColoredTableau]:
    """All valid colored fillings of a shape with entries at most max_letter."""
    ordered = _box_layout(shape.boxes)[0]
    # every box is filled, so the shape needs no check
    for letters in _FillingWalk(order, max_letter).letters(ordered):
        yield ColoredTableau._wrap(dict(zip(ordered, letters)), order, shape.boxes)


def enumerate_tableaux(nu: Sequence[int], order: ShuffleOrder, max_letter: Letter) -> list[ColoredTableau]:
    """All valid colored tableaux of partition shape nu, entries <= max_letter."""
    return list(enumerate_fillings(RestrictedShape.from_partition(nu), order, max_letter))


# ---------------------------------------------------------------------------
# arrows on restricted colored tableaux (natural order)
#
# One model answers every question here.  Per box set, ``_box_layout`` gives
# each box's mask of the boxes southwest of it and the pairs of boxes that
# can carry an arrow.  ``_arrow`` decides which of those pairs carry one in
# a filling; a filling's arrows are one int (``_filling_arrows``, or built
# box by box in ``_FillingWalk.by_arrows``), whose tails ``_arrow_preds``
# adds to the masks.  The masks give the arrows, the northeast-maximal and
# nontail removable boxes, and one record per mask tuple of the reading
# orders, their swaps and readers, ``_order_facts``.


@dataclass(frozen=True)
class Arrow:
    tail: Box
    head: Box
    direction: str  # "NW" or "SE"


# a box set's boxes in lexicographic order, southwest masks and arrow candidates
_Layout = tuple[tuple[Box, ...], tuple[int, ...], tuple[tuple[int, int, bool, bool], ...]]


@lru_cache(maxsize=None)
def _box_layout(boxes: frozenset[Box]) -> _Layout:
    """What the reading orders and arrows need of a box set, whatever its filling.

    The boxes in lexicographic order; for each, the bitmask (bit i for the
    i-th box) of the other boxes weakly southwest of it, which are read
    before it; and each pair ``(i, j, nw, se)`` of a box and one strictly
    southeast of it whose rectangle can carry an arrow: ``nw`` when the
    letters are unbarred, ``se`` when they are barred, in order of
    southeast box, then northwest box.
    """
    ordered = tuple(sorted(boxes))
    southwest = tuple(
        sum(1 << i for i, (r1, c1) in enumerate(ordered) if (r1, c1) != (r2, c2) and r1 >= r2 and c1 <= c2)
        for r2, c2 in ordered
    )
    candidates = []
    for j, (r2, c2) in enumerate(ordered):
        for i, (r1, c1) in enumerate(ordered):
            if r2 <= r1 or c2 <= c1:
                continue
            two_by_two = r2 == r1 + 1 and c2 == c1 + 1
            # nothing in the rectangle outside its first column and last row
            hook_only = not any((r, c) in boxes for r in range(r1, r2) for c in range(c1 + 1, c2 + 1))
            nw = two_by_two or (r2 - r1 >= 2 and hook_only)
            se = two_by_two or (c2 - c1 >= 2 and hook_only)
            if nw or se:
                candidates.append((i, j, nw, se))
    return ordered, southwest, tuple(candidates)


def _layout_and_letters(tab: ColoredTableau) -> tuple[_Layout, list[Letter]]:
    """The ``_box_layout`` of a tableau's box set, and its letters in the
    layout's box order."""
    layout = _box_layout(tab.boxes)
    return layout, [tab.entries[b] for b in layout[0]]


def arrows(tab: ColoredTableau) -> frozenset[Arrow]:
    """Arrows between boxes holding consecutive values, per the six templates.

    A 2x2 rectangle whose corners hold a (northwest) and a+1 (southeast),
    both unbarred, always carries an arrow pointing northwest; rectangles
    with more than two rows carry one exactly when the shape meets them in
    the first column and last row only.  Barred letters behave dually, with
    arrows pointing southeast and the roles of rows and columns exchanged.

    The arrows are read back from ``_filling_preds``: a tail is never
    southwest of its head, so the bits of a predecessor mask outside the
    southwest mask are the arrow tails, and an arrow points southeast
    exactly when its tail is barred.
    """
    layout, letters = _layout_and_letters(tab)
    ordered, southwest, _ = layout
    preds = _filling_preds(letters, layout)
    out = []
    for head, need, sw in zip(ordered, preds, southwest):
        tails = need & ~sw
        for t, tail in enumerate(ordered):
            if tails >> t & 1:
                out.append(Arrow(tail=tail, head=head, direction="SE" if letters[t].barred else "NW"))
    return frozenset(out)


def _unused_bits(masks: Iterable[int], ordered: Sequence[Box]) -> list[Box]:
    """The boxes whose bit is in none of the masks, in box order."""
    used = 0
    for mask in masks:
        used |= mask
    return [box for i, box in enumerate(ordered) if not used >> i & 1]


def ne_maximal_boxes(tab: ColoredTableau) -> list[Box]:
    """Boxes with no other box weakly north and weakly east of them: the
    boxes southwest of no other box."""
    ordered, southwest, _ = _box_layout(tab.boxes)
    return _unused_bits(southwest, ordered)


def nontail_removable(tab: ColoredTableau) -> list[Box]:
    """The northeast-maximal boxes that are no arrow's tail: the boxes read
    before no other box."""
    layout, letters = _layout_and_letters(tab)
    return _unused_bits(_filling_preds(letters, layout), layout[0])


def is_arrow_respecting(tab: ColoredTableau, word: ColoredWord) -> bool:
    """Whether the word can be read off the tableau in an order compatible
    with the southwest-to-northeast box order and with every arrow.

    A depth-first search over the sets of boxes read so far, as bitmasks:
    the next letter of the word is the one at the set's size, so a set that
    led nowhere once leads nowhere again, and each is tried once.
    """
    if sorted(word) != sorted(tab.entries.values()):
        raise InvalidParameterError("word is not a rearrangement of the tableau entries")
    layout, letters = _layout_and_letters(tab)
    steps = [(1 << i, need, x) for i, (need, x) in enumerate(zip(_filling_preds(letters, layout), letters))]
    full = (1 << len(letters)) - 1
    seen = {0}
    stack = [0]
    while stack:
        read = stack.pop()
        if read == full:
            return True
        want = word[read.bit_count()]
        for b, need, x in steps:
            if x == want and not read & b and need & read == need and read | b not in seen:
                seen.add(read | b)
                stack.append(read | b)
    return False


def _arrow(x: Letter, y: Letter, nw: bool, se: bool) -> int:
    """The arrow a candidate pair ``(i, j, nw, se)`` of ``_box_layout``
    carries with the letter x in its northwest box and y in its southeast
    box: 1 for an arrow pointing northwest, from the southeast box; 2 for
    one pointing southeast, from the northwest box; 0 for none.

    This is the one place that decides which candidate pairs carry an
    arrow: the letters must be consecutive values with one bar; unbarred
    letters point northwest and barred letters southeast.
    """
    # codes are 2*(value-1) + barred, so this is value + 1 with x's bar
    if y != x + 2:
        return 0
    if x.barred:
        return 2 if se else 0
    return 1 if nw else 0


def _filling_arrows(letters: Sequence[Letter], layout: _Layout) -> int:
    """A filling's arrows as one int: the ``_arrow`` of the c-th candidate
    pair of its layout at bits 2c and 2c + 1.  The letters are in box
    order.  ``_FillingWalk.by_arrows`` builds the same int box by box."""
    return sum(_arrow(letters[i], letters[j], nw, se) << 2 * c for c, (i, j, nw, se) in enumerate(layout[2]))


def _arrow_preds(arrows: int, layout: _Layout) -> tuple[int, ...]:
    """For each box, the bitmask of the boxes read before it: its box set's
    southwest masks (from ``_box_layout``) plus the tail of every arrow
    into it, for the arrows given as by ``_filling_arrows``."""
    _, southwest, candidates = layout
    preds = list(southwest)
    for c, (i, j, _, _) in enumerate(candidates):
        kind = arrows >> 2 * c & 3
        if kind == 1:
            preds[i] |= 1 << j
        elif kind == 2:
            preds[j] |= 1 << i
    return tuple(preds)


def _filling_preds(letters: Sequence[Letter], layout: _Layout) -> tuple[int, ...]:
    """The predecessor masks (``_arrow_preds``) of a filling, its letters in
    box order."""
    return _arrow_preds(_filling_arrows(letters, layout), layout)


# one step between two orders: the other order's index, the two boxes
# swapped, and the boxes just before and after them, or None
_Edge = tuple[int, int, int, int | None, int | None]


@lru_cache(maxsize=None)
def _order_facts(
    preds: tuple[int, ...],
) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[_Edge, ...], ...], tuple[Callable, ...]]:
    """The number of orders of ``_linear_extensions(preds)``; the
    incomparable pairs ``(i, j)``, ``i < j``: the indices that no chain of
    predecessor masks puts one before the other; per order, its edges; and
    one reader per order that reads letters in box order along it.

    For the masks of a filling (``_filling_preds``), the count is also the
    number of its arrow-respecting reading words.  Two boxes with equal
    letters are never incomparable.  A box weakly southwest of another is
    read before it, so take ``(r1, c1)`` and ``(r2, c2)`` with ``r1 < r2``
    and ``c1 < c2``, and the letter ``a`` in both.  In a restricted
    shape ``(r2, c1)`` is then a box.  Its column forces ``T(r2, c1) > a``
    for unbarred ``a`` and ``>= a`` for barred ``a``, and then row ``r2``
    forces ``T(r2, c2) > a``, a contradiction.  So the boxes of each letter
    form a chain, which every order reads in the same sequence: the k-th
    ``a`` of a word is read from the k-th box of ``a``'s chain, the word
    gives back its order, and distinct readers read distinct words.

    The pairs are the swaps that join the orders: any two linear extensions
    are joined by swaps of adjacent incomparable indices.  An order's edges
    are those swaps, each as ``(other, i, j, before, after)``: the index of
    the order it gives, the indices at positions p and p + 1, and those at
    p - 1 and p + 2, or None past either end.  Swapping two distinct letters
    keeps every letter's chain in sequence, so an edge changes the word
    read by swapping its two adjacent letters, and every such swap of one
    word into another of the list is an edge.
    """
    orders = _linear_extensions(preds)
    n = len(preds)
    # below[i]: the indices read before i in every order; an order reads
    # each index after its predecessors, whose sets are then complete
    below = list(preds)
    for i in orders[0]:
        for j in range(n):
            if preds[i] >> j & 1:
                below[i] |= below[j]
    pairs = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if not below[i] >> j & 1 and not below[j] >> i & 1
    )
    index = {seq: k for k, seq in enumerate(orders)}
    edges = tuple(
        tuple(
            (
                index[seq[:p] + (j, i) + seq[p + 2 :]],
                i,
                j,
                seq[p - 1] if p else None,
                seq[p + 2] if p + 2 < n else None,
            )
            for p, (i, j) in enumerate(zip(seq, seq[1:]))
            if not below[j] >> i & 1
        )
        for seq in orders
    )
    return len(orders), pairs, edges, tuple(map(_getter, orders))


def _linear_extensions(preds: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every order of the indices 0..n-1 in which each index comes after its
    predecessor mask (bit i for index i), in lexicographic order.

    One depth-first search with an explicit stack: the indices read so far
    are a bitmask.  ``_order_facts`` calls it once per mask tuple.
    """
    # reversed, so that the stack pops the smallest index first
    steps = [(1 << i, preds[i], i) for i in reversed(range(len(preds)))]
    full = (1 << len(preds)) - 1
    out = []
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        read, seq = stack.pop()
        if read == full:
            out.append(seq)
            continue
        for b, need, i in steps:
            if not read & b and need & read == need:
                stack.append((read | b, seq + (i,)))
    return tuple(out)


def arrow_respecting_words(tab: ColoredTableau) -> list[ColoredWord]:
    """The words read off the tableau in the orders its box poset and arrows
    allow, sorted and distinct: equal letters form a chain of the poset, so
    distinct orders read distinct words (see ``_order_facts``)."""
    layout, letters = _layout_and_letters(tab)
    readers = _order_facts(_filling_preds(letters, layout))[3]
    return sorted(read(letters) for read in readers)


def some_arrow_respecting_word(tab: ColoredTableau) -> ColoredWord:
    """Deterministic arrow-respecting reading word, built by repeatedly
    removing the southeast-most nontail removable box."""
    if not tab.boxes:
        return ()
    candidates = nontail_removable(tab)
    if not candidates:
        raise MalformedInputError("tableau has no nontail removable box")
    box = max(candidates)
    rest = {b: x for b, x in tab.entries.items() if b != box}
    return some_arrow_respecting_word(ColoredTableau(rest, tab.order)) + (tab[box],)


# ---------------------------------------------------------------------------
# conversion between shuffle orders

from .alphabet_words import covering_swap_path  # noqa: E402  (cycle-free; keeps imports grouped by topic)


def _ribbon_components(boxes: set[Box]) -> list[set[Box]]:
    remaining = set(boxes)
    components = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            r, c = frontier.pop()
            for nbr in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nbr in remaining:
                    remaining.remove(nbr)
                    component.add(nbr)
                    frontier.append(nbr)
        components.append(component)
    return components


def _unique_refill(component: set[Box], entries: dict[Box, Letter], b: Letter, abar: Letter, target: ShuffleOrder) -> None:
    """Refill one component, in place, with the same number of b's, so that
    its rows and columns are compatible with the target order.

    Raises ``MalformedInputError`` when no refill exists and
    ``ConstructionFailureError`` when more than one does; on a valid tableau
    the refill exists and is unique.
    """
    boxes = sorted(component)
    want_b = sum(1 for box in boxes if entries[box] == b)
    assignment: dict[Box, Letter] = {}
    solutions: list[dict[Box, Letter]] = []

    def fill(i: int, used_b: int) -> None:
        if want_b - used_b > len(boxes) - i:
            return
        if i == len(boxes):
            if used_b == want_b:
                solutions.append(dict(assignment))
            return
        r, c = boxes[i]
        west = assignment.get((r, c - 1))
        north = assignment.get((r - 1, c))
        for x in (b, abar):
            if x == b and used_b == want_b:
                continue
            if west is not None and not target.lerow(west, x):
                continue
            if north is not None and not target.lecol(north, x):
                continue
            assignment[(r, c)] = x
            fill(i + 1, used_b + (x == b))
            del assignment[(r, c)]

    fill(0, 0)
    if not solutions:
        raise MalformedInputError(f"the ribbon {boxes} has no refill for the target order")
    if len(solutions) > 1:
        raise ConstructionFailureError(f"the ribbon {boxes} has {len(solutions)} refills for the target order")
    entries.update(solutions[0])


def convert_step(tab: ColoredTableau, target: ShuffleOrder, b: Letter, abar: Letter) -> ColoredTableau:
    """Convert across one covering swap of b and a-bar, in either direction.

    The boxes holding b or a-bar form ribbons.  Each connected ribbon keeps
    its number of b's and is refilled in the one way its rows and columns
    allow in the target order (see ``_unique_refill``).  In the defining
    direction (b just below a-bar becomes a-bar just below b) this is
    Haiman's shift rule: when the northeast end holds b, every b drops to the
    bottom of its column, and otherwise every b moves one step right in its
    row.
    """
    entries = dict(tab.entries)
    ribbon = {box for box, x in entries.items() if x == b or x == abar}
    for component in _ribbon_components(ribbon):
        _unique_refill(component, entries, b, abar, target)
    return ColoredTableau(entries, target)


def convert(tab: ColoredTableau, frm: ShuffleOrder, to: ShuffleOrder) -> ColoredTableau:
    """Haiman's ribbon-refilling bijection between colored tableaux for two
    orders: one ``convert_step`` per swap of ``covering_swap_path``.

    The input is checked once, before the first step: a filling that is not
    a tableau for ``frm`` raises ``MalformedInputError``, even where its
    ribbons would refill.  The steps map tableaux to tableaux.
    """
    if frm.N != to.N:
        raise InvalidParameterError("orders are over different alphabets")
    if tab.order != frm:
        raise InvalidParameterError("tableau does not carry the source order")
    if not validate_tableau(tab):
        raise MalformedInputError(f"not a tableau in the source order: {' / '.join(tab.to_text().splitlines())}")
    result = tab
    for _, nxt, b, abar in covering_swap_path(frm, to):
        result = convert_step(result, nxt, b, abar)
    return result
