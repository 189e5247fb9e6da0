import random
import re
from collections import Counter
from itertools import combinations, product
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from golden_data import (
    CYW32_COLUMNS,
    RCT18_ARROW_RESPECTING,
    RCT18_NE_MAXIMAL,
    RCT18_NONTAIL,
    RCT18_NOT_ARROW_RESPECTING,
    RCT18_ROWS,
    RCT18_SQREAD,
    RIBBON_CONVERTED_ROWS,
    RIBBON_START_ROWS,
    RIBBON_TARGET_ORDER,
    T544_CREADING,
    T544_ROWS,
    T544_SQREAD,
)
from suprschur.alphabet_words import (
    Letter,
    ShuffleOrder,
    barred,
    big_bar_order,
    covering_swap_path,
    enumerate_cyw,
    letter_from_code,
    natural_order,
    parse_word,
    unbarred,
)
from suprschur.errors import ConstructionFailureError, InvalidParameterError, MalformedInputError
from suprschur.tableaux import (
    Arrow,
    ColoredTableau,
    RestrictedShape,
    _box_layout,
    _column_reader,
    _filling_arrows,
    _FillingWalk,
    _Layout,
    _ribbon_components,
    _sqread_reader,
    _unique_refill,
    arrow_respecting_words,
    arrows,
    check_partition,
    column_reading,
    conjugate,
    convert,
    convert_step,
    enumerate_fillings,
    enumerate_tableaux,
    insert,
    is_arrow_respecting,
    is_partition,
    ne_maximal_boxes,
    nontail_removable,
    partitions_of,
    restricted_shapes_in_box,
    some_arrow_respecting_word,
    sqread,
    tableaux_with_sqread_in,
    validate_tableau,
)
from suprschur.lascoux import (
    inverse_rsk,
    ordinary_insertion_tableau,
    ordinary_rsk,
    standard_tableaux,
    superstandard,
)
from suprschur.verify import conversion_bijection_holds

from helpers import column_reading_per_tableau, sqread_per_tableau

w = parse_word


def test_partition_helpers():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()
    assert len(partitions_of(6)) == 11
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def _is_partition_reference(parts):
    """The two generator-fed ``all`` calls the check used to make."""
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(a > 0 for a in parts)


def test_is_partition_matches_reference():
    checked = 0
    for length in range(6):
        for parts in product(range(-1, 5), repeat=length):
            assert is_partition(parts) == _is_partition_reference(parts), parts
            assert is_partition(list(parts)) == _is_partition_reference(parts), parts
            if _is_partition_reference(parts):
                assert check_partition(parts) == parts
            else:
                with pytest.raises(InvalidParameterError, match=re.escape(f"{parts} is not a partition")):
                    check_partition(parts)
            checked += 1
    assert checked == sum(6**length for length in range(6))


def test_restricted_shape_validation():
    shape = RestrictedShape.from_column_pair((6, 5, 5, 4, 4, 4, 2, 2, 1), (0, 1, 2, 2, 2, 3, 2, 2, 1))
    row_lengths = {}
    for r, c in shape.boxes:
        row_lengths[r] = max(row_lengths.get(r, 0), c)
    assert [row_lengths[r] for r in sorted(row_lengths)] == [1, 2, 5, 6, 3, 1]
    # equality is by box set, whatever pair presents it
    again = RestrictedShape(shape.boxes)
    assert shape == again and list(shape.column_intervals) == list(again.column_intervals)
    with pytest.raises(MalformedInputError):
        RestrictedShape({(1, 2)})  # occupied columns must start at 1
    with pytest.raises(MalformedInputError):
        RestrictedShape({(1, 1), (3, 1)})  # column gap
    with pytest.raises(MalformedInputError):
        RestrictedShape({(2, 1), (1, 2)})  # tops must increase


def test_restricted_shapes_in_box_counts():
    shapes = restricted_shapes_in_box(2, 2)
    assert len(shapes) == 8  # 3 single columns plus 5 nested two-column pairs
    assert all(len(s) <= 4 for s in shapes)
    small = restricted_shapes_in_box(3, 3, max_boxes=2)
    assert all(len(s) <= 2 for s in small)


def test_validate_examples():
    nat6 = natural_order(6)
    assert validate_tableau(ColoredTableau.parse(T544_ROWS, nat6))
    assert validate_tableau(ColoredTableau.from_rows([[barred(2)]], natural_order(2)))
    assert not validate_tableau(ColoredTableau.parse("1' 1'", natural_order(1)))
    with pytest.raises(MalformedInputError):
        ColoredTableau({(1, 1): unbarred(1)}, natural_order(1), RestrictedShape({(1, 1), (1, 2)}))


def test_sqread_examples():
    nat6 = natural_order(6)
    assert sqread(ColoredTableau.parse(T544_ROWS, nat6)) == w(T544_SQREAD)
    rct = ColoredTableau.parse(RCT18_ROWS, natural_order(5))
    assert validate_tableau(rct)
    assert sqread(rct) == w(RCT18_SQREAD)
    assert sqread(ColoredTableau.from_rows([[barred(3)]], nat6)) == w("3'")


def test_column_reading_examples():
    nat6 = natural_order(6)
    assert column_reading(ColoredTableau.parse(T544_ROWS, nat6)) == w(T544_CREADING)
    assert column_reading(ColoredTableau.parse("1 / 2", natural_order(2))) == w("2 1")
    assert column_reading(ColoredTableau({}, natural_order(1))) == ()


def test_insert_examples():
    nat = natural_order(2)
    tab = insert(w("2 1 1 1' 2'"), nat)
    assert tab == ColoredTableau.parse("1 1 1' 2' / 2", nat)
    assert insert(w("2'"), nat) == ColoredTableau.from_rows([[barred(2)]], nat)


def _shuffle_orders(N):
    """Every shuffle order on N letters: choose the ranks of 1..N."""
    for positions in combinations(range(2 * N), N):
        letters = [None] * (2 * N)
        for value, pos in enumerate(positions, start=1):
            letters[pos] = unbarred(value)
        barred_letters = iter(barred(value) for value in range(1, N + 1))
        yield ShuffleOrder(tuple(x if x is not None else next(barred_letters) for x in letters))


@pytest.mark.parametrize("N", [2, 3])
def test_readers_match_the_per_tableau_rules(N):
    # on every filling of every restricted shape of at most 6 boxes, the
    # empty and one-box shapes among them, in both orders: the readers of
    # the box set, given the letters in box order, read the words the
    # per-tableau rules read, and so do sqread and column_reading
    counts = []
    for order in (natural_order(N), big_bar_order(N)):
        walk = _FillingWalk(order, order.max_letter())
        count = 0
        for boxes in [frozenset()] + [shape.boxes for shape in restricted_shapes_in_box(6, 6, max_boxes=6)]:
            ordered = sorted(boxes)
            diagonal, column = _sqread_reader(boxes), _column_reader(boxes)
            for letters in walk.letters(ordered):
                tab = ColoredTableau(dict(zip(ordered, letters)), order)
                assert diagonal(letters) == sqread(tab) == sqread_per_tableau(tab), (tab, order)
                assert column(letters) == column_reading(tab) == column_reading_per_tableau(tab), (tab, order)
                count += 1
        counts.append(count)
    assert counts == {2: [4877, 4327], 3: [43931, 38793]}[N]
    one = unbarred(1)
    assert _sqread_reader(frozenset({(1, 1)}))((one,)) == _column_reader(frozenset({(1, 1)}))([one]) == (one,)
    assert _sqread_reader(frozenset())(()) == _column_reader(frozenset())(()) == ()


def test_insert_sqread_fixed_point_on_tableaux():
    # reading a tableau diagonally and inserting the word recovers the tableau,
    # in every shuffle order; tableaux_with_sqread_in rests on this
    count = 0
    for N, max_boxes in ((2, 6), (3, 4)):
        orders = list(_shuffle_orders(N))
        assert len(orders) == len(set(orders)) == len(list(combinations(range(2 * N), N)))
        for order in orders:
            top = order.max_letter()
            for n in range(1, max_boxes + 1):
                for nu in partitions_of(n):
                    for tab in enumerate_tableaux(nu, order, top):
                        count += 1
                        assert insert(sqread(tab), order) == tab
    assert count == 5496 + 14800


def _insert_reference(word, order):
    rows = []
    for x in word:
        r = 0
        while True:
            if r == len(rows):
                rows.append([x])
                break
            row = rows[r]
            bump = None
            for i, y in enumerate(row):
                if order.rank(y) > order.rank(x) or (y == x and x.barred):
                    bump = i
                    break
            if bump is None:
                row.append(x)
                break
            row[bump], x = x, row[bump]
            r += 1
    return ColoredTableau.from_rows(rows, order)


def _sqread_reference(tab):
    diagonals = {}
    for box in tab.boxes:
        diagonals.setdefault(box[0] - box[1], []).append(box)
    out = []
    for d in sorted(diagonals, reverse=True):
        boxes = sorted(diagonals[d], reverse=True)
        out.extend(tab[b] for b in boxes if not tab[b].barred)
        out.extend(tab[b] for b in reversed(boxes) if tab[b].barred)
    return tuple(out)


def test_insert_and_sqread_match_reference_on_yamanouchi_words():
    count = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            N = len(lam)
            for d in range(n + 1):
                for word in enumerate_cyw(lam, d):
                    count += 1
                    for order in (natural_order(N), big_bar_order(N)):
                        tab = insert(word, order)
                        assert tab == _insert_reference(word, order)
                        assert sqread(tab) == _sqread_reference(tab)
    assert count == 5898


def _tableaux_with_sqread_in_reference(words, order):
    """Every tableau of every shape with entries up to the largest letter,
    kept when its reading word is in the set."""
    pool = set(words)
    lengths = {len(w) for w in pool}
    if len(lengths) != 1:
        raise InvalidParameterError("words must be nonempty and of one length")
    degree = lengths.pop()
    top = max((x for w in pool for x in w), key=order.rank)
    out = {}
    for nu in partitions_of(degree):
        found = {tab for tab in enumerate_tableaux(nu, order, top) if sqread(tab) in pool}
        if found:
            out[nu] = found
    return out


def test_tableaux_with_sqread_in_matches_reference():
    cases = []
    for n in range(1, 6):
        for lam in partitions_of(n):
            for d in range(n + 1):
                words = enumerate_cyw(lam, d)
                cases.extend((words, order) for order in (natural_order(len(lam)), big_bar_order(len(lam))))
    assert len(cases) == 174
    column_sets = [
        [w(word) for word in CYW32_COLUMNS[0]],
        [w(word) for col in CYW32_COLUMNS[1:3] for word in col],
        [w(word) for col in CYW32_COLUMNS[3:5] for word in col],
    ]
    cases.extend((words, order) for words in column_sets for order in (natural_order(2), big_bar_order(2)))
    for words, order in cases:
        found = tableaux_with_sqread_in(words, order)
        assert found == _tableaux_with_sqread_in_reference(words, order)
        assert all(tab.order == order and validate_tableau(tab) for tabs in found.values() for tab in tabs)


def test_tableaux_with_sqread_in_edge_cases():
    nat = natural_order(2)
    assert tableaux_with_sqread_in([], nat) == {}
    assert conversion_bijection_holds([])  # vacuously, like the empty lookup
    with pytest.raises(InvalidParameterError):
        tableaux_with_sqread_in([w("1 2"), w("1")], nat)
    # 2 1 1 reads the tableau 1 1 / 2 and 1 1 2 the row 1 1 2;
    # 1 2 1 inserts to 1 1 / 2 but is not its reading word
    assert tableaux_with_sqread_in([w("2 1 1"), w("1 1 2"), w("1 2 1")], nat) == {
        (3,): {ColoredTableau.parse("1 1 2", nat)},
        (2, 1): {ColoredTableau.parse("1 1 / 2", nat)},
    }


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
def test_insert_always_yields_valid_tableau(codes):
    word = tuple(letter_from_code(c) for c in codes)
    for order in (natural_order(3), big_bar_order(3)):
        tab = insert(word, order)
        assert validate_tableau(tab)
        assert tab == _insert_reference(word, order)
        assert sqread(tab) == _sqread_reference(tab)


def test_enumerate_tableaux_examples():
    nat1 = natural_order(1)
    tabs = enumerate_tableaux((2,), nat1, barred(1))
    assert {t.to_text() for t in tabs} == {"1 1", "1 1'"}
    assert len(enumerate_tableaux((1,), natural_order(3), barred(3))) == 6


def test_arrows_examples():
    rct = ColoredTableau.parse(RCT18_ROWS, natural_order(5))
    assert ne_maximal_boxes(rct) == RCT18_NE_MAXIMAL
    assert nontail_removable(rct) == RCT18_NONTAIL
    flat = ColoredTableau.parse("2 2 / 2 2", natural_order(2))
    assert arrows(flat) == frozenset()
    square = ColoredTableau.parse("1 1' / 1' 2", natural_order(2))
    assert arrows(square) == frozenset({Arrow(tail=(2, 2), head=(1, 1), direction="NW")})


def test_arrow_respecting_examples():
    rct = ColoredTableau.parse(RCT18_ROWS, natural_order(5))
    assert is_arrow_respecting(rct, w(RCT18_SQREAD))
    assert is_arrow_respecting(rct, w(RCT18_ARROW_RESPECTING))
    assert not is_arrow_respecting(rct, w(RCT18_NOT_ARROW_RESPECTING))
    single = ColoredTableau.from_rows([[unbarred(1)]], natural_order(1))
    assert is_arrow_respecting(single, w("1"))
    with pytest.raises(InvalidParameterError):
        is_arrow_respecting(single, w("1'"))


def test_sqread_is_arrow_respecting_on_partition_shapes():
    for N, max_size in ((3, 5), (2, 6)):
        order = natural_order(N)
        top = barred(N)
        for n in range(1, max_size + 1):
            for nu in partitions_of(n):
                for tab in enumerate_tableaux(nu, order, top):
                    assert is_arrow_respecting(tab, sqread(tab))


def test_some_arrow_respecting_word():
    order = natural_order(2)
    for shape in restricted_shapes_in_box(3, 3, max_boxes=5):
        for tab in enumerate_fillings(shape, order, barred(2)):
            word = some_arrow_respecting_word(tab)
            assert is_arrow_respecting(tab, word)
            assert word in arrow_respecting_words(tab)


def _reading_predecessors_reference(tab):
    """For each box, the set of boxes read before it: the boxes southwest of
    it and the tails of the arrows into it."""
    preds = {box: set() for box in tab.boxes}
    for b1 in tab.boxes:
        for b2 in tab.boxes:
            if b1 != b2 and b1[0] >= b2[0] and b1[1] <= b2[1]:
                preds[b2].add(b1)  # b1 is southwest of b2, so it is read first
    for arrow in _arrows_reference(tab):
        preds[arrow.head].add(arrow.tail)
    return preds


def _arrow_respecting_extensions_reference(tab):
    """The recursive search the library used before its bitmask one."""
    preds = _reading_predecessors_reference(tab)
    boxes = sorted(tab.boxes)
    read = []
    read_set = set()

    def extend():
        if len(read) == len(boxes):
            yield tuple(read)
            return
        for box in boxes:
            if box not in read_set and preds[box] <= read_set:
                read.append(box)
                read_set.add(box)
                yield from extend()
                read.pop()
                read_set.remove(box)

    yield from extend()


def test_arrow_respecting_orders_match_reference():
    order = natural_order(3)
    count = 0
    for shape in restricted_shapes_in_box(5, 5, max_boxes=5):
        for tab in enumerate_fillings(shape, order, barred(3)):
            count += 1
            expected = _arrow_respecting_extensions_reference(tab)
            assert arrow_respecting_words(tab) == sorted({tuple(tab[b] for b in seq) for seq in expected})
    assert count == 11438
    assert arrow_respecting_words(ColoredTableau({}, order)) == [()]


def _arrows_reference(tab):
    """The all-pairs loop the library used before it cached, per box set,
    the pairs that can carry an arrow."""

    def meets_hook_only(boxes, r1, c1, r2, c2):
        return not any((r, c) in boxes for r in range(r1, r2) for c in range(c1 + 1, c2 + 1))

    out = []
    boxes = tab.boxes
    for r1, c1 in boxes:
        x = tab[(r1, c1)]
        for r2, c2 in boxes:
            if r2 <= r1 or c2 <= c1:
                continue
            y = tab[(r2, c2)]
            if y.barred != x.barred or y.value != x.value + 1:
                continue
            two_by_two = r2 == r1 + 1 and c2 == c1 + 1
            if not x.barred:
                if two_by_two or (r2 - r1 >= 2 and meets_hook_only(boxes, r1, c1, r2, c2)):
                    out.append(Arrow(tail=(r2, c2), head=(r1, c1), direction="NW"))
            else:
                if two_by_two or (c2 - c1 >= 2 and meets_hook_only(boxes, r1, c1, r2, c2)):
                    out.append(Arrow(tail=(r1, c1), head=(r2, c2), direction="SE"))
    return frozenset(out)


def _ne_maximal_boxes_reference(tab):
    """Every pair of boxes compared: the boxes with no other box weakly north
    and weakly east of them."""
    return sorted(
        (r, c)
        for r, c in tab.boxes
        if not any(r2 <= r and c2 >= c and (r2, c2) != (r, c) for r2, c2 in tab.boxes)
    )


def _is_arrow_respecting_reference(tab, word):
    """The backtracking search over box sets the library used before its
    search over bitmasks."""
    preds = _reading_predecessors_reference(tab)
    read = set()

    def place(i):
        if i == len(word):
            return True
        for box in tab.boxes:
            if box not in read and tab[box] == word[i] and preds[box] <= read:
                read.add(box)
                if place(i + 1):
                    return True
                read.remove(box)
        return False

    return place(0)


def _enumerate_fillings_reference(shape, order, max_letter):
    """The fill that called the order methods for every candidate letter."""
    boxes = sorted(shape.boxes)
    letters = [x for x in order.letters if order.rank(x) <= order.rank(max_letter)]
    entries = {}

    def fill(i):
        if i == len(boxes):
            yield ColoredTableau(entries, order, shape)
            return
        r, c = boxes[i]
        west = entries.get((r, c - 1))
        north = entries.get((r - 1, c))
        for x in letters:
            if west is not None and not order.lerow(west, x):
                continue
            if north is not None and not order.lecol(north, x):
                continue
            entries[(r, c)] = x
            yield from fill(i + 1)
        entries.pop((r, c), None)

    yield from fill(0)


def test_arrows_and_fillings_match_reference():
    # the arrow functions read the predecessor masks; the references compare
    # boxes pairwise and search over box sets
    order = natural_order(3)
    count = arrowed = rejected = 0
    for shape in restricted_shapes_in_box(5, 5, max_boxes=5):
        fillings = list(enumerate_fillings(shape, order, barred(3)))
        assert fillings == list(_enumerate_fillings_reference(shape, order, barred(3)))
        for tab in fillings:
            count += 1
            expected = _arrows_reference(tab)
            assert arrows(tab) == expected
            arrowed += bool(expected)
            ne_maximal = _ne_maximal_boxes_reference(tab)
            assert ne_maximal_boxes(tab) == ne_maximal
            tails = {arrow.tail for arrow in expected}
            assert nontail_removable(tab) == [box for box in ne_maximal if box not in tails]
            words = arrow_respecting_words(tab)
            for word in words + [tuple(sorted(tab.entries.values())), words[0][::-1]]:
                respecting = _is_arrow_respecting_reference(tab, word)
                assert is_arrow_respecting(tab, word) == respecting
                rejected += not respecting
    assert count == 11438 and arrowed > 1000 and rejected > 1000
    empty = ColoredTableau({}, order)
    assert list(enumerate_fillings(RestrictedShape(()), order, barred(3))) == [empty]
    assert arrows(empty) == frozenset()
    assert ne_maximal_boxes(empty) == nontail_removable(empty) == []
    assert is_arrow_respecting(empty, ())


def test_is_arrow_respecting_on_a_grid_with_many_orders():
    # entries r + c - 1 on a 5x5 grid carry no arrows, so every linear
    # extension of the southwest order reads a word: far too many to list
    grid = ColoredTableau({(r, c): unbarred(r + c - 1) for r in range(1, 6) for c in range(1, 6)}, natural_order(9))
    assert validate_tableau(grid) and not arrows(grid)
    word = sqread(grid)
    assert is_arrow_respecting(grid, word)
    # the 4 west of the northeast corner must come before the corner's 5
    assert word[-2:] == w("4 5")
    assert not is_arrow_respecting(grid, word[:-2] + w("5 4"))
    # 1 sits in the northwest corner, after every box below it
    assert not is_arrow_respecting(grid, tuple(sorted(word)))


def with_arrows(self, layout: _Layout) -> Iterator[tuple[tuple[Letter, ...], int]]:
    """The fillings of ``letters(layout[0])``, in the same order, each
    with its arrows as one int: the kind of arrow (``_arrow``) that the
    c-th candidate pair of the layout carries, at bits 2c and 2c + 1.

    The arrows are added one box at a time: a candidate's southeast box
    comes after its northwest box, so its arrow is decided when the
    southeast box is filled.
    """
    ordered, _, candidates = layout
    if not ordered:
        yield (), 0
        return
    alphabet, east_of, south_of, both = self.alphabet, self.east_of, self.south_of, self.both
    # per box, the candidates it ends: (the northwest box, {letter there:
    # (the letter here that makes an arrow, its bits)})
    ends: list[list[tuple[int, dict[Letter, tuple[Letter, int]]]]] = [[] for _ in ordered]
    for c, (i, j, nw, se) in enumerate(candidates):
        ends[j].append((i, {x: (y, kind << 2 * c) for x, (y, kind) in self.heads[nw, se].items()}))
    neighbours = self._neighbours(ordered)
    last = len(ordered) - 1
    stack: list[tuple[tuple[Letter, ...], int]] = [((), 0)]
    while stack:
        prefix, arrows = stack.pop()
        i = len(prefix)
        # the choices of ``letters``, inline: a call per prefix would
        # cost a quarter of the walk
        west, north = neighbours[i]
        if west is None:
            choices = alphabet if north is None else south_of[prefix[north]]
        elif north is None:
            choices = east_of[prefix[west]]
        else:
            choices = both[prefix[west], prefix[north]]
        hits: dict[Letter, int] = {}  # a letter here -> the arrows it makes
        for corner, heads in ends[i]:
            hit = heads.get(prefix[corner])
            if hit is not None:
                y, bits = hit
                hits[y] = hits.get(y, 0) | bits
        if i == last:
            for x in choices:
                yield prefix + (x,), arrows | hits.get(x, 0)
        else:
            stack.extend([(prefix + (x,), arrows | hits.get(x, 0)) for x in reversed(choices)])


@pytest.mark.parametrize("max_boxes, N", [(6, 2), (6, 3)])
def test_walk_by_arrows_matches_the_per_shape_walk(max_boxes, N):
    # the trie walk gives every shape that has a filling once, and on each
    # the multiset of (letters, arrows) of the walk of that shape alone;
    # both number the candidates as the layout does, by southeast box, as
    # _filling_arrows does too
    walk = _FillingWalk(natural_order(N), barred(N))
    shapes = restricted_shapes_in_box(max_boxes, max_boxes, max_boxes=max_boxes)
    seen = []
    count = 0
    for layout, groups in walk.by_arrows(max_boxes):
        seen.append(layout)
        assert all(groups.values()), layout
        walked = Counter((letters, arrows) for arrows, group in groups.items() for letters in group)
        count += walked.total()
        reference = Counter(with_arrows(walk, layout))
        assert walked == reference, layout[0]
        assert all(_filling_arrows(letters, layout) == arrows for letters, arrows in walked), layout[0]
        assert [j for _, j, _, _ in layout[2]] == sorted(j for _, j, _, _ in layout[2])
    assert len(set(seen)) == len(seen)
    unfilled = {_box_layout(shape.boxes) for shape in shapes} - set(seen)
    assert all(not list(with_arrows(walk, layout)) for layout in unfilled)
    assert len(unfilled) == {2: 4, 3: 0}[N]
    assert count == {2: 4876, 3: 43930}[N]
    assert list(walk.by_arrows(0)) == []


@pytest.mark.parametrize("N", [2, 3])
def test_letter_fillings_match_reference(N):
    # the letter tuples, read in lexicographic box order, are the reference
    # fillings' letters in the same order, in both orders; one walk serves
    # every shape, and the walk with arrows gives the same letters
    counts = []
    for order in (natural_order(N), big_bar_order(N)):
        top = order.letters[-1]
        walk = _FillingWalk(order, top)
        count = 0
        for shape in restricted_shapes_in_box(5, 5, max_boxes=5):
            layout = _box_layout(shape.boxes)
            ordered = layout[0]
            reference = [tuple(tab[b] for b in ordered) for tab in _enumerate_fillings_reference(shape, order, top)]
            assert list(walk.letters(ordered)) == reference, shape
            assert [letters for letters, _ in with_arrows(walk, layout)] == reference, shape
            count += len(reference)
        counts.append(count)
    assert counts == {2: [1824, 1662], 3: [11438, 10416]}[N]
    walk = _FillingWalk(natural_order(N), barred(N))
    assert list(walk.letters(())) == [()]
    assert list(with_arrows(walk, _box_layout(frozenset()))) == [((), 0)]


def test_convert_examples():
    frm = ShuffleOrder(w("1 2 1' 2'"))
    to = ShuffleOrder(w("1 1' 2 2'"))
    tab = ColoredTableau.parse("2 2 / 1'", frm)
    assert convert(tab, frm, to) == ColoredTableau.parse("1' 2 / 2", to)
    plain = ColoredTableau.parse("1 1 / 2", frm)
    assert convert(plain, frm, to).entries == plain.entries
    with pytest.raises(InvalidParameterError):
        convert(tab, frm, natural_order(3))


def test_convert_ribbon_figure():
    frm = natural_order(4)
    to = ShuffleOrder(w(RIBBON_TARGET_ORDER))
    tab = ColoredTableau.parse(RIBBON_START_ROWS, frm)
    assert validate_tableau(tab)
    out = convert(tab, frm, to)
    assert out == ColoredTableau.parse(RIBBON_CONVERTED_ROWS, to)
    assert validate_tableau(out)


def test_convert_is_path_independent_and_bijective():
    rng = random.Random(11)
    nat, bb = natural_order(2), big_bar_order(2)

    def random_path_convert(tab, frm, to):
        cur, order = tab, frm
        while order != to:
            seq = list(order.letters)
            inversions = [i for i in range(len(seq) - 1) if to.rank(seq[i]) > to.rank(seq[i + 1])]
            i = rng.choice(inversions)
            lo, hi = seq[i], seq[i + 1]
            seq[i], seq[i + 1] = hi, lo
            nxt = ShuffleOrder(tuple(seq))
            b, abar = (lo, hi) if not lo.barred else (hi, lo)
            cur = convert_step(cur, nxt, b, abar)
            order = nxt
        return cur

    for n in range(1, 5):
        for nu in partitions_of(n):
            prec_tabs = enumerate_tableaux(nu, bb, barred(2))
            images = {convert(t, bb, nat) for t in prec_tabs}
            assert images == set(enumerate_tableaux(nu, nat, barred(2)))
            for t in prec_tabs:
                forward = convert(t, bb, nat)
                assert random_path_convert(t, bb, nat) == forward
                assert convert(forward, nat, bb) == t


def _refill_component_reference(component, entries, b, abar):
    """Haiman's shift rule, which the library used for the defining direction
    of a swap (b just below a-bar becomes a-bar just below b), in place.

    If the northeast end holds the unbarred letter, every copy of it drops to
    the bottom of its column; otherwise every copy moves one step right in
    its row.
    """
    degree = {
        box: sum(1 for nbr in ((box[0] - 1, box[1]), (box[0] + 1, box[1]), (box[0], box[1] - 1), (box[0], box[1] + 1)) if nbr in component)
        for box in component
    }
    assert all(deg <= 2 for deg in degree.values()), "letters adjacent in the order must fill a ribbon"
    ends = [box for box, deg in degree.items() if deg <= 1]
    ne_corner = min(ends, key=lambda box: (box[0], -box[1]))
    if entries[ne_corner] == b:
        columns = {}
        for box in component:
            columns.setdefault(box[1], []).append(box)
        for boxes in columns.values():
            boxes.sort()
            has_b = any(entries[box] == b for box in boxes)
            for box in boxes:
                entries[box] = abar
            if has_b:
                entries[boxes[-1]] = b
    else:
        rows = {}
        for box in component:
            rows.setdefault(box[0], []).append(box)
        for boxes in rows.values():
            boxes.sort()
            count = sum(1 for box in boxes if entries[box] == b)
            if count:
                assert entries[boxes[-1]] == abar, "row being shifted must end with the barred letter"
                entries[boxes[0]] = abar
                for box in boxes[1:]:
                    entries[box] = b


def test_convert_step_matches_shift_rule_on_every_forward_swap():
    # every covering swap of b just below a-bar, in every shuffle order, on
    # every tableau of partition shape: the unique refill is the shift rule
    steps = components = 0
    for N, max_size in ((2, 6), (3, 5)):
        for order in _shuffle_orders(N):
            seq = list(order.letters)
            for i in range(len(seq) - 1):
                b, abar = seq[i], seq[i + 1]
                if b.barred or not abar.barred:
                    continue
                seq[i], seq[i + 1] = abar, b
                target = ShuffleOrder(tuple(seq))
                seq[i], seq[i + 1] = b, abar
                for n in range(1, max_size + 1):
                    for nu in partitions_of(n):
                        for tab in enumerate_tableaux(nu, order, order.max_letter()):
                            steps += 1
                            entries = dict(tab.entries)
                            for component in _ribbon_components({box for box, x in entries.items() if x in (b, abar)}):
                                components += 1
                                _refill_component_reference(component, entries, b, abar)
                            assert convert_step(tab, target, b, abar) == ColoredTableau(entries, target)
    assert (steps, components) == (80436, 82048)


def test_convert_refuses_a_ribbon_without_one_refill():
    # 1' 1' is no tableau (barred letters strictly increase along rows):
    # convert refuses it at entry, and its ribbon has no refill in either
    # direction, which convert_step, checking no input, reports
    nat, bb = natural_order(2), big_bar_order(2)
    for frm, to in ((nat, bb), (bb, nat)):
        tab = ColoredTableau.parse("1' 1'", frm)
        with pytest.raises(MalformedInputError, match="not a tableau"):
            convert(tab, frm, to)
        ((_, nxt, b, abar),) = covering_swap_path(frm, to)
        with pytest.raises(MalformedInputError, match="no refill"):
            convert_step(tab, nxt, b, abar)
    # two boxes that do not touch, one b between them, refill either way;
    # convert_step only passes connected ribbons, so it never sees this
    b, abar = unbarred(1), barred(1)
    apart = {(1, 1): b, (3, 3): abar}
    with pytest.raises(ConstructionFailureError, match="2 refills"):
        _unique_refill(set(apart), dict(apart), b, abar, ShuffleOrder(w("1' 1 2 2'")))


def test_convert_refuses_a_non_tableau(monkeypatch):
    # the row 2 1 and the column 1 / 1 are no tableaux in the natural order,
    # though their ribbons refill: convert used to return them unchanged
    nat, bb = natural_order(2), big_bar_order(2)
    for text in ("2 1", "1 / 1"):
        tab = ColoredTableau.parse(text, nat)
        assert not validate_tableau(tab)
        with pytest.raises(MalformedInputError, match=f"not a tableau in the source order: {text}$"):
            convert(tab, nat, bb)
        entries = dict(tab.entries)
        for _, nxt, b, abar in covering_swap_path(nat, bb):
            tab = convert_step(tab, nxt, b, abar)
        assert tab.entries == entries
    # a tableau is checked once per call, whatever the number of steps
    from suprschur import tableaux

    calls = []

    def counting(tab):
        calls.append(tab)
        return validate_tableau(tab)

    monkeypatch.setattr(tableaux, "validate_tableau", counting)
    nat3, bb3 = natural_order(3), big_bar_order(3)
    out = convert(ColoredTableau.parse("1 2' / 2'", nat3), nat3, bb3)
    monkeypatch.undo()
    assert len(covering_swap_path(nat3, bb3)) > 1 and len(calls) == 1
    assert validate_tableau(out)


def test_superstandard_examples():
    assert superstandard((3, 1)) == ((1, 2, 3), (4,))
    assert superstandard((1,)) == ((1,),)
    assert superstandard((2, 1, 1)) == ((1, 2), (3,), (4,))


def test_ordinary_rsk_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 7)))
        p, q = ordinary_rsk(word)
        assert inverse_rsk(p, q) == word
    assert ordinary_insertion_tableau((2, 1, 2, 1, 1, 3, 2, 1)) == ((1, 1, 1, 1), (2, 2, 2), (3,))


def test_standard_tableaux_counts():
    from test_alphabet_words import syt_count

    for nu in [(1,), (3, 1), (2, 2), (3, 2, 1)]:
        assert len(list(standard_tableaux(nu))) == syt_count(nu)
