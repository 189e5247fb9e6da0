"""Doubled alphabet, shuffle orders, colored words, and Yamanouchi machinery.

Letters come in an unbarred and a barred copy of 1..N.  A letter is an
``int`` equal to its position in the natural order 1 < 1' < 2 < 2' < ...,
counting from 0: ``unbarred(1) == 0`` and ``barred(2) == 3``.  Letters are
interned, one instance per code, so hashing, comparing and sorting colored
words all run on plain integers.  A shuffle order is any total order on the
2N letters that keeps each copy in its usual order.  Colored words are plain
tuples of letters; everything here is immutable and pure, so values can be
shared freely between threads.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterable, Sequence

from .errors import InvalidParameterError, MalformedInputError


class Letter(int):
    """One symbol of the doubled alphabet: a value in 1..N, barred or not.

    The letter is equal to its natural-order code ``2*(value-1) + barred``,
    so ``unbarred(1) == 0``; it hashes, compares and sorts as that integer.
    ``Letter(value, barred)`` returns the one interned instance for its code,
    and so do ``copy`` and pickle (protocol 2 and later, the default).  A
    letter is always true, even letter 1 (code 0), and its attributes cannot
    be reassigned.
    """

    _interned: dict[int, Letter] = {}

    def __new__(cls, value: int, barred: bool = False) -> Letter:
        if value < 1:
            raise InvalidParameterError(f"letter value must be >= 1, got {value}")
        code = 2 * (value - 1) + (1 if barred else 0)
        letter = cls._interned.get(code)
        if letter is None:
            letter = int.__new__(cls, code)
            object.__setattr__(letter, "value", code // 2 + 1)
            object.__setattr__(letter, "barred", bool(barred))
            cls._interned[code] = letter
        return letter

    @property
    def code(self) -> int:
        """Position of the letter in the natural order, counting from 0."""
        return int(self)

    def __getnewargs__(self) -> tuple[int, bool]:
        return self.value, self.barred

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: letters are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: letters are immutable")

    def __bool__(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.value}'" if self.barred else f"{self.value}"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)

    def __repr__(self) -> str:
        return f"Letter({self})"


ColoredWord = tuple  # a colored word is a tuple of Letter


def unbarred(value: int) -> Letter:
    return Letter(value, False)


def barred(value: int) -> Letter:
    return Letter(value, True)


def letter_from_code(code: int) -> Letter:
    return Letter(code // 2 + 1, bool(code % 2))


def parse_letter(token: str) -> Letter:
    """Parse the ASCII encoding: ``a`` for unbarred, ``a'`` for barred."""
    text = token.strip()
    is_barred = text.endswith("'")
    if is_barred:
        text = text[:-1]
    if not text.isdigit():
        raise MalformedInputError(f"cannot parse letter token {token!r}")
    return Letter(int(text), is_barred)


def parse_word(text: str) -> ColoredWord:
    """Parse a space-separated sequence of letter tokens."""
    return tuple(parse_letter(tok) for tok in text.split())


def word_str(word: ColoredWord) -> str:
    return " ".join(str(x) for x in word)


def down_arrow(x: Letter) -> Letter | None:
    """The map fixing barred letters and sending unbarred a to barred a-1.

    Returns None (the adjoined bottom element) when a = 1.
    """
    if x.barred:
        return x
    return Letter(x.value - 1, True) if x.value > 1 else None


def double_down(x: Letter) -> Letter | None:
    """Predecessor in the natural order; None below the smallest letter."""
    return letter_from_code(x.code - 1) if x.code > 0 else None


class ShuffleOrder:
    """A total order on the doubled alphabet, increasing on each half.

    Stored as the tuple of letters in increasing order plus a rank table
    indexed by the letters themselves, so comparisons are O(1) tuple lookups.
    """

    __slots__ = ("letters", "_rank")

    def __init__(self, letters: Sequence[Letter]):
        letters = tuple(letters)
        if not letters or sorted(letters) != list(range(len(letters))) or len(letters) % 2:
            raise MalformedInputError("order must list each of 1..N once barred and once unbarred")
        for flag in (False, True):
            half = [x for x in letters if x.barred is flag]
            if half != sorted(half):
                raise MalformedInputError("a shuffle order must keep each half of the alphabet in increasing order")
        rank = [0] * len(letters)
        for i, x in enumerate(letters):
            rank[x] = i
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_rank", tuple(rank))

    @property
    def N(self) -> int:
        return len(self.letters) // 2

    def rank(self, x: Letter) -> int:
        return self._rank[x]

    def lt(self, x: Letter, y: Letter) -> bool:
        return self._rank[x] < self._rank[y]

    def lecol(self, x: Letter, y: Letter) -> bool:
        """Column condition: x may sit directly above y."""
        return self._rank[x] < self._rank[y] or (x == y and x.barred)

    def lerow(self, x: Letter, y: Letter) -> bool:
        """Row condition: x may sit directly west of y."""
        return self._rank[x] < self._rank[y] or (x == y and not x.barred)

    def key(self) -> tuple[int, ...]:
        return tuple(x.code for x in self.letters)

    def max_letter(self) -> Letter:
        return self.letters[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, ShuffleOrder) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"ShuffleOrder({word_str(self.letters)})"


@lru_cache(maxsize=None)
def natural_order(N: int) -> ShuffleOrder:
    """1 < 1' < 2 < 2' < ... < N < N'."""
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    return ShuffleOrder(tuple(letter_from_code(c) for c in range(2 * N)))


@lru_cache(maxsize=None)
def big_bar_order(N: int) -> ShuffleOrder:
    """1 < 2 < ... < N < 1' < 2' < ... < N'."""
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    seq = [Letter(v, False) for v in range(1, N + 1)] + [Letter(v, True) for v in range(1, N + 1)]
    return ShuffleOrder(tuple(seq))


def parse_order(text: str, N: int) -> ShuffleOrder:
    """Parse ``natural``, ``bigbar``, or ``explicit:"1 2 1' 2'"``."""
    if text == "natural":
        return natural_order(N)
    if text == "bigbar":
        return big_bar_order(N)
    if text.startswith("explicit:"):
        return ShuffleOrder(parse_word(text[len("explicit:"):].strip().strip('"')))
    raise InvalidParameterError(f"unknown order {text!r}")


def covering_swap_path(frm: ShuffleOrder, to: ShuffleOrder) -> list[tuple[ShuffleOrder, ShuffleOrder, Letter, Letter]]:
    """A chain of adjacent transpositions turning one shuffle order into another.

    Each step swaps an adjacent pair (b, a-bar) with b unbarred just below
    a-bar; the steps are returned as (order, swapped order, b, a-bar).  The
    greedy choice (always fix the leftmost inversion) makes the path
    deterministic.
    """
    if frm.N != to.N:
        raise InvalidParameterError("orders are over different alphabets")
    path = []
    current = frm
    while current != to:
        seq = list(current.letters)
        for i in range(len(seq) - 1):
            if to.rank(seq[i]) > to.rank(seq[i + 1]):
                lo, hi = seq[i], seq[i + 1]
                # both halves stay sorted in both orders, so an adjacent
                # inversion always mixes one barred and one unbarred letter
                if lo.barred == hi.barred:
                    raise MalformedInputError("adjacent inversion within one half of the alphabet")
                seq[i], seq[i + 1] = hi, lo
                nxt = ShuffleOrder(tuple(seq))
                b, abar = (lo, hi) if not lo.barred else (hi, lo)
                path.append((current, nxt, b, abar))
                current = nxt
                break
    return path


def descent_mask(word: ColoredWord, order: ShuffleOrder) -> int:
    """The positions i (1-based) where the word steps down, counting equal
    barred letters, as a bitmask with bit i-1 for position i."""
    rank = order._rank
    mask = 0
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if rank[a] > rank[b] or (a == b and a.barred):
            mask |= 1 << i
    return mask


def descent_set(word: ColoredWord, order: ShuffleOrder) -> frozenset[int]:
    """The bits of descent_mask, as 1-based positions."""
    mask = descent_mask(word, order)
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def standardize(word: ColoredWord, order: ShuffleOrder) -> tuple[int, ...]:
    """Relabel a colored word as a permutation of 1..len(word).

    Occurrences of each letter are numbered left to right when the letter is
    unbarred and right to left when it is barred, processing letters from
    smallest to largest in the given order.
    """
    result = [0] * len(word)
    next_label = 1
    for letter in order.letters:
        positions = [i for i, x in enumerate(word) if x == letter]
        if letter.barred:
            positions.reverse()
        for pos in positions:
            result[pos] = next_label
            next_label += 1
    return tuple(result)


def to_plain_r(word: ColoredWord) -> tuple[int, ...]:
    """Shuffle barred letters to the right, reverse them, and remove bars."""
    plain = [x.value for x in word if not x.barred]
    plain.extend(x.value for x in reversed(word) if x.barred)
    return tuple(plain)


def _ordinary_is_yamanouchi(word: Sequence[int]) -> tuple[bool, tuple[int, ...] | None]:
    counts: dict[int, int] = {}
    for v in reversed(word):
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False, None
    content = tuple(counts.get(v, 0) for v in range(1, max(counts, default=0) + 1))
    return True, content


def is_yamanouchi(word: ColoredWord) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the plain image of the word is Yamanouchi, with its content."""
    return _ordinary_is_yamanouchi(to_plain_r(word))


def _yamanouchi_words(lam: tuple[int, ...]):
    """All ordinary Yamanouchi words of content lam, built right to left."""
    n = sum(lam)
    counts = [0] * len(lam)
    word = [0] * n

    def extend(remaining: int):
        if remaining == 0:
            yield tuple(word)
            return
        for j in range(len(lam)):
            if counts[j] < lam[j] and (j == 0 or counts[j] < counts[j - 1]):
                counts[j] += 1
                word[remaining - 1] = j + 1
                yield from extend(remaining - 1)
                counts[j] -= 1

    yield from extend(n)


def _interleavings(left: tuple, right: tuple):
    """All shuffles of two sequences, each kept in order."""
    if not left:
        yield right
        return
    if not right:
        yield left
        return
    for rest in _interleavings(left[1:], right):
        yield (left[0],) + rest
    for rest in _interleavings(left, right[1:]):
        yield (right[0],) + rest


def enumerate_cyw(lam: tuple[int, ...], d: int) -> list[ColoredWord]:
    """Colored Yamanouchi words of content lam with exactly d barred letters.

    Constructive: split each ordinary Yamanouchi word y = y1.y2 with |y2| = d,
    bar and reverse y2, and interleave it with y1.  The construction is
    injective (the plain image and the barring pattern recover the input), so
    the output size is #SYT(lam) * C(n, d); this is asserted.
    """
    n = sum(lam)
    if not all(a >= b for a, b in zip(lam, lam[1:])) or any(a <= 0 for a in lam):
        raise InvalidParameterError(f"{lam} is not a partition")
    if not 0 <= d <= n:
        raise InvalidParameterError(f"d must be between 0 and {n}, got {d}")
    words = set()
    count = 0
    for y in _yamanouchi_words(tuple(lam)):
        head = tuple(Letter(v, False) for v in y[: n - d])
        tail = tuple(Letter(v, True) for v in reversed(y[n - d:]))
        for shuffle in _interleavings(head, tail):
            words.add(shuffle)
            count += 1
    assert len(words) == count, "split-and-shuffle construction produced a duplicate"
    return sorted(words)


def is_shuffle_closed(words: Iterable[ColoredWord]) -> bool:
    """Closed under swapping any adjacent barred/unbarred pair."""
    pool = set(words)
    for w in pool:
        for i in range(len(w) - 1):
            if w[i].barred != w[i + 1].barred:
                if w[:i] + (w[i + 1], w[i]) + w[i + 2:] not in pool:
                    return False
    return True


def arrangement_count(items: Sequence) -> int:
    """Number of distinct rearrangements of a sequence: len! over the
    product of the factorials of the multiplicities."""
    size = factorial(len(items))
    for m in Counter(items).values():
        size //= factorial(m)
    return size


def all_words(N: int, length: int) -> Iterable[ColoredWord]:
    """Every colored word of the given length over the alphabet of size 2N."""
    alphabet = [letter_from_code(c) for c in range(2 * N)]
    return product(alphabet, repeat=length)
