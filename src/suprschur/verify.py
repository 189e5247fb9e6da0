"""Batch verification drivers binding the algebra, tableau, and word layers.

Each driver runs one family of identities at an explicit finite scale and
returns a JSON-ready report with an overall ``ok`` flag.  The command line
front end exposes them as ``verify`` subtargets; the acceptance suite calls
them directly.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Sequence

from .alphabet_words import (
    ColoredWord,
    Letter,
    ShuffleOrder,
    all_words,
    barred,
    big_bar_order,
    down_arrow,
    enumerate_cyw,
    letter_from_code,
    natural_order,
    word_str,
)
from .errors import InvalidParameterError
from .free_algebra import (
    IdealSpec,
    J_augmented,
    J_nu,
    NCPoly,
    check_budget,
    content_space,
    e_k_order,
    h_k_order,
    ideal_contains,
    kron_ideal,
    kronknuth_ideal,
    monomial_budget,
    perp_violation,
    plac_ideal,
    swap_moves,
    swap_pairs,
)
from .tableaux import (
    ColoredTableau,
    RestrictedShape,
    _arrow_preds,
    _column_reader,
    _FillingWalk,
    _getter,
    _order_facts,
    _sqread_reader,
    arrow_respecting_words,
    check_partition,
    convert,
    enumerate_fillings,
    enumerate_tableaux,  # noqa: F401  (bound for the tracer)
    insert,
    nontail_removable,
    partitions_of,
    restricted_shapes_in_box,
    sqread,
    tableaux_with_sqread_in,
)


def _check_bound(value: int, name: str) -> None:
    """A size bound of a driver must be at least 0: a negative one would run
    zero checks and report them as passed."""
    if value < 0:
        raise InvalidParameterError(f"{name} must be at least 0, got {value}")


def _readings(walk: _FillingWalk, nu: tuple[int, ...], reader: Callable) -> Iterable[ColoredWord]:
    boxes = RestrictedShape.from_partition(nu).boxes
    return map(reader(boxes), walk.letters(sorted(boxes)))


def _verify_reading_expansion(
    target: str,
    ideal: IdealSpec,
    order: ShuffleOrder,
    reader: Callable,
    max_size: int,
    nu_list: Sequence[tuple[int, ...]] | None,
) -> dict:
    """Membership of J_nu for the order minus the sum of the reading words
    over the colored tableaux of shape nu (``_readings``), in the ideal."""
    _check_bound(max_size, "max_size")
    walk = _FillingWalk(order, order.max_letter())
    results = []
    for nu in nu_list if nu_list is not None else [p for n in range(1, max_size + 1) for p in partitions_of(n)]:
        nu = check_partition(nu)
        total = Counter(_readings(walk, nu, reader))
        member = ideal_contains(ideal, J_nu(nu, order.N, order) - NCPoly(total))
        results.append({"nu": list(nu), "tableaux": total.total(), "member": member})
    return {
        "target": target,
        "ideal": ideal.name(),
        "N": order.N,
        "results": results,
        "tableaux": sum(r["tableaux"] for r in results),
        "ok": all(r["member"] for r in results),
    }


def verify_jnu(ideal: IdealSpec, N: int, max_size: int, nu_list: Sequence[tuple[int, ...]] | None = None) -> dict:
    """Membership of J_nu minus the sum of diagonal reading words over
    colored tableaux, in the given ideal, natural order throughout."""
    return _verify_reading_expansion("jnu", ideal, natural_order(N), _sqread_reader, max_size, nu_list)


def verify_jplac(order: ShuffleOrder, max_size: int, nu_list: Sequence[tuple[int, ...]] | None = None) -> dict:
    """Membership of J_nu for the order minus the sum of column reading
    words, in the colored plactic ideal of that order."""
    return _verify_reading_expansion("jplac", plac_ideal(order), order, _column_reader, max_size, nu_list)


def verify_conjecture_jnu_kronknuth(N: int, max_size: int) -> dict:
    """The conjectural strengthening of the reading-word expansion, reported
    as a verified range rather than asserted as a theorem."""
    report = verify_jnu(kronknuth_ideal(N), N, max_size)
    report["target"] = "conjecture61"
    report["verified_range"] = {"N": N, "max_size": max_size}
    return report


def verify_commutation(ideal: IdealSpec, max_total: int, kind: str = "e") -> dict:
    """Commutators of the elementary (or homogeneous) series lie in the ideal
    for all index pairs with k + l at most the bound."""
    order = ideal.order if ideal.order is not None else natural_order(ideal.N)
    _check_bound(max_total, "max_total")
    series = e_k_order if kind == "e" else h_k_order
    results = []
    for k in range(1, max_total):
        for l in range(k + 1, max_total - k + 1):
            fk, fl = series(k, order), series(l, order)
            member = ideal_contains(ideal, fk * fl - fl * fk)
            results.append({"k": k, "l": l, "member": member})
    return {
        "target": f"commute-{kind}",
        "ideal": ideal.name(),
        "N": ideal.N,
        "results": results,
        "ok": all(r["member"] for r in results),
    }


def verify_perp_cyw(lam: Sequence[int], d: int, ideal: IdealSpec) -> dict:
    """Orthogonality of the colored Yamanouchi indicator vector to an ideal."""
    lam = check_partition(lam)
    gamma = NCPoly({w: 1 for w in enumerate_cyw(lam, d)})
    violation = perp_violation(ideal, gamma)
    report = {
        "target": "perp",
        "ideal": ideal.name(),
        "lambda": list(lam),
        "d": d,
        "ok": violation is None,
    }
    if violation is not None and violation["pair"] is not None:
        report["witness"] = [word_str(violation["pair"][0]), word_str(violation["pair"][1])]
    return report


# ---------------------------------------------------------------------------
# conversion bijection


def conversion_bijection_holds(words: Iterable[ColoredWord]) -> bool:
    """Converting the big-bar-order tableaux with reading word in the set
    yields exactly the natural-order tableaux with reading word in the set."""
    pool = set(words)
    N = max((x.value for w in pool for x in w), default=1)
    prec, nat = big_bar_order(N), natural_order(N)
    by_prec = tableaux_with_sqread_in(pool, prec)
    by_nat = tableaux_with_sqread_in(pool, nat)
    for nu in set(by_prec) | set(by_nat):
        converted = {convert(tab, prec, nat) for tab in by_prec.get(nu, set())}
        if converted != by_nat.get(nu, set()):
            return False
    return True


def verify_conversion_bijection(max_size: int, extra_sets: Sequence[Sequence[ColoredWord]] = ()) -> dict:
    """The conversion bijection on every colored Yamanouchi set up to the
    given size, plus any explicitly supplied shuffle-closed perp sets."""
    _check_bound(max_size, "max_size")
    results = []
    for n in range(1, max_size + 1):
        for lam in partitions_of(n):
            for d in range(0, n + 1):
                ok = conversion_bijection_holds(enumerate_cyw(lam, d))
                results.append({"lambda": list(lam), "d": d, "ok": ok})
    for k, words in enumerate(extra_sets):
        results.append({"set": k, "size": len(list(words)), "ok": conversion_bijection_holds(words)})
    return {"target": "conversion-bijection", "results": results, "ok": all(r["ok"] for r in results)}


# ---------------------------------------------------------------------------
# insertion fixed point, nontail removability, reading word congruence


def verify_insertion_fixed_point(N: int, max_len: int) -> dict:
    """A word is a diagonal reading word of some colored tableau exactly when
    inserting it and reading back reproduces it."""
    _check_bound(max_len, "max_len")
    order = natural_order(N)
    walk = _FillingWalk(order, order.max_letter())
    checked = 0
    for t in range(1, max_len + 1):
        image = {w for nu in partitions_of(t) for w in _readings(walk, nu, _sqread_reader)}
        for w in all_words(N, t):
            checked += 1
            if (sqread(insert(w, order)) == w) != (w in image):
                return {"target": "fixed-point", "ok": False, "word": word_str(w)}
    return {"target": "fixed-point", "N": N, "max_len": max_len, "checked": checked, "ok": True}


def verify_nontail_removable(box: int, N: int) -> dict:
    """Every restricted colored tableau inside the box has a nontail
    removable box."""
    _check_bound(box, "box")
    order = natural_order(N)
    top = barred(N)
    checked = 0
    for shape in restricted_shapes_in_box(box, box):
        for tab in enumerate_fillings(shape, order, top):
            checked += 1
            if not nontail_removable(tab):
                return {"target": "nontail", "ok": False, "tableau": tab.to_text()}
    return {"target": "nontail", "box": box, "N": N, "checked": checked, "ok": True}


def _triple_swaps(ideal: IdealSpec) -> tuple[frozenset, frozenset]:
    """The three-letter windows of ``swap_moves``: those whose swapped pair
    is at offset 0, and those whose pair is at offset 1."""
    moves = swap_moves(ideal)
    return tuple(frozenset(u for u, k in moves if len(u) == 3 and k == offset) for offset in (0, 1))


def _orders_linked(
    letters: Sequence[Letter],
    edges: Sequence[Sequence[tuple]],
    swaps: frozenset,
    swaps_after: frozenset,
    swaps_before: frozenset,
) -> bool:
    """Whether a walk from the first order over the edges of ``_order_facts``
    reaches every order of a filling, taking only the edges whose swap is a
    move of ``swap_moves``.

    An edge swaps the letters ``a b`` of two adjacent boxes of an order.  It
    is a move when ``(a, b)`` is in ``swaps`` (``swap_pairs``), or when the
    triple with the letter after them (offset 0) is in ``swaps_after``, or
    the one with the letter before them (offset 1) is in ``swaps_before``
    (``_triple_swaps``).  Such an edge changes the word read by a padded
    two-term generator, so True means the words are congruent.  False
    decides nothing.
    """
    full = (1 << len(edges)) - 1
    reached = 1
    stack = [0]
    while stack:
        for other, i, j, before, after in edges[stack.pop()]:
            if reached >> other & 1:
                continue
            a, b = letters[i], letters[j]
            if (
                (a, b) in swaps
                or (after is not None and (a, b, letters[after]) in swaps_after)
                or (before is not None and (letters[before], a, b) in swaps_before)
            ):
                reached |= 1 << other
                stack.append(other)
    return reached == full


def _projection(pairs: Sequence[tuple[int, int]], edges: Sequence[Sequence[tuple]]) -> Callable:
    """A getter of the letters, as a tuple, at the indices of ``pairs`` and
    at each edge's ``i``, ``j``, ``before`` and ``after``."""
    read = {i for pair in pairs for i in pair}
    read.update(k for out in edges for edge in out for k in edge[1:] if k is not None)
    return _getter(tuple(read))


def verify_reading_word_congruence(max_boxes: int, N: int) -> dict:
    """All arrow-respecting reading words of one restricted colored tableau
    are congruent modulo the Kronecker ideal: they have one normal form.

    The check runs on the box poset of each filling and builds words only
    for the few fillings that need them.  ``_FillingWalk.by_arrows`` walks
    the fillings of every shape at once, grouped by shape and arrows, and
    the driver looks up one ``_order_facts`` record per group.  Only a
    failure builds its tableau, for the report: the first failing filling
    in the walk's order.

    The record's count of orders is the number of reading words, since
    equal letters form a chain of the box poset; a group with one order
    is counted whole, one word per filling, with no work per filling.  A
    filling with more is settled by the first of three tests that holds:

    * ``settled_by_pairs``: every incomparable pair of boxes holds letters
      ``(a, b)`` in ``swap_pairs``.  Any two orders are joined by swaps of
      adjacent incomparable boxes, and each such swap changes the word by a
      padded generator ``a b - b a``.
    * ``settled_by_moves``: a walk over the record's edges, the swaps of two
      adjacent incomparable boxes of an order, reaches every order taking
      only the swaps that are moves of ``swap_moves`` (``_orders_linked``).
    * ``settled_by_forms``: the filling reads its words and they have equal
      form ids in their content's space.

    The first two tests are decided once per key: the predecessor masks of
    a group and the letters at the indices the tests read (``_projection``).
    That is sound because the masks fix the record's pairs and edges, and
    the tests read no other letter; groups of other shapes with equal masks
    share the verdicts.  ``decided`` counts the keys, and a filling whose
    key went to forms still reads its own words, in the walk's order.

    ``linked`` is the first two counts together, and ``contents`` counts
    the distinct contents whose space was consulted: 46 at 6 boxes and N=3,
    where every tableau with more than one word would consult 726.  No
    count depends on what the caches held.

    A tableau with more words than ``monomial_budget()`` is refused before
    its pairs are tested: ``ResourceLimitError`` with ``required`` set to
    its number of words, once per group of fillings.  A negative
    ``max_boxes`` is an ``InvalidParameterError``.
    """
    _check_bound(max_boxes, "max_boxes")
    order = natural_order(N)
    ideal = kron_ideal(N)
    swaps = swap_pairs(ideal)
    swaps_after, swaps_before = _triple_swaps(ideal)
    budget = monomial_budget()
    walk = _FillingWalk(order, barred(N))
    tableaux_checked = 0
    words_checked = 0
    settled = [0, 0, 0]  # by pairs, by moves, by forms
    decided = 0
    known = {}  # masks -> (their _projection, verdicts by projected letters)
    consulted = set()  # the spaces consulted, one per content
    for layout, groups in walk.by_arrows(max_boxes):
        for arrows, group in groups.items():
            preds = _arrow_preds(arrows, layout)
            count, pairs, edges, readers = _order_facts(preds)
            tableaux_checked += len(group)
            words_checked += count * len(group)
            if count == 1:
                continue
            check_budget(count, "the reading-word set of a tableau", budget)
            if preds not in known:
                known[preds] = _projection(pairs, edges), {}
            project, verdicts = known[preds]
            for letters in group:
                key = project(letters)
                verdict = verdicts.get(key)
                if verdict is None:
                    decided += 1
                    verdict = verdicts[key] = (
                        0
                        if all((letters[i], letters[j]) in swaps for i, j in pairs)
                        else 1 if _orders_linked(letters, edges, swaps, swaps_after, swaps_before) else 2
                    )
                settled[verdict] += 1
                if verdict < 2:
                    continue
                words = sorted(read(letters) for read in readers)
                # the reading words of a tableau are rearrangements of one content
                space = content_space(ideal, tuple(sorted(words[0])))
                consulted.add(space)
                base = space.form_id(words[0])
                for w in words[1:]:
                    if space.form_id(w) != base:
                        tab = ColoredTableau(dict(zip(layout[0], letters)), order)
                        return {"target": "reading-congruence", "ok": False, "tableau": tab.to_text(), "word": word_str(w)}
    return {
        "target": "reading-congruence",
        "max_boxes": max_boxes,
        "N": N,
        "tableaux": tableaux_checked,
        "words": words_checked,
        "linked": settled[0] + settled[1],
        "settled_by_pairs": settled[0],
        "settled_by_moves": settled[1],
        "settled_by_forms": settled[2],
        "decided": decided,
        "contents": len(consulted),
        "ok": True,
    }


# ---------------------------------------------------------------------------
# flagged expansion (column-flagged super Schur functions)


def _staircase_form(alpha: tuple[int, ...], nu: tuple[int, ...]) -> tuple[int, int] | None:
    """Check the admissible flag-complement shapes; return (j, jprime).

    The head of alpha (the columns that are only partially cut) must consist
    of zeros followed by 1, 2, 3, ... with at most one value repeated once;
    j is the first position carrying a weak descent of alpha, jprime the last
    partially cut column.
    """
    l = len(nu)
    jprime = max((i for i in range(1, l + 1) if alpha[i - 1] < nu[i - 1]), default=0)
    if any(alpha[i] != nu[i] for i in range(jprime, l)):
        return None
    j = next((i for i in range(1, l + 1) if alpha[i - 1] > 0 and alpha[i - 1] >= (alpha[i] if i < l else 0)), l + 1)
    head = alpha[:jprime]
    z = 0
    while z < len(head) and head[z] == 0:
        z += 1
    run = head[z:]
    if any(v == 0 for v in run):
        return None
    if list(run) == list(range(1, len(run) + 1)):
        if j not in (jprime, jprime + 1):
            return None
    else:
        repeat = next((pos for pos in range(1, len(run)) if run[pos] == run[pos - 1]), None)
        if repeat is None:
            return None
        a = run[repeat]
        expected = list(range(1, a + 1)) + [a] + list(range(a + 1, a + len(run) - repeat))
        if list(run) != expected or j != z + a or not j < jprime:
            return None
    next_depth = nu[jprime] if jprime < l else 0
    if jprime >= 1 and alpha[jprime - 1] < next_depth - 1:
        return None
    return j, jprime


def _flag_choices(fixed: dict[int, Letter | None], l: int, N: int):
    """All weakly increasing flag tuples extending the pinned positions."""
    # in rank order, so the combinations are the weakly increasing tuples
    values: list[Letter | None] = [None] + [letter_from_code(c) for c in range(2 * N)]
    for flags in combinations_with_replacement(values, l):
        if all(flags[c - 1] == f for c, f in fixed.items()):
            yield flags


def _embeds_in(word: Sequence[Letter], of: Sequence[Letter]) -> bool:
    it = iter(of)
    return all(any(x == y for y in it) for x in word)


def _reading_word_splits(tab: ColoredTableau, border_letters: list[Letter]) -> set[tuple[ColoredWord, ColoredWord]]:
    """Splits v.w of arrow-respecting reading words where the suffix is a
    subsequence of the open border letters, required to start with the first
    of them when that one is barred."""
    first_barred = bool(border_letters) and border_letters[0].barred
    splits: set[tuple[ColoredWord, ColoredWord]] = set()
    for word in arrow_respecting_words(tab):
        for cut in range(len(word) + 1):
            w = word[cut:]
            if first_barred:
                if not w or w[0] != border_letters[0] or not _embeds_in(w[1:], border_letters[1:]):
                    continue
            elif not _embeds_in(w, border_letters):
                continue
            splits.add((word[:cut], w))
    return splits


def verify_flagged(N: int = 2, max_alpha_weight: int = 4, box: int = 3) -> dict:
    """Exhaustive check of the flagged expansion: for every admissible
    (alpha, flags, filling, reading-word split), the augmented flagged Schur
    function times the prefix equals the sum of diagonal reading words of the
    completions, modulo the Kronecker ideal."""
    _check_bound(max_alpha_weight, "max_alpha_weight")
    _check_bound(box, "box")
    order = natural_order(N)
    ideal = kron_ideal(N)
    checked = 0
    failures: list[dict] = []
    shapes = [nu for n in range(1, box * box + 1) for nu in partitions_of(n) if len(nu) <= box and nu[0] <= box]
    for nu in shapes:
        l = len(nu)
        full_boxes = [(r, c) for c in range(1, l + 1) for r in range(1, nu[c - 1] + 1)]
        for alpha in product(*(range(part + 1) for part in nu)):
            if sum(alpha) > max_alpha_weight:
                continue
            form = _staircase_form(alpha, nu)
            if form is None:
                continue
            j, jprime = form
            shape = RestrictedShape.from_column_pair(nu, alpha)
            for tab in enumerate_fillings(shape, order, barred(N)):
                border = {c: tab[(alpha[c - 1] + 1, c)] for c in range(1, jprime + 1)}
                fixed: dict[int, Letter | None] = {c: down_arrow(border[c]) for c in range(1, jprime + 1) if c != j}
                cap_rank = None
                if j <= jprime:
                    cap = down_arrow(border[j])
                    cap_rank = -1 if cap is None else cap.code
                border_letters = [border[c] for c in range(j + 1, jprime + 1)]
                splits = sorted(_reading_word_splits(tab, border_letters))
                for flags in _flag_choices(fixed, l, N):
                    if cap_rank is not None:
                        fj = flags[j - 1]
                        if (fj.code if fj is not None else -1) > cap_rank:
                            continue
                    for v_word, w_word in splits:
                        if w_word and j + 1 <= jprime:
                            r_next = border[j + 1]
                            n_j = flags[j - 1]
                            if (
                                not r_next.barred
                                and w_word[0] == r_next
                                and n_j is not None
                                and not n_j.barred
                                and n_j.value + 1 == r_next.value
                            ):
                                continue  # excluded: the suffix would have to cross a fresh arrow
                        inserts = [()] * max(l - 1, 0)
                        if w_word:
                            inserts[j - 1] = w_word
                        lhs = NCPoly.from_word(v_word) * J_augmented(alpha, flags, inserts, N)
                        rhs = NCPoly(Counter(sqread(c) for c in _completions(tab, flags, order, full_boxes)))
                        checked += 1
                        if not ideal_contains(ideal, lhs - rhs):
                            failures.append(
                                {
                                    "nu": list(nu),
                                    "alpha": list(alpha),
                                    "flags": [str(f) if f is not None else "0'" for f in flags],
                                    "tableau": tab.to_text(),
                                    "v": word_str(v_word),
                                    "w": word_str(w_word),
                                }
                            )
    return {
        "target": "flagged",
        "N": N,
        "max_alpha_weight": max_alpha_weight,
        "box": box,
        "checked": checked,
        "failures": failures[:5],
        "ok": not failures,
    }


def _completions(tab: ColoredTableau, flags: tuple, order: ShuffleOrder, full_boxes: list[tuple[int, int]]):
    """All colored tableaux on the full column diagram extending the filling,
    with the cut columns bounded entrywise by their flags."""
    entries = dict(tab.entries)
    todo = sorted(box for box in full_boxes if box not in entries)

    def fill(i: int):
        if i == len(todo):
            yield ColoredTableau(entries, order)
            return
        r, c = todo[i]
        cap = flags[c - 1]
        if cap is None:
            return
        for code in range(cap.code + 1):
            x = letter_from_code(code)
            west = entries.get((r, c - 1))
            north = entries.get((r - 1, c))
            east = entries.get((r, c + 1))
            south = entries.get((r + 1, c))
            if west is not None and not order.lerow(west, x):
                continue
            if north is not None and not order.lecol(north, x):
                continue
            if east is not None and not order.lerow(x, east):
                continue
            if south is not None and not order.lecol(x, south):
                continue
            entries[(r, c)] = x
            yield from fill(i + 1)
            del entries[(r, c)]

    yield from fill(0)
