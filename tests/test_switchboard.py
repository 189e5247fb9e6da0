import json

import pytest

from golden_data import CYW32_COLUMNS, CYW32_TABLEAUX, CYW33_COMPONENTS
from suprschur import switchboard
from suprschur.alphabet_words import all_words, enumerate_cyw, is_shuffle_closed, parse_word, word_str
from suprschur.errors import ConstructionFailureError
from suprschur.free_algebra import NCPoly, kron_ideal, kronknuth_ideal, perp_contains
from suprschur.switchboard import (
    KNUTH,
    ROTATION,
    Switch,
    Switchboard,
    build_cyw_switchboard,
    build_switchboard,
    component_schur,
    components,
    find_switch_partners,
    validate_switchboard,
)
from suprschur.kronecker import g_sum_rule
from suprschur.tableaux import partitions_of

w = parse_word


def _window_partners_reference(window):
    """All local switch moves on a three-letter window, by a case analysis
    written independently of the ideal generators."""
    p, q, r = window
    out = []
    if len({p, q, r}) == 3:
        x, y, z = sorted(window)
        knuth_moves = {
            (x, z, y): (z, x, y),
            (z, x, y): (x, z, y),
            (y, x, z): (y, z, x),
            (y, z, x): (y, x, z),
        }
        partner = knuth_moves.get(window)
        if partner is not None:
            out.append((partner, KNUTH))
        if (y, z) == (x + 1, x + 2):
            rotation_moves = {
                (y, x, z): (x, z, y),
                (x, z, y): (y, x, z),
                (y, z, x): (z, x, y),
                (z, x, y): (y, z, x),
            }
            partner = rotation_moves.get(window)
            if partner is not None:
                out.append((partner, ROTATION))
    else:
        moves = []
        if p == q and p != r:
            # (y,y,x) -> (y,x,y) for unbarred y above x; (y,y,z) -> (y,z,y) for barred y below z
            if (not p.barred and r < p) or (p.barred and r > p):
                moves.append((p, r, p))
        if q == r and p != q:
            # (z,y,y) -> (y,z,y) for unbarred y below z; (x,y,y) -> (y,x,y) for barred y above x
            if (not q.barred and p > q) or (q.barred and p < q):
                moves.append((q, p, q))
        if p == r and p != q:
            if not p.barred and q < p:
                moves.append((p, p, q))  # (y,x,y) -> (y,y,x)
            elif not p.barred and q > p:
                moves.append((q, p, p))  # (y,z,y) -> (z,y,y)
            elif p.barred and q > p:
                moves.append((p, p, q))  # (y,z,y) -> (y,y,z)
            elif p.barred and q < p:
                moves.append((q, p, p))  # (y,x,y) -> (x,y,y)
        out.extend((m, KNUTH) for m in moves)
    return out


def _find_switch_partners_reference(word, i):
    if not 2 <= i <= len(word) - 1:
        raise ConstructionFailureError(f"switch position {i} out of range", word=word, position=i)
    out = []
    for partner_window, kind in _window_partners_reference(word[i - 2 : i + 1]):
        partner = word[: i - 2] + partner_window + word[i + 1 :]
        if (partner, kind) not in out:
            out.append((partner, kind))
    return out


def test_switch_table_matches_case_analysis():
    windows = 0
    for N in range(1, 5):
        for window in all_words(N, 3):
            found = find_switch_partners(window, 2)
            assert len(found) == len(set(found))
            assert set(found) == set(_window_partners_reference(window)), window
            # at most one partner of each kind, so the board's choice is unambiguous
            assert len({kind for _, kind in found}) == len(found)
            windows += 1
    assert windows == 800


def test_boards_match_case_analysis(monkeypatch):
    cases = [(lam, d) for n in range(1, 7) for lam in partitions_of(n) for d in range(n + 1)]
    from_table = [build_cyw_switchboard(lam, d).edges for lam, d in cases]
    monkeypatch.setattr(switchboard, "find_switch_partners", _find_switch_partners_reference)
    from_reference = [build_cyw_switchboard(lam, d).edges for lam, d in cases]
    assert from_table == from_reference


def test_find_switch_partners_examples():
    partners = find_switch_partners(w("1' 1 2"), 2)
    assert (w("1' 2 1"), KNUTH) in partners
    assert (w("1 2 1'"), ROTATION) in partners
    assert find_switch_partners(w("1 2 3"), 2) == []
    with pytest.raises(ConstructionFailureError):
        find_switch_partners(w("1 2 3"), 3)


def test_figure_one_boards():
    vertices = [w("1' 1 2"), w("1' 2 1"), w("1 2 1'"), w("2 1 1'")]
    knuth_board = Switchboard(
        vertices,
        [
            Switch.make(2, KNUTH, w("1' 1 2"), w("1' 2 1")),
            Switch.make(2, KNUTH, w("1 2 1'"), w("2 1 1'")),
        ],
    )
    rotation_board = Switchboard(
        vertices,
        [
            Switch.make(2, ROTATION, w("1' 1 2"), w("1 2 1'")),
            Switch.make(2, ROTATION, w("1' 2 1"), w("2 1 1'")),
        ],
    )
    assert validate_switchboard(knuth_board)
    assert validate_switchboard(rotation_board)
    broken = Switchboard(vertices, list(knuth_board.edges)[:1])
    assert not validate_switchboard(broken)


def test_cyw_switchboard_golden():
    board = build_cyw_switchboard((3, 2), 2)
    assert len(board.vertices) == 50
    edge = next(e for e in board.edges if w("1' 1' 1 2 2") in e.words)
    assert edge.kind == ROTATION and edge.position == 3
    assert edge.other(w("1' 1' 1 2 2")) == w("1' 1 2 1' 2")
    assert validate_switchboard(board)
    # rerunning the construction is deterministic
    assert build_cyw_switchboard((3, 2), 2).edges == board.edges


def test_rotation_closure():
    for lam, d in [((3, 2), 2), ((2, 2), 1)]:
        pool = set(enumerate_cyw(lam, d))
        for word in pool:
            for i in range(2, len(word)):
                for partner, kind in find_switch_partners(word, i):
                    if kind == ROTATION:
                        assert partner in pool


def test_single_vertex_board():
    board = build_cyw_switchboard((1,), 0)
    assert len(board.vertices) == 1 and not board.edges
    assert component_schur(board) == [{(1,): 1}]


def test_components_and_schur_golden():
    board = build_cyw_switchboard((3, 3), 2)
    comps = components(board)
    assert len(comps) == 4
    expansions = component_schur(board)
    expected = [dict(f) for f, _ in CYW33_COMPONENTS]
    assert sorted(map(sorted, (e.items() for e in expansions))) == sorted(map(sorted, (e.items() for e in expected)))
    # the displayed tableau reading words sit in the matching component
    for expansion, pairs in CYW33_COMPONENTS:
        words = {w(word) for _, word in pairs}
        matching = [comp for comp in comps if words <= set(comp)]
        assert len(matching) == 1
        idx = comps.index(matching[0])
        assert expansions[idx] == expansion


def test_component_schur_on_every_small_board():
    # the components are orthogonal to the kron-Knuth ideal, though not all
    # of them to the Kronecker ideal, and their expansions add up to the
    # hook sum rule
    boards = 0
    for n in range(1, 6):
        for lam in partitions_of(n):
            for d in range(n + 1):
                boards += 1
                total = {}
                for expansion in component_schur(build_cyw_switchboard(lam, d)):
                    for nu, coeff in expansion.items():
                        total[nu] = total.get(nu, 0) + coeff
                expected = {nu: g_sum_rule(lam, d, nu) for nu in partitions_of(n)}
                assert total == {nu: g for nu, g in expected.items() if g}
    assert boards == 87
    board = build_cyw_switchboard((3, 1), 2)
    gammas = [NCPoly({v: 1 for v in comp}) for comp in components(board)]
    assert sum(not perp_contains(kron_ideal(2), gamma) for gamma in gammas) == 2


def test_board_indicator_is_perp():
    for lam, d in [((3, 2), 2), ((3, 3), 2), ((2, 2), 2)]:
        board = build_cyw_switchboard(lam, d)
        assert perp_contains(kronknuth_ideal(2), board.indicator())
        for comp in components(board):
            assert perp_contains(kronknuth_ideal(2), NCPoly({v: 1 for v in comp}))


def test_greedy_board_on_column_subsets():
    column_sets = [
        [w(word) for word in CYW32_COLUMNS[0]],
        [w(word) for col in CYW32_COLUMNS[1:3] for word in col],
        [w(word) for col in CYW32_COLUMNS[3:5] for word in col],
    ]
    for vertices in column_sets:
        assert is_shuffle_closed(vertices)
        gamma = NCPoly({v: 1 for v in vertices})
        assert perp_contains(kron_ideal(2), gamma)
        board = build_switchboard(vertices)
        assert validate_switchboard(board)


def test_columns_partition_the_vertex_set():
    words = {word_str(v) for v in enumerate_cyw((3, 2), 2)}
    listed = [word for col in CYW32_COLUMNS for word in col]
    assert len(listed) == 50 and set(listed) == words
    outlined = {text for _, text in CYW32_TABLEAUX}
    assert outlined <= set(listed)


def switchboard_json(board):
    """The board's vertices and edges as JSON, edges sorted by position and
    first word."""
    payload = {
        "vertices": [word_str(v) for v in board.vertices],
        "edges": [
            {
                "position": e.position,
                "kind": e.kind,
                "words": [word_str(e.words[0]), word_str(e.words[1])],
            }
            for e in sorted(board.edges, key=lambda e: (e.position, e.words[0]))
        ],
    }
    return json.dumps(payload, indent=2)


def test_dot_and_json_export(tmp_path):
    board = build_cyw_switchboard((2, 1), 1)
    dot = board.to_dot()
    assert dot.startswith("graph switchboard {") and dot.rstrip().endswith("}")
    assert '--' in dot and 'label="~' in dot or 'label="' in dot
    payload = switchboard_json(board)
    assert '"vertices"' in payload and '"edges"' in payload


def test_missing_partner_fails_loudly():
    vertices = [w("1' 1 2")]  # its required partners are absent
    with pytest.raises(ConstructionFailureError):
        build_switchboard(vertices)
