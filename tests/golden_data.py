"""Frozen worked-example data shared between test modules.

Words use the ASCII letter encoding (``a`` unbarred, ``a'`` barred).
"""

# The 50 colored Yamanouchi words of content (3,2) with two barred letters,
# grouped into the five displayed columns of the canonical switch graph.
# The first column is shuffle closed on its own; columns two and three
# together form a shuffle closed set, as do columns four and five.
CYW32_COLUMNS = [
    [
        "1' 1' 1 2 2",
        "1' 1 1' 2 2",
        "1' 1 2 1' 2",
        "1' 1 2 2 1'",
        "1 1' 1' 2 2",
        "1 1' 2 1' 2",
        "1 1' 2 2 1'",
        "1 2 1' 1' 2",
        "1 2 1' 2 1'",
        "1 2 2 1' 1'",
    ],
    [
        "1' 1' 2 1 2",
        "1' 2 1' 1 2",
        "1' 2 1 1' 2",
        "1' 2 1 2 1'",
        "2 1' 1' 1 2",
        "2 1' 1 1' 2",
        "2 1' 1 2 1'",
        "2 1 1' 1' 2",
        "2 1 1' 2 1'",
        "2 1 2 1' 1'",
    ],
    [
        "1' 1' 2 2 1",
        "1' 2 1' 2 1",
        "1' 2 2 1' 1",
        "1' 2 2 1 1'",
        "2 1' 1' 2 1",
        "2 1' 2 1' 1",
        "2 1' 2 1 1'",
        "2 2 1' 1' 1",
        "2 2 1' 1 1'",
        "2 2 1 1' 1'",
    ],
    [
        "1' 2' 1 2 1",
        "1' 1 2' 2 1",
        "1' 1 2 2' 1",
        "1' 1 2 1 2'",
        "1 1' 2' 2 1",
        "1 1' 2 2' 1",
        "1 1' 2 1 2'",
        "1 2 1' 2' 1",
        "1 2 1' 1 2'",
        "1 2 1 1' 2'",
    ],
    [
        "1' 2' 2 1 1",
        "1' 2 2' 1 1",
        "1' 2 1 2' 1",
        "1' 2 1 1 2'",
        "2 1' 2' 1 1",
        "2 1' 1 2' 1",
        "2 1' 1 1 2'",
        "2 1 1' 2' 1",
        "2 1 1' 1 2'",
        "2 1 1 1' 2'",
    ],
]

# The ten colored tableaux whose diagonal reading word lies in the set
# above, with those reading words.
CYW32_TABLEAUX = [
    ("1 1 1' 2' / 2", "2 1 1 1' 2'"),
    ("1 1' 2 2 / 1'", "1' 1 1' 2 2"),
    ("1 1 2' / 1' 2", "1' 2 1 1 2'"),
    ("1 1' 2 / 1' 2", "1' 2 1 1' 2"),
    ("1 1 2' / 1' / 2", "2 1' 1 1 2'"),
    ("1 1' 2 / 1' / 2", "2 1' 1 1' 2"),
    ("1 2 2 / 1' / 1'", "1' 1' 1 2 2"),
    ("1 1' / 1' 2 / 2", "2 1' 2 1 1'"),
    ("1 1 / 1' 2' / 2", "2 1' 1 2' 1"),
    ("1 2 / 1' / 1' / 2", "2 1' 1' 1 2"),
]

CYW32_SCHUR = {(4, 1): 2, (3, 2): 2, (3, 1, 1): 3, (2, 2, 1): 2, (2, 1, 1, 1): 1}

# Per-component Schur expansions and tableau/word pairs for content (3,3)
# with two barred letters.
CYW33_COMPONENTS = [
    (
        {(3, 2, 1): 1, (2, 2, 2): 1},
        [("1 1 2' / 1' 2 / 2", "2 1' 2 1 1 2'"), ("1 1 / 1' 2 / 2 2'", "2 1' 2' 2 1 1")],
    ),
    (
        {(4, 2): 1},
        [("1 1 1' 2' / 2 2", "2 2 1 1 1' 2'")],
    ),
    (
        {(4, 2): 1, (4, 1, 1): 1},
        [("1 1' 2 2 / 1' 2", "1' 2 1 1' 2 2"), ("1 1' 2 2 / 1' / 2", "2 1' 1 1' 2 2")],
    ),
    (
        {(3, 2, 1): 1, (3, 1, 1, 1): 1},
        [("1 1' 2 / 1' 2 / 2", "2 1' 2 1 1' 2"), ("1 2 2 / 1' / 1' / 2", "2 1' 1' 1 2 2")],
    ),
]

# An 18-box restricted colored tableau with one nontail removable box.
RCT18_ROWS = "1' / 2 2' / 2' 3 3 3 3' / 3 3' 4 4 4 4' / 3' 4 5 / 3'"
RCT18_SQREAD = "3' 3' 4 3 5 2' 3' 4 3 2 4 3 1' 2' 4 3 3' 4'"
RCT18_ARROW_RESPECTING = "3' 3' 4 3 5 2' 3' 4 3 4 3 2 1' 2' 4 3 3' 4'"
RCT18_NOT_ARROW_RESPECTING = "3' 3' 4 3 5 2' 3' 3 2 1' 2' 4 4 3 4 3 3' 4'"
RCT18_NE_MAXIMAL = [(1, 1), (2, 2), (3, 5), (4, 6)]
RCT18_NONTAIL = [(4, 6)]

# A two-component ribbon conversion: swapping the top two letters of the
# order moves every 4 and 4' as shown.
RIBBON_START_ROWS = "1 1 1 1 4 4 4' / 1' 2 2 3 4' / 2 2' 3 4 4' / 2' 4 4 / 3 4' / 4 4' / 4'"
RIBBON_CONVERTED_ROWS = "1 1 1 1 4' 4 4 / 1' 2 2 3 4' / 2 2' 3 4' 4 / 2' 4' 4 / 3 4' / 4' 4 / 4"
RIBBON_TARGET_ORDER = "1 1' 2 2' 3 3' 4' 4"

# Worked five-box tableau over a six-letter alphabet.
T544_ROWS = "1 1 3' 4' 6 / 2' 3 4 4' / 3 3' 4' 5"
T544_SQREAD = "3 2' 3' 3 1 4' 5 4 1 3' 4' 4' 6"
T544_CREADING = "3 2' 1 3' 3 1 4' 4 3' 5 4' 4' 6"

# J_(2,1) over the alphabet 1 < 1' < 2 < 2', as printed by NCPoly.to_text:
# the 20 terms in natural-order word order.
JNU21_N2_TEXT = """\
+1 * 1' 1 1
+1 * 1' 1 1'
+1 * 1' 1 2
+1 * 1' 1 2'
+1 * 1' 1' 2
+1 * 1' 1' 2'
+1 * 2 1 1
+1 * 2 1 1'
+1 * 2 1 2
+1 * 2 1 2'
+1 * 2 1' 2
+1 * 2 1' 2'
+1 * 2' 1 1
+1 * 2' 1 1'
+1 * 2' 1 2
+1 * 2' 1 2'
+1 * 2' 1' 2
+1 * 2' 1' 2'
+1 * 2' 2 2
+1 * 2' 2 2'"""

# The 12 colored Yamanouchi words of content (3,1) with one barred letter,
# in the order enumerate_cyw returns them.
CYW31_D1_WORDS = [
    "1 1 1' 2",
    "1 1 2 1'",
    "1 1' 1 2",
    "1 1' 2 1",
    "1 2 1 1'",
    "1 2 1' 1",
    "1' 1 1 2",
    "1' 1 2 1",
    "1' 2 1 1",
    "2 1 1 1'",
    "2 1 1' 1",
    "2 1' 1 1",
]
