"""Helpers that more than one test module uses and the library does not."""

from collections import Counter

from suprschur.lascoux import knuth_class_analysis


def shape_counts(multiset):
    """Number of full multiplicity-one Knuth classes per insertion shape."""
    counts = Counter()
    for cls in knuth_class_analysis(multiset)["classes"]:
        counts[cls["shape"]] += 1
    return counts


def sqread_per_tableau(tab):
    """The diagonal reading word as ``sqread`` read it per tableau, before it
    went through the reader of the tableau's box set."""
    diagonals = {}
    for (r, c), x in tab.entries.items():
        diagonals.setdefault(r - c, []).append((r, x))
    out = []
    for d in sorted(diagonals, reverse=True):
        barred = []
        for _, x in sorted(diagonals[d], reverse=True):
            if x.barred:
                barred.append(x)
            else:
                out.append(x)
        out.extend(reversed(barred))
    return tuple(out)


def column_reading_per_tableau(tab):
    """The column reading word as ``column_reading`` read it per tableau."""
    columns = {}
    for box in tab.boxes:
        columns.setdefault(box[1], []).append(box)
    out = []
    for c in sorted(columns):
        out.extend(tab[b] for b in sorted(columns[c], reverse=True))
    return tuple(out)
