"""Helpers that more than one test module uses and the library does not."""

from collections import Counter

from suprschur.lascoux import knuth_class_analysis


def shape_counts(multiset):
    """Number of full multiplicity-one Knuth classes per insertion shape."""
    counts = Counter()
    for cls in knuth_class_analysis(multiset)["classes"]:
        counts[cls["shape"]] += 1
    return counts
