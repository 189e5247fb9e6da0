"""In-memory spans around the library's layer boundaries.

The tracer wraps public functions of ``suprschur`` at the module attribute
each caller looks them up through (for example ``suprschur.kronecker.insert``,
which the hook census calls, and ``suprschur.verify.J_nu``, which the verify
drivers call).  No library source is edited; the wrappers exist only in a
traced child process.

A span records name, start, end and parent.  A span that never opens a child
is a leaf; leaves are aggregated per (parent, name) into a count and a total,
so the 35k ``insert`` calls of the census cost one dictionary entry, not
35k records.  Every span also adds its self time (duration minus the time its
children cover) to a per-name total, which is what the per-layer metrics
report.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.leaves: dict[tuple[int | None, str], list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.content_keys: set[tuple] = set()
        self._stack: list[list] = []  # open frames: [name, start, child_s, id]
        self._next_id = 0

    def enter(self, name: str) -> None:
        if self._stack and self._stack[-1][3] is None:
            self._stack[-1][3] = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, None])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_s, sid = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        parent = self._stack[-1] if self._stack else None
        pid = None
        if parent is not None:
            parent[2] += duration
            pid = parent[3]
        if sid is None:
            leaf = self.leaves.get((pid, name))
            if leaf is None:
                self.leaves[(pid, name)] = [1, duration, start, end]
            else:
                leaf[0] += 1
                leaf[1] += duration
                leaf[3] = end
        else:
            self.spans.append((sid, name, start, end, pid))

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def balanced(self) -> bool:
        return not self._stack

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end, "parent": pid}
                for sid, name, start, end, pid in self.spans
            ],
            "leaves": [
                {"parent": pid, "name": name, "count": int(n), "total_s": total, "first_start": first, "last_end": last}
                for (pid, name), (n, total, first, last) in self.leaves.items()
            ],
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
        }
        path.write_text(json.dumps(record))


def _wrap_call(tracer: Tracer, fn, name: str, counters=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.call(name)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counters is not None:
            counters(tracer, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, fn, name: str, item_counter: str):
    """Each ``next`` is a span, so the generator's own work is charged to it
    and not to the consumer that drives it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.call(name)
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.count(item_counter)
            yield item

    return traced


def _count_words(key_extra: str | None = None):
    def counters(tracer: Tracer, args, words) -> None:
        tracer.count("alphabet_words.words", len(words))
        if key_extra is not None:
            tracer.count(key_extra, len(words))

    return counters


def _count_len(key: str):
    def counters(tracer: Tracer, args, result) -> None:
        tracer.count(key, len(result))

    return counters


def _count_terms(tracer: Tracer, args, poly) -> None:
    tracer.count("free_algebra.J_nu.terms", len(poly.terms))


def _traced_contains(tracer: Tracer, fn):
    """Membership span; its content split is taken outside the span, so the
    lookup counts do not inflate the measured membership time."""
    name = "free_algebra.contains"

    @functools.wraps(fn)
    def traced(spec, poly):
        contents = poly.content_split() if poly else {}
        tracer.count("free_algebra.content_lookups", len(contents))
        key = spec.key()
        tracer.content_keys.update((key, codes) for codes in contents)
        tracer.call(name)
        tracer.enter(name)
        try:
            return fn(spec, poly)
        finally:
            tracer.exit()

    return traced


def install(tracer: Tracer) -> None:
    """Replace the library's layer entry points by traced wrappers."""
    from suprschur import alphabet_words, free_algebra, kronecker, symfun, verify

    def patch(module, attr: str, name: str, counters=None) -> None:
        setattr(module, attr, _wrap_call(tracer, getattr(module, attr), name, counters))

    # words: the census and the symmetric-function check both enumerate
    patch(kronecker, "enumerate_cyw", "alphabet_words.enumerate_cyw", _count_words("census.words"))
    patch(alphabet_words, "enumerate_cyw", "alphabet_words.enumerate_cyw", _count_words())
    # tableaux
    patch(kronecker, "insert", "tableaux.insert")
    patch(kronecker, "sqread", "tableaux.sqread")
    patch(verify, "sqread", "tableaux.sqread")
    patch(verify, "enumerate_tableaux", "tableaux.enumerate", _count_len("tableaux.built"))
    verify.enumerate_fillings = _wrap_generator(tracer, verify.enumerate_fillings, "tableaux.enumerate", "tableaux.built")
    patch(verify, "arrow_respecting_words", "tableaux.arrow_words", _count_len("tableaux.arrow_words"))
    # algebra
    patch(verify, "J_nu", "free_algebra.J_nu", _count_terms)
    free_algebra.NCPoly.__mul__ = _wrap_call(tracer, free_algebra.NCPoly.__mul__, "free_algebra.mul")
    verify.ideal_contains = _traced_contains(tracer, verify.ideal_contains)
    # symmetric functions
    patch(symfun, "F_of_set", "symfun.F_of_set")
    patch(symfun, "schur_expand", "symfun.schur_expand")
    # Kronecker rules and oracle, as the benchmark calls them
    patch(kronecker, "g_hook_rule", "kronecker.hook_rule")
    patch(kronecker, "g_sum_rule", "kronecker.hook_rule")
    patch(kronecker, "g_hook_oracle", "kronecker.oracle")
    patch(kronecker, "g_sum_oracle", "kronecker.oracle")
    # verify drivers
    patch(verify, "verify_jnu", "verify.driver")
    patch(verify, "verify_reading_word_congruence", "verify.driver")


def layer_metrics(tracer: Tracer, fixed_points: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced solve, as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def timed(prefix: str, with_calls: bool = True) -> None:
        if with_calls:
            out[f"{prefix}.calls"] = (tracer.calls.get(prefix, 0), "count")
        out[f"{prefix}.s"] = (tracer.self_s.get(prefix, 0.0), "s")

    timed("alphabet_words.enumerate_cyw")
    out["alphabet_words.words"] = (tracer.counts.get("alphabet_words.words", 0), "count")
    timed("tableaux.insert")
    timed("tableaux.sqread")
    census_words = tracer.counts.get("census.words", 0)
    # useful outcomes over attempts; a census that builds only fixed points scores 1
    attempts = max(census_words, fixed_points)
    out["tableaux.fixed_point_ratio"] = (fixed_points / attempts if attempts else 0.0, "ratio")
    timed("tableaux.enumerate")
    out["tableaux.built"] = (tracer.counts.get("tableaux.built", 0), "count")
    timed("tableaux.arrow_words", with_calls=False)
    out["tableaux.arrow_words"] = (tracer.counts.get("tableaux.arrow_words", 0), "count")
    timed("free_algebra.J_nu")
    out["free_algebra.J_nu.terms"] = (tracer.counts.get("free_algebra.J_nu.terms", 0), "count")
    timed("free_algebra.mul")
    timed("free_algebra.contains")
    out["free_algebra.content_lookups"] = (tracer.counts.get("free_algebra.content_lookups", 0), "count")
    out["free_algebra.content_spaces"] = (len(tracer.content_keys), "count")
    timed("symfun.F_of_set")
    timed("symfun.schur_expand")
    timed("kronecker.hook_rule")
    timed("kronecker.oracle")
    timed("verify.driver", with_calls=False)
    return out
