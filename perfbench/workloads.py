"""The benchmark's workloads: inputs from a seed, the timed library calls,
and the output gate.

Each workload is an exhaustive, deterministic enumeration.  The seed only
permutes the order of the queries wherever the library takes a list, so
every seed does the same work and must give the same answers.

* ``hook-census`` -- the paper's hook-shape Kronecker rule as users call it:
  every ``g_hook_rule`` and ``g_sum_rule`` at one size, each against the
  character oracle, plus the Schur expansion of ``F`` of every colored
  Yamanouchi set at smaller sizes against ``g_sum_rule``.  Time goes to word
  enumeration, insertion and reading words; the free algebra is unused.
* ``jnu-expand`` -- the reading-word expansion of ``J_nu`` modulo the
  Kronecker ideal: a few large noncommutative products with expression swell.
* ``congruence`` -- arrow-respecting reading words of every restricted
  tableau are congruent: many small membership queries and content-space
  builds, no large products.  Its driver takes no list, so the seed does not
  change it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

# Full scale is what the benchmark measures; small scale runs in seconds and
# serves the benchmark's own tests.  The census is at n=7, not n=8: an n=8
# child takes 11-18 s, so a run held only two or three of them and the
# median over ten seeds spread by a quarter; at n=7 a run holds about ten.
SCALES = {
    "hook-census": {"full": {"n": 7, "expand_max": 6}, "small": {"n": 5, "expand_max": 4}},
    "jnu-expand": {"full": {"N": 3, "max_size": 5}, "small": {"N": 2, "max_size": 4}},
    "congruence": {
        "full": {"max_boxes": 6, "N": 3, "tableaux": 43_930, "words": 94_528},
        "small": {"max_boxes": 4, "N": 2, "tableaux": 588, "words": 690},
    },
}


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, built here so that set-up leaves the library's
    caches cold."""
    out: list[tuple[int, ...]] = []

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, cap), 0, -1):
            gen(remaining - part, part, prefix + (part,))

    gen(n, n, ())
    return out


@dataclass
class Gate:
    """Checks attempted and failed, with failures split by reason."""

    attempted: int = 0
    mismatch: int = 0
    resource_limit: int = 0
    error: int = 0
    examples: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.mismatch + self.resource_limit + self.error

    def expect(self, ok: bool, example) -> None:
        self.attempted += 1
        if not ok:
            self.mismatch += 1
            if len(self.examples) < 5:
                self.examples.append(example)


@dataclass
class Workload:
    name: str
    expected_checks: Callable[[dict], int]
    build: Callable[[int, dict], dict]
    solve: Callable[[dict], dict]
    check: Callable[[dict, dict], Gate]
    digest: Callable[[dict], list]


# ---------------------------------------------------------------------------
# hook-census


def _census_build(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)
    n = scale["n"]
    shapes = partitions(n)
    hook = [(lam, d, nu) for lam in shapes for d in range(n) for nu in shapes]
    total = [(lam, d, nu) for lam in shapes for d in range(n + 1) for nu in shapes]
    expand = [(lam, d) for m in range(1, scale["expand_max"] + 1) for lam in partitions(m) for d in range(m + 1)]
    for queries in (hook, total, expand):
        rng.shuffle(queries)
    shapes_of = {m: partitions(m) for m in range(1, scale["expand_max"] + 1)}
    return {"hook": hook, "sum": total, "expand": expand, "shapes_of": shapes_of}


def _census_solve(inputs: dict) -> dict:
    from suprschur import alphabet_words, kronecker, symfun

    hook_rule, hook_oracle = kronecker.g_hook_rule, kronecker.g_hook_oracle
    sum_rule, sum_oracle = kronecker.g_sum_rule, kronecker.g_sum_oracle
    enumerate_cyw, F_of_set, schur_expand = alphabet_words.enumerate_cyw, symfun.F_of_set, symfun.schur_expand
    natural_order = alphabet_words.natural_order
    hook = [(hook_rule(lam, d, nu), hook_oracle(lam, d, nu)) for lam, d, nu in inputs["hook"]]
    total = [(sum_rule(lam, d, nu), sum_oracle(lam, d, nu)) for lam, d, nu in inputs["sum"]]
    expand = []
    for lam, d in inputs["expand"]:
        expansion = schur_expand(F_of_set(enumerate_cyw(lam, d), natural_order(len(lam))))
        expected = {nu: sum_rule(lam, d, nu) for nu in inputs["shapes_of"][sum(lam)]}
        expand.append((expansion, expected))
    return {"hook": hook, "sum": total, "expand": expand}


def _census_check(inputs: dict, results: dict) -> Gate:
    gate = Gate()
    for kind in ("hook", "sum"):
        for (lam, d, nu), (rule, oracle) in zip(inputs[kind], results[kind]):
            gate.expect(rule == oracle, {"rule": kind, "lam": lam, "d": d, "nu": nu, "got": rule, "oracle": oracle})
    for (lam, d), (expansion, expected) in zip(inputs["expand"], results["expand"]):
        for nu in set(expansion) | set(expected):
            got, want = expansion.get(nu, 0), expected.get(nu, 0)
            gate.expect(got == want, {"expand": True, "lam": lam, "d": d, "nu": nu, "schur": got, "sum_rule": want})
    return gate


def _census_expected_checks(inputs: dict) -> int:
    return len(inputs["hook"]) + len(inputs["sum"]) + sum(len(inputs["shapes_of"][sum(lam)]) for lam, _d in inputs["expand"])


def _census_digest(results: dict) -> list:
    return [
        sorted(results["hook"]),
        sorted(results["sum"]),
        sorted(sorted(expansion.items()) for expansion, _ in results["expand"]),
    ]


def census_fixed_points(results: dict) -> int:
    """Tableaux the census keeps: each (lam, d, nu) sum-rule value is queried
    exactly once, so their total is the number of insertion fixed points."""
    total = sum(rule for rule, _ in results["sum"])
    return total + sum(sum(expected.values()) for _, expected in results["expand"])


# ---------------------------------------------------------------------------
# jnu-expand


def _jnu_build(seed: int, scale: dict) -> dict:
    from suprschur.free_algebra import kron_ideal

    shapes = [nu for m in range(1, scale["max_size"] + 1) for nu in partitions(m)]
    random.Random(seed).shuffle(shapes)
    return {"ideal": kron_ideal(scale["N"]), "N": scale["N"], "max_size": scale["max_size"], "shapes": shapes}


def _jnu_solve(inputs: dict) -> dict:
    from suprschur import verify

    return verify.verify_jnu(inputs["ideal"], inputs["N"], inputs["max_size"], nu_list=inputs["shapes"])


def _jnu_check(inputs: dict, report: dict) -> Gate:
    gate = Gate()
    reported = {tuple(r["nu"]): r["member"] for r in report["results"]}
    for nu in inputs["shapes"]:
        gate.expect(reported.get(nu) is True, {"nu": nu, "member": reported.get(nu)})
    return gate


def _jnu_digest(report: dict) -> list:
    return sorted((r["nu"], r["member"]) for r in report["results"])


# ---------------------------------------------------------------------------
# congruence


def _congruence_build(seed: int, scale: dict) -> dict:
    return dict(scale)


def _congruence_solve(inputs: dict) -> dict:
    from suprschur import verify

    return verify.verify_reading_word_congruence(inputs["max_boxes"], inputs["N"])


def _congruence_check(inputs: dict, report: dict) -> Gate:
    """One check per reading word; the driver stops at its first
    non-congruent word, which is then the one failure."""
    gate = Gate(attempted=max(inputs["words"], report.get("words", 0)))
    if not report["ok"]:
        gate.mismatch += 1
        gate.examples.append({k: report.get(k) for k in ("tableau", "word")})
    for key in ("tableaux", "words"):
        if report.get(key) != inputs[key]:
            gate.mismatch += 1
            gate.examples.append({key: report.get(key), "expected": inputs[key]})
    return gate


def _congruence_digest(report: dict) -> list:
    return [report["ok"], report.get("tableaux"), report.get("words")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hook-census", _census_expected_checks, _census_build, _census_solve, _census_check, _census_digest),
        Workload("jnu-expand", lambda inputs: len(inputs["shapes"]), _jnu_build, _jnu_solve, _jnu_check, _jnu_digest),
        Workload(
            "congruence",
            lambda inputs: inputs["words"],
            _congruence_build,
            _congruence_solve,
            _congruence_check,
            _congruence_digest,
        ),
    )
}
