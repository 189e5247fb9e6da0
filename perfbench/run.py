"""The suprschur benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload hook-census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
The library's caches are global to the process, so every measurement is a
fresh child process (``child.py``), started one at a time: a closed loop
with one client on a single thread.  A run first starts a few set-up-only
children, then full workload children until the next one would end after
``--seconds``.

``--trace 0`` reports the end-to-end metrics as medians over the children:
``setup_s``, ``solve_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics of the traced
ones, with ``trace.overhead_frac`` from the pair of medians.

Every child's outputs pass a gate against an independent oracle; checks that
mismatched or raised count as failed, and any failure makes ``correct``
false and the exit code 1.  The last line of standard output is the result;
the line before it, also written to ``.bench_out/``, records the run's
environment and every child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 160


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    def __init__(self, root: Path, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.env = dict(os.environ)
        self.env.pop("SUPRSCHUR_BUDGET", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.out_dir = root / ".bench_out"
        self.children: list[dict] = []

    def child(self, mode: str) -> dict:
        spans = self.out_dir / f"spans-{self.args.workload}-seed{self.args.seed}-{len(self.children)}.json"
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--scale", self.args.scale,
            "--mode", mode,
            "--src", str(self.root / "src"),
        ]
        if mode == "trace":
            cmd += ["--spans", str(spans)]
        started = time.monotonic()
        done = subprocess.run(
            cmd + ["--spawned-at", repr(started)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{mode} child exited with code {done.returncode}")
        record = json.loads(done.stdout.strip().splitlines()[-1])
        record.update(mode=mode, wall_s=time.monotonic() - started)
        self.children.append(record)
        return record


def _median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full", help="small: seconds-long, for the benchmark's tests")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "suprschur" / "__init__.py").is_file():
        print(f"no suprschur sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    runner = Runner(root, args)
    begin = time.monotonic()
    for _ in range(SETUP_PROBES):
        runner.child("setup")
    # untraced only, or untraced and traced in turn; a trace run needs one of each
    modes = ("solve", "trace") if args.trace else ("solve",)
    took: dict[str, list[float]] = {mode: [] for mode in modes}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        if i >= len(modes) and time.monotonic() - begin + statistics.median(took[mode]) > args.seconds:
            break
        took[mode].append(runner.child(mode)["wall_s"])
        i += 1

    solved = [r for r in runner.children if r["mode"] != "setup"]
    untraced = [r for r in solved if r["mode"] == "solve"]
    traced = [r for r in solved if r["mode"] == "trace"]
    attempted = sum(r["attempted"] for r in solved)
    failed = sum(r["failed"] for r in solved)
    digests = {r["digest"] for r in solved}
    traces_ok = all(r["trace_balanced"] and abs(r["trace_unaccounted_s"]) < 0.01 * r["solve_s"] for r in traced)
    correct = failed == 0 and len(digests) == 1 and traces_ok

    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            unit = traced[0]["layers"][name][1]
            metrics[name] = {"value": statistics.median_low(r["layers"][name][0] for r in traced), "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": _median_of(traced, "solve_s") / _median_of(untraced, "solve_s") - 1,
            "unit": "frac",
        }
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "frac"}
    else:
        metrics = {
            "setup_s": {"value": _median_of(runner.children, "setup_s"), "unit": "s"},
            "solve_s": {"value": _median_of(untraced, "solve_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median_of(untraced, "peak_rss_mb"), "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_commit": _git_commit(root),
        "python": runner.children[0]["python"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "budgets": runner.children[0]["budgets"],
        "SUPRSCHUR_BUDGET": "unset",
        "failed_frac": failed / attempted,
        "digests": sorted(d or "none" for d in digests),
        "traces_ok": traces_ok,
        "children": runner.children,
    }
    runner.out_dir.mkdir(exist_ok=True)
    (runner.out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "children"}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
