"""One workload, once, in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Modes:

* ``setup`` -- import the library and build the inputs, then stop;
* ``solve`` -- also run the workload untraced and gate its outputs;
* ``trace`` -- the same with the layer wrappers installed, writing the spans
  to the given file.

Set-up time counts from ``--spawned-at``, a ``time.monotonic()`` reading the
parent takes just before it starts this process; on Linux that clock is
system-wide, so the difference covers interpreter start, imports and input
building.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import SCALES, WORKLOADS, Gate, census_fixed_points


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--mode", choices=("setup", "solve", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()

    import suprschur
    from suprschur.errors import ResourceLimitError
    from suprschur.free_algebra import monomial_budget
    from suprschur.kronecker import ORACLE_BUDGET

    if not Path(suprschur.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"imported suprschur from {suprschur.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, SCALES[args.workload][args.scale])
    setup_s = time.monotonic() - args.spawned_at
    out = {
        "setup_s": setup_s,
        "budgets": {"monomial_budget": monomial_budget(), "ORACLE_BUDGET": ORACLE_BUDGET},
        "python": sys.version.split()[0],
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer, install, layer_metrics

            tracer = Tracer()
            install(tracer)
            tracer.enter("bench.solve")
        reason = None
        start = time.perf_counter()
        try:
            results = workload.solve(inputs)
        except ResourceLimitError as exc:
            results, reason = None, ("resource_limit", f"{exc} (required={exc.required})")
        except Exception:  # the gate reports any raise as a failed run, with its traceback
            results, reason = None, ("error", traceback.format_exc(limit=5))
        solve_s = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
        if results is None:
            gate = Gate(attempted=workload.expected_checks(inputs))
            setattr(gate, reason[0], gate.attempted)
            gate.examples.append(reason[1])
            digest = None
        else:
            gate = workload.check(inputs, results)
            blob = json.dumps(workload.digest(results), sort_keys=True, default=str)
            digest = hashlib.sha256(blob.encode()).hexdigest()
        out.update(
            solve_s=solve_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=gate.attempted,
            failed=gate.failed,
            failures={"mismatch": gate.mismatch, "resource_limit": gate.resource_limit, "error": gate.error},
            examples=gate.examples,
            digest=digest,
        )
        if tracer is not None:
            fixed = census_fixed_points(results) if results is not None and args.workload == "hook-census" else 0
            out["layers"] = layer_metrics(tracer, fixed)
            # self times telescope to the root span, which must match the
            # measured solve time and leave no span open
            accounted = sum(tracer.self_s.values())
            out["trace_balanced"] = tracer.balanced
            out["trace_unaccounted_s"] = solve_s - accounted
            if args.spans is not None:
                tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
