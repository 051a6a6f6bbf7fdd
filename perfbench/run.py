#!/usr/bin/env python3
"""Benchmark of the borwin solver on seeded corpora.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload huc-long --seed 0 --seconds 40 --trace 0

Workloads: huc-long, huc-short, dag-mixed (see perfbench/NOTES.md).
``--seed`` orders the solves; ``--corpus-seed`` shifts every generator
seed of the corpus (default 0, the corpus the reference answers cover).
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones. Each metric is printed by name and
unit; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Rows, checks and spans are written under
.bench_out/ in the checkout. The library is imported from the
checkout's src/ and nowhere else; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "borwin" / "__init__.py").is_file():
        print(f"error: no borwin sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import borwin

    if Path(borwin.__file__).resolve().parent != (src / "borwin").resolve():
        print(f"error: imported borwin from {borwin.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.corpus.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.corpus_seed,
                         out_dir=ROOT / ".bench_out")
    details = result.pop("details")
    print(f"workload {details['workload']}  seed {details['seed']}  corpus seed {details['corpus_seed']}"
          f"  instances {details['instances']}  corpus sha256 {details['corpus_sha256']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<26} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'fail_frac':<26} {result['failed'] / result['attempted']:>16.6f} ratio"
          f"  ({result['failed']} of {result['attempted']} solves)")
    print(f"  wall clock, not rescaled: solve_s {details['wall_solve_s']:.6f} s, setup_s {details['wall_setup_s']:.6f} s;"
          f" median speed probe {details['probe_ms']:.4f} ms against {harness.speed.REF_PROBE_S * 1000:.4f} ms")
    if "largest_self_layer" in details:
        print(f"  largest self-time layer: {details['largest_self_layer']}")
        if details["stats_pops_mismatch"]:
            print(f"  SolveStats pops differ from counted pops on: {', '.join(details['stats_pops_mismatch'])}")
    for row in details["rows"]:
        for failure in row["failures"]:
            print(f"  FAILED {row['instance']} [{failure['check']}] {failure['message']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
