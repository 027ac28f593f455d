"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark measures that checkout's
``src/`` tree and nothing installed elsewhere.  It prints a report (every
metric by name with its unit, the failures, the provenance and, for a
traced run, the per-layer table), writes the full record to
``.perfbench_out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.

``--size tiny`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness  # standard library only until a workload runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    # Internal: a fresh-interpreter child of a run (see harness.run_child).
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Put the checkout's sources first on the path, or fail.

    Without ``src/repro`` there is nothing to measure; an installed copy
    elsewhere must never be measured in its place.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))


def render(outcome, record: dict) -> list[str]:
    """Human-readable report lines."""
    lines = [
        f"perfbench {outcome.workload} seed={outcome.seed} "
        f"seconds={outcome.seconds:g} trace={int(outcome.trace)} size={outcome.size}"
    ]
    fail_frac = outcome.failed / max(1, outcome.attempted)
    lines.append(
        f"  fail_frac = {fail_frac:.6g} ({outcome.failed}/{outcome.attempted} operations)"
    )
    for problem in outcome.failures:
        lines.append(f"  FAILED {problem}")
    if not outcome.trace:
        for name, item in record["metrics"].items():
            count = len(outcome.samples[name])
            lines.append(
                f"  {name} = {item['value']:.6g} {item['unit']} (samples: {count})"
            )
    for name, (value, unit, count) in outcome.report.items():
        lines.append(f"  {name} = {value:.6g} {unit} (samples: {count})")
    if outcome.trace:
        lines.append("  per-layer metrics (layer, unit, end-to-end metric it should move):")
        for name, unit, _, layer, moves in harness.LAYER_METRICS:
            value = record["metrics"][name]["value"]
            lines.append(f"    {name:34s} {value:<12.6g} {unit:6s} {layer:9s} -> {moves}")
    for key, value in record["provenance"].items():
        lines.append(f"  provenance.{key} = {value}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.child:
        out = harness.child_main(
            args.child, args.workload, args.seed, args.size, args.launched
        )
        print(json.dumps(out))
        return 0
    outcome = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.contract_metrics(),
    }
    record = dict(
        result,
        workload=outcome.workload,
        failures=outcome.failures,
        report={k: list(v) for k, v in outcome.report.items()},
        samples=outcome.samples,
        provenance=harness.provenance(outcome),
        spans=outcome.tracer.spans,
        span_totals=dict(outcome.tracer.totals),
    )
    for line in render(outcome, record):
        print(line)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{outcome.workload}-seed{outcome.seed}-trace{int(outcome.trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
