"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode_stream --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the program from ``src/`` of
the checkout it sits in.  Report lines (environment, guard, workload
properties, named metrics) come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer ones, and the spans are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GUARD_ENV = "SGB_MAX_N"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("decode_stream", "build_ladder", "verify_paper"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def result_line(res, trace: bool) -> dict:
    from workloads import END_TO_END, PER_LAYER

    if trace:
        # per-layer metrics of another workload's layers read 0: no such call was made
        metrics = {name: {"value": float(res.values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(res.values[name]), "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    led = res.ledger
    return {"correct": led.failed == 0 and led.attempted > 0, "attempted": led.attempted,
            "failed": led.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "schubert_gb" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if GUARD_ENV in os.environ:
        print(f"error: {GUARD_ENV} is set; the n=24 rung sits exactly at the default "
              "enumeration guard, so the benchmark runs only with the default", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    start = perf_counter()
    res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    wall = perf_counter() - start

    lines = workloads.environment_lines(args.workload, args.seed, args.seconds, bool(args.trace))
    lines += res.lines
    led = res.ledger
    lines.append(f"metric fail_ratio {led.failed / max(led.attempted, 1):.6g} ratio "
                 f"(failed={led.failed} attempted={led.attempted})")
    lines += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in res.extra.items()]
    if not args.trace:
        lines += [f"metric {name} {res.values[name]:.6g} {unit}"
                  for name, (unit, _) in workloads.END_TO_END.items()]
    lines.append(f"run wall_s={wall:.3f} trace={args.trace}")
    lines += [f"failure {reason}" for reason in led.reasons]
    if args.trace:
        path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        lines.append(f"trace spans={len(tracer.spans)} file={path.relative_to(HERE.parent)}")
    print("\n".join(lines))
    print(json.dumps(result_line(res, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
