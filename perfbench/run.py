"""polyconcept benchmark: end-to-end CLI jobs, and a traced run per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload enum-dense --seed 1 --seconds 15 --trace 0

Each job is one in-process call of polyconcept.cli.main(argv) with stdin,
stdout and stderr bound to in-memory buffers: the shell command minus
interpreter start-up.  Jobs run in a closed loop, one client, one job at a
time, in this process only.  The library is imported from ./src and nowhere
else; without it the benchmark exits with status 1 and prints no result.

--trace 0 times whole rounds of jobs until --seconds of job time have passed
and reports the end-to-end metrics.  --trace 1 runs the workload's fixed
number of rounds twice, untraced and then traced with the hooks of
tracing.py, and reports the per-layer metrics and the tracing overhead.
Either way every output is checked after the timed phase, a report is
printed, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  DESIGN.md says what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def import_library():
    """polyconcept.cli from ./src; exits when the checkout has no sources."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "polyconcept", "cli.py")):
        sys.exit(f"perfbench: no polyconcept sources under {src}; "
                 "run from the root of a checkout")
    sys.path.insert(0, src)
    import polyconcept.cli
    if not os.path.abspath(polyconcept.cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: polyconcept was imported from {polyconcept.cli.__file__}")
    return polyconcept.cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_library()
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")

    with harness.Spool() as spool:
        workload, first, warm, setup_times = harness.set_up(
            cli, WORKLOADS[args.workload], args.seed, spool)
        if args.trace:
            correct, attempted, failed, metrics = harness.trace(
                args, cli, spool, workload, first, warm)
        else:
            correct, attempted, failed, metrics = harness.measure(
                args, cli, spool, workload, first, warm, setup_times)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
