"""The closed loop, the set-up, the metrics and the report of one run."""

from __future__ import annotations

import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import zlib
from time import perf_counter

import tracing
from workloads import KNOWN_DEFECTS, InputsExhausted, Outcome, Result

SETUP_REPEATS = 5
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Spool:
    """Job outputs, compressed, in an unnamed file until the checks.

    Kept in memory, they would raise peak_rss_mb with the number of jobs a
    run completes.
    """

    def __init__(self):
        os.makedirs(OUT, exist_ok=True)
        self.file = tempfile.TemporaryFile(dir=OUT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def put(self, text: str) -> tuple[int, int]:
        data = zlib.compress(text.encode("utf-8"), 1)
        offset = self.file.seek(0, os.SEEK_END)
        self.file.write(data)
        return offset, len(data)

    def get(self, ref: tuple[int, int]) -> str:
        self.file.seek(ref[0])
        return zlib.decompress(self.file.read(ref[1])).decode("utf-8")


def run_job(main, job, spool):
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, err
    code, error = None, None
    start = perf_counter()
    try:
        code = main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failed job is recorded, not fatal
        error = (type(exc), str(exc))  # no traceback: it would keep the job's frames alive
    finally:
        seconds = perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(job, seconds, code, error, err.getvalue(), spool, spool.put(out.getvalue()))


def set_up(cli, workload_cls, seed, spool):
    """Build the workload and run one untimed warm-up job, several times.

    Each repeat builds from the same seed and warms up on its own input, so
    no repeat is served from the bit-view cache of the one before.
    """
    times, warm_keys = [], set()
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        workload = workload_cls(seed)
        first = workload.round()
        warm = run_job(cli.main, workload.warmup(i), spool)
        times.append(perf_counter() - start)
        warm_keys.add((tuple(warm.job.argv), warm.job.stdin))
    workload.seen |= warm_keys
    return workload, first, warm, times


IMPORT = ("import sys; from time import perf_counter; sys.path.insert(0, sys.argv[1]); "
          "start = perf_counter(); import polyconcept.cli; print(perf_counter() - start)")


def import_times():
    """The library import, timed in fresh interpreters, one after another."""
    src = os.path.abspath("src")
    return [float(subprocess.run([sys.executable, "-c", IMPORT, src], capture_output=True,
                                 text=True, check=True, timeout=60).stdout)
            for _ in range(SETUP_REPEATS)]


def timed_rounds(cli, workload, first, seconds, spool):
    """Whole rounds until the summed job time reaches seconds."""
    results, busy, pending, note = [], 0.0, first, ""
    while True:
        for job in pending:
            res = run_job(cli.main, job, spool)
            results.append(res)
            busy += res.seconds
        if busy >= seconds:
            break
        try:
            pending = workload.round()
        except InputsExhausted as exc:
            note = f"stopped early: {exc}"
            break
    return results, note


def tail(latencies):
    """The highest percentile with at least ten jobs beyond it, and its rank."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def checked(workload, results):
    outcomes = [workload.outcome(r) for r in results]
    unexpected = [(r, o) for r, o in zip(results, outcomes) if o.status == "fail"]
    known = {}
    for o in outcomes:
        if o.status == "known":
            known[o.note] = known.get(o.note, 0) + 1
    return outcomes, unexpected, known


def end_to_end(workload, results, outcomes, setup_s, imports, setup_times, rss_mb):
    """The JSON metrics, and report lines for all eight end-to-end metrics."""
    returned = [r for r in results if r.returned]
    busy = sum(r.seconds for r in results)
    lat_ms = [1000.0 * r.seconds for r in returned] or [0.0]
    n = len(lat_ms)
    tail_ms, tail_pct = tail(lat_ms)
    failed = sum(o.status != "ok" for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(returned) / busy, "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        "median of imports " + ", ".join(f"{t:.3f}" for t in imports)
        + " + median of set-ups " + ", ".join(f"{t:.3f}" for t in setup_times),
        f"{len(returned)} jobs returned in {busy:.3f} s of job time",
        f"n={n}",
        f"p{tail_pct:.1f}, n={n}, {min(10, n - 1)} jobs beyond it",
        "ru_maxrss after the timed phase",
    ]
    lines = [f"{name:15s} {value:14.4f} {unit:5s} {note}"
             for (name, (value, unit)), note in zip(metrics.items(), notes)]
    units = sum(o.units for o in outcomes if o.status == "ok")
    for unit in ("concepts", "orbits"):
        value = f"{units / busy:14.4f}" if unit == workload.unit else f"{'n/a':>14s}"
        lines.append(f"{unit + '_per_s':15s} {value} 1/s   {unit} in checked outputs")
    lines.append(f"{'failed_frac':15s} {failed / len(results):14.4f} ratio "
                 f"{failed} of {len(results)} jobs")
    return metrics, lines, failed


def run_probe(cli, workload, spool):
    """The untimed probe jobs, checked; neither attempted nor failed counts them."""
    results = [run_job(cli.main, job, spool) for job in workload.probe()]
    _, unexpected, known = checked(workload, results)
    lines = []
    for cls in workload.probe_classes:
        n = sum(r.job.kind == cls[0] for r in results)
        lines.append(f"probe {cls[0]}: {n} untimed jobs")
    lines += [f"known defect {defect}: {count} probe jobs ({KNOWN_DEFECTS[defect]})"
              for defect, count in sorted(known.items())]
    return unexpected, lines


def print_report(args, results, unexpected, lines):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  jobs {len(results)}")
    for line in lines:
        print("  " + line)
    for res, outcome in unexpected[:5]:
        print(f"  FAILED {res.job.kind} {' '.join(res.job.argv)}: {outcome.note}")


def measure(args, cli, spool, workload, first, warm, setup_times):
    """--trace 0: the end-to-end metrics."""
    imports = import_times()
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    results, note = timed_rounds(cli, workload, first, args.seconds, spool)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes, unexpected, _ = checked(workload, [warm] + results)
    metrics, lines, failed = end_to_end(workload, results, outcomes[1:], setup_s,
                                        imports, setup_times, rss_mb)
    if note:
        lines.append(note)
    probe_unexpected, probe_lines = run_probe(cli, workload, spool)
    print_report(args, results, unexpected + probe_unexpected, lines + probe_lines)
    return not unexpected, len(results), failed, metrics


def trace(args, cli, spool, workload, first, warm):
    """--trace 1: the per-layer metrics, from a fixed list of jobs run twice."""
    jobs = first + [job for _ in range(workload.trace_rounds - 1) for job in workload.round()]
    tracing.clear_bits_cache()
    plain = [run_job(cli.main, job, spool) for job in jobs]
    tracer = tracing.Tracer()
    tracing.clear_bits_cache()
    before = tracing.bits_cache_info()
    traced_main = tracer.wrap("cli.main", cli.main)
    traced = []
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.job = i
            traced.append(run_job(traced_main, job, spool))
    finally:
        tracer.uninstall()
    after = tracing.bits_cache_info()
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    values = tracer.layer_metrics(before, after, traced_s / plain_s - 1.0)

    outcomes, unexpected, _ = checked(workload, [warm] + plain)
    failed = 0
    for p, t, outcome in zip(plain, traced, outcomes[1:]):
        differs = (p.code, p.error, p.stdout) != (t.code, t.error, t.stdout)
        if differs:
            unexpected.append((t, Outcome("fail", "traced output differs from untraced")))
        failed += (outcome.status != "ok") + (outcome.status != "ok" or differs)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "jobs": [[j.kind] + j.argv for j in jobs]})

    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
    lines = [f"2 passes over the same jobs: untraced {plain_s:.4f} s, traced {traced_s:.4f} s"]
    lines += [f"{name:38s} {value:16.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"absent: {hook}" for hook in tracer.absent]
    idle = sorted({name for _, _, name, _ in tracing.HOOKS} - {span[0] for span in tracer.spans})
    lines.append("absent, never called on this workload (their metrics read 0): "
                 + (", ".join(idle) or "none"))
    probe_unexpected, probe_lines = run_probe(cli, workload, spool)
    print_report(args, jobs, unexpected + probe_unexpected, lines + probe_lines)
    return not unexpected, 2 * len(jobs), failed, metrics
