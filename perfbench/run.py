#!/usr/bin/env python3
"""eqmatch benchmark: seeded workloads, exact-count checks, traced layers.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark is closed-loop and single-process: one solve at a time.

Set-up writes the workload's instances (relabelled by ``--seed``) as LAD or
multiplex text under ``.perfbench/`` and parses them through
``eqmatch.cli.load_problem``. The run then repeats passes over the
workload's jobs while another pass fits in ``--seconds`` (at least one),
and reports per-job medians across passes. Every job's total must equal
the reference in ``data/``; any failed check makes the run exit 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the two
deadline probes, one untraced pass, then traced passes, and prints the
per-layer metrics; the spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl.gz``.

Timings are divided by the machine's speed factor (see ``speed.py``); the
lines before the final JSON object also give the raw seconds.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import Speed
from tracing import NullTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODES = ("ne", "te", "we", "tewe", "ce", "fe", "nc")
SETUP_REPEATS = 7


def median(values):
    return statistics.median(values) if values else 0.0


class Pass:
    """The outcomes of one pass, with each job's speed factor."""

    def __init__(self, outcomes, factors, seconds):
        self.outcomes = outcomes
        self.factors = factors
        self.seconds = seconds

    def normalised(self, i: int) -> float:
        return self.outcomes[i].seconds / self.factors[i]


def run_pass(jobs, problems, tracer, speed, directory, workloads) -> Pass:
    t0 = perf_counter()
    outcomes = []
    for i, (job, problem) in enumerate(zip(jobs, problems)):
        tracer.job = i
        try:
            out = workloads.run_job(job, problem, tracer, speed, directory)
        except Exception as exc:  # a failing solve is a measured failure
            now = perf_counter()
            out = workloads.Outcome(error=f"{type(exc).__name__}: {exc}",
                                    start=now, end=now)
        outcomes.append(out)
    factors = [speed.factor(o.start, o.end) for o in outcomes]
    return Pass(outcomes, factors, perf_counter() - t0)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    all order statistics, so one job's noise cannot move it alone."""
    ranked = sorted(values)
    n = len(ranked)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n  # midpoint rule for the Beta(a, b) density on [0, 1]
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[min(int(x * n), n - 1)] += math.exp(
            log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) / steps
    return sum(w * v for w, v in zip(weights, ranked)) / sum(weights)


def tail_quantile(n: int) -> float:
    """The highest quantile with ten of ``n`` jobs beyond it."""
    return max(n - 10, 1) / n


def end_to_end(jobs, passes, setup, failures):
    n = len(jobs)
    per_job = [median([p.normalised(i) for p in passes]) for i in range(n)]
    per_job_raw = [median([p.outcomes[i].seconds for p in passes]) for i in range(n)]
    q = tail_quantile(n)
    attempted = n * len(passes)
    metrics = {
        "setup_s": median([s / f for s, f in setup]),
        "total_solve_s": sum(per_job),
        "solve_s.p50": quantile(per_job, 0.5),
        "solve_s.tail": quantile(per_job, q),
        "completed_frac": (attempted - failures) / attempted,
        "classes_emitted": sum(o.representatives for o in passes[0].outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(passes), "solves_per_pass": n,
        "speed_factor": median([f for p in passes for f in p.factors]),
        "raw": {"setup_s": median([s for s, _ in setup]),
                "total_solve_s": sum(per_job_raw),
                "solve_s.p50": quantile(per_job_raw, 0.5),
                "solve_s.tail": quantile(per_job_raw, q)},
        "solve_s.tail": {"percentile": round(100 * q, 2), "samples": n},
    }
    return metrics, detail


def run_probes(probes, problems, speed, directory, workloads, errors) -> dict:
    """The deadline probes, untraced: the largest of the probes' median
    elapsed times, and the detail.

    The first ``timeout`` seconds are wall-clock by contract; only the
    overshoot is computation, so only it is divided by the speed factor."""
    rows = []
    for job, problem in zip(probes, problems):
        timeout = job.instance.probe_timeout
        raw, normalised = [], []
        for _ in range(job.instance.probe_repeats):
            t0 = perf_counter()
            try:
                out = workloads.run_cli(job, problem, NullTracer(), speed,
                                        directory, timeout=timeout)
            except Exception as exc:  # reported like a failed check
                out = workloads.Outcome(error=f"{type(exc).__name__}: {exc}",
                                        start=t0, end=perf_counter())
                out.seconds = out.end - t0
            if out.error:
                errors.append(f"{job.label}: {out.error}")
            raw.append(out.seconds)
            normalised.append(timeout + max(0.0, out.seconds - timeout)
                              / speed.factor(out.start, out.end))
        rows.append((median(raw), median(normalised), timeout))
    detail = {"raw_elapsed_s": max(raw for raw, _, _ in rows),
              "overshoot_s": {
                  "raw": max(max(0.0, raw - t) for raw, _, t in rows),
                  "normalised": max(norm - t for _, norm, t in rows)}}
    return max(norm for _, norm, _ in rows), detail


def per_layer(jobs, passes, tracers, untraced, setup_tracer, deadline):
    """Per-layer metrics: medians over the traced passes; exact counts
    from the first (the detail line lists them for every pass)."""
    def pass_metrics(p: Pass, tracer) -> dict:
        spans = tracer.spans
        own = self_times(spans)
        dur = [s[2] - s[1] for s in spans]
        total: dict[str, float] = {}
        selfs: dict[str, float] = {}
        count: dict[str, int] = {}
        for s, d, o in zip(spans, dur, own):
            total[s[0]] = total.get(s[0], 0.0) + d
            selfs[s[0]] = selfs.get(s[0], 0.0) + o
            count[s[0]] = count.get(s[0], 0) + 1
        solves = [i for i, s in enumerate(spans) if s[0] == "search.solve"]
        emitting = [i for i in solves if i in tracer.first_class]
        busy = sum(dur[i] for i in emitting)
        expand = total.get("search.expand", 0.0)
        maps = sum(o.maps for o in p.outcomes)
        m = {
            "graphs.dominates_calls": tracer.dominates_calls,
            "graphs.iso_checks": count.get("graphs.iso_check", 0),
            "graphs.iso_check_s": total.get("graphs.iso_check", 0.0),
            "candidates.init_s": total.get("candidates.init", 0.0),
            "candidates.cover_s": total.get("candidates.cover", 0.0),
            "equivalence.partition_s": total.get("equivalence.partition", 0.0),
            "equivalence.count_calls": count.get("equivalence.count", 0),
            "equivalence.count_s": selfs.get("equivalence.count", 0.0),
            "search.self_s": selfs.get("search.solve", 0.0),
            **{f"search.self_s.{mode}": sum(own[i] for i in solves
                                            if spans[i][5] == mode)
               for mode in MODES},
            "search.first_class_s": median(
                [tracer.first_class[i] - spans[i][1] for i in emitting]),
            "search.classes_per_s": (sum(tracer.classes[i] for i in emitting)
                                     / busy if busy else 0.0),
            "search.expand_s": expand,
            "search.expand_maps_per_s": maps / expand if expand else 0.0,
            "reporting.class_report_s": total.get("reporting.class_report", 0.0),
            "cli.overhead_s": (selfs.get("cli.run", 0.0)
                               + total.get("cli.on_class", 0.0)),
            "cli.bytes_written": sum(o.bytes_written for o in p.outcomes),
        }
        return m

    rows = [pass_metrics(p, t) for p, t in zip(passes, tracers)]
    exact = ("graphs.dominates_calls", "graphs.iso_checks",
             "equivalence.count_calls")
    metrics = {key: rows[0][key] if key in exact
               else median([r[key] for r in rows]) for key in rows[0]}
    metrics["graphs.parse_s"] = sum(s[2] - s[1] for s in setup_tracer.spans
                                    if s[0] == "graphs.parse")
    n = len(jobs)
    traced = median([sum(p.normalised(i) for i in range(n)) for p in passes])
    base = sum(untraced.normalised(i) for i in range(n))
    metrics["trace.overhead_frac"] = traced / base - 1.0
    metrics["search.deadline_elapsed_s"], deadline_detail = deadline
    detail = {"exact_counts_per_pass": {key: [r[key] for r in rows]
                                        for key in exact},
              "missing_targets": sorted({m for t in tracers for m in t.missing}),
              "deadline": deadline_detail}
    return metrics, detail


UNITS = {
    "setup_s": "s", "total_solve_s": "s", "solve_s.p50": "s",
    "solve_s.tail": "s", "completed_frac": "fraction",
    "classes_emitted": "count", "search.deadline_elapsed_s": "s",
    "peak_rss_mb": "MB",
    "graphs.parse_s": "s", "graphs.dominates_calls": "count",
    "graphs.iso_checks": "count", "graphs.iso_check_s": "s",
    "candidates.init_s": "s", "candidates.cover_s": "s",
    "equivalence.partition_s": "s", "equivalence.count_calls": "count",
    "equivalence.count_s": "s", "search.self_s": "s",
    **{f"search.self_s.{mode}": "s" for mode in MODES},
    "search.first_class_s": "s", "search.classes_per_s": "1/s",
    "search.expand_s": "s", "search.expand_maps_per_s": "1/s",
    "reporting.class_report_s": "s", "cli.overhead_s": "s",
    "cli.bytes_written": "bytes", "trace.overhead_frac": "fraction",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import eqmatch.cli  # the program under test
    except ImportError as exc:
        print(f"error: cannot import eqmatch from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(eqmatch.cli.__file__).resolve().parents:
        print(f"error: eqmatch was imported from {eqmatch.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        return run(args, workloads, directory, work)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run(args, workloads, directory: Path, work: Path) -> int:
    start = perf_counter()
    speed, null = Speed(), NullTracer()
    jobs, probes = workloads.load(args.workload, args.seed)
    workloads.write_files(jobs + probes, directory)

    setup = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        problems = workloads.load_all(jobs + probes)
        t1 = perf_counter()
        speed.sample()
        setup.append((t1 - t0, speed.factor(t0, t1)))

    errors: list[str] = []
    untraced = setup_tracer = deadline = None
    if args.trace:
        deadline = run_probes(probes, problems[len(jobs):], speed, directory,
                              workloads, errors)
        untraced = run_pass(jobs, problems, null, speed, directory, workloads)
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            workloads.load_all(jobs + probes)
        finally:
            setup_tracer.uninstall()

    passes, tracers = [], []
    while True:
        tracer = Tracer() if args.trace else null
        passes.append(run_pass(jobs, problems, tracer, speed, directory,
                               workloads))
        tracers.append(tracer)
        if perf_counter() - start + passes[-1].seconds > args.seconds:
            break

    checked = passes if untraced is None else [untraced] + passes
    failures = 0
    for p in checked:
        for job, out in zip(jobs, p.outcomes):
            if out.error:
                failures += 1
                errors.append(f"{job.label}: {out.error}")
    for i, job in enumerate(jobs):
        reps = {p.outcomes[i].representatives for p in checked
                if not p.outcomes[i].error}
        if len(reps) > 1:
            failures += 1
            errors.append(f"{job.label}: representatives differ between "
                          f"passes: {sorted(reps)}")

    if args.trace:
        metrics, detail = per_layer(jobs, passes, tracers, untraced,
                                    setup_tracer, deadline)
        spans_path = work / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for label, t in [("setup", setup_tracer)] + list(enumerate(tracers)):
                for span in t.spans:
                    fh.write(json.dumps([label] + span) + "\n")
        detail["spans"] = str(spans_path.relative_to(work.parent))
    else:
        metrics, detail = end_to_end(jobs, passes, setup, failures)

    attempted = len(jobs) * len(checked)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} measured pass(es) of {len(jobs)} solves")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {UNITS[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    for line in errors[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failures,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
