"""Self-tests of the benchmark (stdlib only; about a minute).

    python3 -m unittest perfbench/test_perfbench.py

Run from the root of a checkout.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

WORK = ROOT / ".perfbench"


def scratch() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))


class TempDirs(unittest.TestCase):
    def tmp(self) -> Path:
        d = scratch()
        self.addCleanup(shutil.rmtree, d, True)
        return d


class InstanceFiles(TempDirs):
    def files(self, workload: str, seed: int) -> dict[str, bytes]:
        jobs, probes = workloads.load(workload, seed)
        d = self.tmp()
        workloads.write_files(jobs + probes, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in workloads.WORKLOADS:
            first = self.files(workload, 11)
            self.assertEqual(first, self.files(workload, 11))
            other = self.files(workload, 12)
            self.assertEqual(first.keys(), other.keys())
            changed = [name for name in first if first[name] != other[name]]
            self.assertTrue(changed)
            self.assertFalse([n for n in changed if n.startswith("probe.")])

    def test_relabelled_files_parse_to_the_reference_sizes(self):
        jobs, _ = workloads.load("planted", 3)
        workloads.write_files(jobs, self.tmp())
        for job, problem in zip(jobs, workloads.load_all(jobs)):
            self.assertEqual(problem.world.vertex_count, job.instance.nw)
            self.assertEqual(sum(len(o) for o in problem.world.out),
                             len(job.instance.world_arcs))


def small_jobs(seed: int):
    """A few fast jobs through both the API and the CLI path."""
    jobs, _ = workloads.load("compress", seed)
    return [j for j in jobs if j.instance.name in ("star3in10", "sparse1")
            and j.mode in ("ne", "tewe", "fe", "nc")]


class Tracing(TempDirs):
    def traced_pass(self, seed: int):
        jobs = small_jobs(seed)
        d = self.tmp()
        workloads.write_files(jobs, d)
        problems = workloads.load_all(jobs)
        tracer = tracing.Tracer()
        p = run.run_pass(jobs, problems, tracer, Speed(), d, workloads)
        return tracer, p

    def test_wrappers_restore_the_program(self):
        before = {}
        for module_name, attr, _ in tracing.TARGETS:
            module = importlib.import_module(module_name)
            before[module_name, attr] = getattr(module, attr)
        tracer, p = self.traced_pass(1)
        self.assertTrue(tracer.spans)
        self.assertFalse([o.error for o in p.outcomes if o.error])
        for (module_name, attr), fn in before.items():
            module = importlib.import_module(module_name)
            self.assertIs(getattr(module, attr), fn, f"{module_name}.{attr}")

    def test_exact_counts_repeat(self):
        runs = []
        for _ in range(2):
            tracer, p = self.traced_pass(4)
            names = [s[0] for s in tracer.spans]
            runs.append((tracer.dominates_calls,
                         names.count("equivalence.count"),
                         names.count("graphs.iso_check"),
                         [o.representatives for o in p.outcomes]))
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0][0], 0)
        self.assertGreater(runs[0][1], 0)

    def test_self_time_subtracts_children(self):
        spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
                 ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 6.0, 0, 0, None]]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])


class Checks(TempDirs):
    def test_wrong_reference_total_fails_the_job(self):
        jobs = small_jobs(2)
        d = self.tmp()
        workloads.write_files(jobs, d)
        problems = workloads.load_all(jobs)
        for i in (0, -1):  # one API job, one CLI job
            job, problem = jobs[i], problems[i]
            out = workloads.run_job(job, problem, tracing.NullTracer(), Speed(), d)
            self.assertIsNone(out.error)
            job.instance.total += 1
            out = workloads.run_job(job, problem, tracing.NullTracer(), Speed(), d)
            self.assertIn("differs from the reference", out.error)

    def test_quantiles(self):
        self.assertEqual(run.tail_quantile(100), 0.9)
        self.assertEqual(run.tail_quantile(5), 0.2)
        values = list(range(101))
        self.assertAlmostEqual(run.quantile(values, 0.5), 50.0, places=6)
        self.assertAlmostEqual(run.quantile(values, 0.9), 90.0, delta=0.5)
        self.assertAlmostEqual(run.quantile([3.0] * 7, 0.9), 3.0)


class Output(unittest.TestCase):
    def run_main(self, trace: int) -> tuple[int, dict]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "compress", "--seed", "5",
                             "--seconds", "1", "--trace", str(trace)])
        return code, json.loads(buf.getvalue().splitlines()[-1])

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = self.run_main(trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                              "metrics"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, declared)

    def test_fails_without_the_program(self):
        d = scratch()
        self.addCleanup(shutil.rmtree, d, True)
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(HERE, d / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "planted",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
