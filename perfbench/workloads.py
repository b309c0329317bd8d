"""Workload instances, their seeded relabelling, and the jobs that solve them.

``data/<workload>.jsonl`` holds each base instance with its modes, timeout
and reference total (see ``build_data.py``). ``--seed`` picks a random
relabelling of the template and world vertices and of the channels, and
the order of the lines in each file (sorted order when nothing is
relabelled). A relabelling keeps every total, so
the references hold for every seed, while the search meets the vertices
in a different order.

A job is one (instance, mode) solve. ``api`` jobs call ``eqmatch.solve``
on the problem that set-up loaded; ``cli`` jobs call ``eqmatch.cli.run``
on the job's instance files with ``--solutions`` and ``--dot``. Checks run after
the timed part and never count towards its time.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import eqmatch
import eqmatch.cli

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("planted", "compress", "census")
EXPAND_BUDGET = 256  # mappings expanded per class


@dataclass
class Instance:
    name: str
    timeout: float
    total: int
    via: str                     # "api" or "cli"
    fmt: str                     # "lad" or "multiplex"
    template: str                # file text
    world: str
    template_arcs: list[tuple[int, int, tuple[int, ...]]]
    world_arcs: dict[tuple[int, int], tuple[int, ...]]
    nt: int
    nw: int
    probe_timeout: float | None = None
    probe_repeats: int = 1
    template_path: Path | None = None
    world_path: Path | None = None

    def is_isomorphism(self, mapping: dict[int, int]) -> bool:
        """Injective, total and multiplicity-dominant (independent of the
        program's own checker)."""
        if sorted(mapping) != list(range(self.nt)):
            return False
        images = list(mapping.values())
        if len(set(images)) != self.nt or not all(0 <= c < self.nw for c in images):
            return False
        for u, v, need in self.template_arcs:
            have = self.world_arcs.get((mapping[u], mapping[v]))
            if have is None or any(h < n for h, n in zip(have, need) if n > 0):
                return False
        return True


@dataclass
class Job:
    instance: Instance
    mode: str
    expand: str = "none"         # "none", "first" (a check) or "all" (timed)

    @property
    def label(self) -> str:
        return f"{self.instance.name}/{self.mode}"


@dataclass
class Outcome:
    seconds: float = 0.0         # timed part: search (+ expansion, reports) or cli.run
    start: float = 0.0
    end: float = 0.0
    representatives: int = 0
    error: str | None = None
    bytes_written: int = 0
    maps: int = 0                # expanded mappings


def _relabel(graph: dict, perm: list[int], chperm: list[int]):
    arcs: dict[tuple[int, int], list[int]] = {}
    for u, v, ch, m in graph["edges"]:
        mult = arcs.setdefault((perm[u], perm[v]), [0] * graph["channels"])
        mult[chperm[ch - 1]] += m
    return {key: tuple(m) for key, m in arcs.items()}


def _text(n: int, channels: int, arcs: dict, fmt: str, shuffle) -> str:
    if fmt == "lad":
        out = [[] for _ in range(n)]
        for u, v in sorted(arcs):
            out[u].append(v)
        lines = [str(n)]
        for nbrs in out:
            shuffle(nbrs)
            lines.append(" ".join(map(str, [len(nbrs)] + nbrs)))
        return "\n".join(lines) + "\n"
    quads = [(u, v, ch, m) for (u, v), mult in sorted(arcs.items())
             for ch, m in enumerate(mult, start=1) if m > 0]
    shuffle(quads)
    return "\n".join([f"{n} {channels}"] + [" ".join(map(str, q)) for q in quads]) + "\n"


def make_instance(rec: dict, key: str | None) -> Instance:
    """The base instance ``rec`` relabelled by the random stream ``key``
    (kept as it is for ``None``)."""
    shuffle = list.sort if key is None else random.Random(key).shuffle
    t, w = rec["template"], rec["world"]
    k = t["channels"]
    tperm, wperm, chperm = (list(range(t["n"])), list(range(w["n"])),
                            list(range(k)))
    for perm in (tperm, wperm, chperm):
        shuffle(perm)
    tarcs, warcs = _relabel(t, tperm, chperm), _relabel(w, wperm, chperm)
    simple = k == 1 and all(m == (1,) for m in (*tarcs.values(), *warcs.values()))
    fmt = "lad" if simple else "multiplex"
    return Instance(
        name=rec["name"], timeout=rec["timeout"],
        total=int(rec["total"]), via=rec.get("via", "api"), fmt=fmt,
        template=_text(t["n"], k, tarcs, fmt, shuffle),
        world=_text(w["n"], k, warcs, fmt, shuffle),
        template_arcs=[(u, v, m) for (u, v), m in tarcs.items()],
        world_arcs=warcs, nt=t["n"], nw=w["n"],
        probe_timeout=rec.get("probe_timeout"),
        probe_repeats=rec.get("probe_repeats", 1))


def _records(name: str) -> list[dict]:
    lines = (DATA / f"{name}.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line]


def load(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """(jobs of ``workload``, deadline probes).

    Every (instance, mode) job gets its own relabelling of the instance, so
    the modes of one instance also average over vertex orders, to which
    the filter's cost is sensitive. The probes are fixed instances: they
    measure the timeout contract, not a workload."""
    expand = {"planted": "first", "compress": "all", "census": "first"}[workload]
    jobs = []
    for rec in _records(workload):
        for mode in rec["modes"]:
            inst = make_instance(rec, f"{seed}:{rec['name']}:{mode}")
            jobs.append(Job(inst, mode, expand if inst.via == "api" else "first"))
    probes = [Job(make_instance(rec, None), rec["modes"][0])
              for rec in _records("probes")]
    return jobs, probes


def write_files(jobs: list[Job], directory: Path) -> None:
    ext = {"lad": "lad", "multiplex": "mpx"}
    for job in jobs:
        inst = job.instance
        stem = f"{inst.name}.{job.mode}"
        inst.template_path = directory / f"{stem}.template.{ext[inst.fmt]}"
        inst.world_path = directory / f"{stem}.world.{ext[inst.fmt]}"
        inst.template_path.write_text(inst.template)
        inst.world_path.write_text(inst.world)


def load_all(jobs: list[Job]) -> list[eqmatch.Problem]:
    """Set-up: parse every job's instance files through the CLI's loader."""
    return [eqmatch.cli.load_problem(job.instance.template_path,
                                     job.instance.world_path, job.instance.fmt)
            for job in jobs]


def _check_expansion(inst: Instance, sc, maps: list[dict]) -> str | None:
    if not all(inst.is_isomorphism(m) for m in maps):
        return "an expanded mapping is not a subgraph isomorphism"
    if sc.count <= EXPAND_BUDGET:
        if len(maps) != sc.count:
            return f"class of count {sc.count} expanded to {len(maps)} mappings"
        if len({tuple(sorted(m.items())) for m in maps}) != len(maps):
            return "a class expanded to a repeated mapping"
    elif len(maps) != EXPAND_BUDGET:
        return f"class of count {sc.count} expanded to only {len(maps)} mappings"
    return None


def _expand(tracer, inst, sc, out: Outcome) -> tuple[list[dict], float]:
    t0 = perf_counter()
    with tracer.span("search.expand"):
        maps = list(itertools.islice(eqmatch.expand_solution_class(sc),
                                     EXPAND_BUDGET))
    out.maps += len(maps)
    return maps, perf_counter() - t0


def run_api(job: Job, problem, tracer, speed) -> Outcome:
    inst, out = job.instance, Outcome()
    speed.sample()
    out.start = perf_counter()
    tracer.install()
    try:
        with tracer.span("search.solve", tag=job.mode) as index:
            report, classes = eqmatch.solve(
                problem, job.mode, timeout=inst.timeout,
                on_class=tracer.class_hook(index), collect=True)
        out.seconds = perf_counter() - out.start
        checks = []
        if job.expand == "all":
            for sc in classes:
                maps, dt = _expand(tracer, inst, sc, out)
                out.seconds += dt
                checks.append((sc, maps))
                t0 = perf_counter()
                with tracer.span("reporting.class_report"):
                    eqmatch.export_dot(eqmatch.compress(eqmatch.induce_subgraph(
                        problem.world, sc, problem.template)))
                out.seconds += perf_counter() - t0
    finally:
        tracer.uninstall()
    out.end = perf_counter()
    speed.sample()
    if job.expand == "first" and classes:
        checks.append((classes[0], _expand(tracer, inst, classes[0], out)[0]))
    out.representatives = report.representatives
    out.error = _check_report(inst, report.status, report.total)
    if out.error is None and (len(classes) != report.representatives
                              or sum(sc.count for sc in classes) != report.total):
        out.error = "collected classes disagree with the report"
    for sc, maps in checks:
        out.error = out.error or _check_expansion(inst, sc, maps)
    return out


def _check_report(inst: Instance, status: str, total: int) -> str | None:
    if status != "completed":
        return f"status {status}"
    if total != inst.total:
        return f"total {total} differs from the reference {inst.total}"
    return None


def run_cli(job: Job, problem, tracer, speed, directory: Path,
            timeout: float | None = None) -> Outcome:
    """One ``eqmatch.cli.run``; with ``timeout`` it is a deadline probe,
    which may stop early but must stay consistent with the reference."""
    inst, out = job.instance, Outcome()
    jsonl = directory / "classes.jsonl"
    dot = directory / "class.dot"
    cfg = eqmatch.cli.RunConfig(
        template=inst.template_path, world=inst.world_path, format=inst.fmt,
        mode=job.mode, timeout=timeout or inst.timeout, solutions=jsonl,
        dot=None if timeout else dot)
    buf = io.StringIO()
    speed.sample()
    tracer.install()
    try:
        out.start = perf_counter()
        with tracer.span("cli.run", tag=job.mode):
            code = eqmatch.cli.run(cfg, out=buf)
        out.end = perf_counter()
    finally:
        tracer.uninstall()
    speed.sample()
    out.seconds = out.end - out.start
    text = buf.getvalue()
    payload = json.loads(text)
    lines = jsonl.read_text().splitlines()
    out.bytes_written = len(text) + jsonl.stat().st_size + (
        0 if timeout else dot.stat().st_size)
    out.representatives = payload["representatives"]
    total = int(payload["total"])
    counts = [int(json.loads(line)["count"]) for line in lines]
    if code != 0:
        out.error = f"exit code {code}"
    elif len(lines) != out.representatives:
        out.error = (f"{len(lines)} JSONL lines for "
                     f"{out.representatives} representatives")
    elif sum(counts) != total:
        out.error = "JSONL counts do not sum to the total"
    elif timeout:
        if total > inst.total or (payload["status"] == "completed"
                                  and total != inst.total):
            out.error = f"probe total {total} exceeds or misses {inst.total}"
    else:
        out.error = _check_report(inst, payload["status"], total)
    if out.error is None and not timeout and lines:
        out.error = _check_first_class(job, problem, lines[0], tracer, out)
    return out


def _check_first_class(job: Job, problem, line: str, tracer, out: Outcome):
    """The first streamed class equals the library's first class, and it
    expands to exactly its count of valid mappings."""
    _, classes = eqmatch.solve(problem, job.mode, timeout=job.instance.timeout,
                               max_solutions=1, collect=True)
    if not classes or classes[0].to_json() != json.loads(line):
        return "the first JSONL class differs from the library's first class"
    maps, _ = _expand(tracer, job.instance, classes[0], out)
    return _check_expansion(job.instance, classes[0], maps)


def run_job(job: Job, problem, tracer, speed, directory: Path) -> Outcome:
    """Run one job; ``speed`` is sampled just before and after its timed part."""
    if job.instance.via == "cli":
        return run_cli(job, problem, tracer, speed, directory)
    return run_api(job, problem, tracer, speed)
