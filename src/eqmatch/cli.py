"""Command-line front end: single-instance runs and benchmark suites.

Single runs print a JSON report to stdout; counts are serialized as decimal
strings since they may exceed native integer width. ``--solutions`` streams
one JSONL line per class, byte-equal to ``json.dumps(sc.to_json())``: the
text of the line's head (every slot but the last) is kept while consecutive
classes share those slots, as the classes of one search node do, so a line
costs in proportion to its last slot. A changed head is rebuilt from its
deepest changed slot: when only its deepest slot differs, as between
sibling nodes, that slot's text is appended to the kept text of the
shallower slots; otherwise the whole head is formatted. Suites read a CSV
manifest (``name,template,world,format``), fan instances out over a process
pool, and write one CSV row per (instance, mode) as it arrives, then
per-mode aggregate rows with the fully-enumerated proportion and mean
compression rate.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields
from pathlib import Path

from .graphs import Problem, parse_lad, parse_multiplex_edgelist
from .candidates import (CandidateStructure, build_candidate_structure,
                         init_candidates)
from .search import ALL_MODES, Mode, SolutionClass, _check_limits, solve
from .reporting import _dot, compress, export_dot, induce_subgraph


@dataclass
class RunConfig:
    """Everything one single-instance invocation needs. Its field defaults
    are the command line's and a suite's."""

    template: Path
    world: Path
    format: str = "lad"
    mode: Mode = Mode.NE
    timeout: float = 600.0
    max_solutions: int | None = None
    solutions: Path | None = None
    dump_classes: bool = False
    dump_candidate_structure: bool = False
    dot: Path | None = None
    pair_cap: int = 200

    def __post_init__(self):
        _check_limits(self.timeout, self.max_solutions)
        if self.dump_candidate_structure and self.dot is None:
            raise ValueError("--dump-candidate-structure requires --dot")
        if self.pair_cap < 0:
            raise ValueError("pair_cap must not be negative")
        self.mode = Mode(self.mode)


def load_problem(template: Path, world: Path, fmt: str) -> Problem:
    if fmt == "lad":
        t = parse_lad(Path(template).read_text())
        w = parse_lad(Path(world).read_text())
    elif fmt == "multiplex":
        t = parse_multiplex_edgelist(Path(template).read_text())
        w = parse_multiplex_edgelist(Path(world).read_text())
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return Problem(t, w)


def _pair_graph_dot(structure: CandidateStructure) -> str:
    nodes = [(f"n{i}", f'label="({u},{c})"')
             for i, (u, c) in enumerate(structure.nodes)]
    return _dot(nodes, [(f"n{i}", f"n{j}") for i in range(len(nodes))
                        for j in structure.pair_graph.out[i]])


def run(cfg: RunConfig, out=None) -> int:
    """Execute one search and print the JSON report; exit status is nonzero
    only for input or contract errors, never for unsatisfiable instances."""
    problem = load_problem(cfg.template, cfg.world, cfg.format)
    first: list[SolutionClass] = []  # only the first class is drawn
    stream = None if cfg.solutions is None else open(cfg.solutions, "w")
    # The last line's head (its slots but the last), the head as text, and
    # the text of the head's slots but its deepest.
    head = ()
    prefix = outer = '{"assignments": ['
    def on_class(sc):
        nonlocal head, prefix, outer
        if not first:
            first.append(sc)
        if stream is None:
            return
        slots = sc.slots
        if not slots:  # the empty template's one class
            stream.write(f'{{"assignments": [], "count": "{sc.count}"}}\n')
            return
        # The last level yields its classes with the same head slots, so
        # these compares are identity checks there. A changed head is
        # rebuilt from its deepest changed slot: sibling nodes share every
        # head slot but the deepest, whose text alone is then formatted and
        # appended to the kept text of the shallower ones. A solve's classes
        # all have one slot per template vertex, so a changed head has a
        # deepest slot.
        new = slots[:-1]
        if new != head:
            if new[:-1] != head[:-1]:
                outer = '{"assignments": [' + "".join(
                    f"[{s.template_vertex}, {list(s.members)}], "
                    for s in new[:-1])
            head, s = new, new[-1]
            prefix = f"{outer}[{s.template_vertex}, {list(s.members)}], "
        s = slots[-1]
        stream.write(f'{prefix}[{s.template_vertex}, {list(s.members)}]], '
                     f'"count": "{sc.count}"}}\n')
    try:
        report, classes = solve(problem, cfg.mode, timeout=cfg.timeout,
                                max_solutions=cfg.max_solutions,
                                on_class=on_class, collect=cfg.dump_classes)
    finally:
        if stream is not None:
            stream.close()
    payload = report.to_json()
    if cfg.dump_classes:
        payload["classes"] = [sc.to_json() for sc in classes]
    if cfg.dot is not None:
        if cfg.dump_candidate_structure:
            csets = init_candidates(problem)
            nodes = sum(len(cs) for cs in csets)  # the pair graph's node count
            if nodes > cfg.pair_cap:
                print(f"candidate structure has {nodes} pair nodes, above "
                      f"the cap of {cfg.pair_cap}; skipping dump",
                      file=sys.stderr)
            else:
                Path(cfg.dot).write_text(_pair_graph_dot(
                    build_candidate_structure(problem, csets)))
        elif first:
            csg = induce_subgraph(problem.world, first[0], problem.template)
            Path(cfg.dot).write_text(export_dot(compress(csg)))
        else:
            Path(cfg.dot).write_text(_dot((), ()))
    print(json.dumps(payload), file=out if out is not None else sys.stdout)
    return 0


def _suite_entry(args) -> dict:
    name, template, world, fmt, mode, timeout = args
    try:
        problem = load_problem(template, world, fmt)
        report, _ = solve(problem, mode, timeout=timeout, collect=False)
        return {"instance": name, "mode": mode.value, **report.to_json()}
    except Exception as exc:  # one bad instance must not lose the others' rows
        if not isinstance(exc, (OSError, ValueError)):  # not an input error
            traceback.print_exc()
        return {"instance": name, "mode": mode.value, "status": f"error: {exc}"}


_COLUMNS = {"name", "template", "world"}  # a manifest's; format is optional
_FIELDS = ["instance", "mode", "representatives", "total", "wall_time_s",
           "status", "compression_rate", "fully_enumerated_proportion",
           "mean_compression_rate"]


def run_suite(suite_dir: Path, manifest: Path, out_csv: Path,
              modes=ALL_MODES, timeout: float = RunConfig.timeout,
              jobs: int | None = None) -> int:
    """Run every manifest instance under every mode. Each row is written
    and flushed as it arrives, in manifest order; the aggregates follow the
    last row."""
    _check_limits(timeout)
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be positive")
    modes = [Mode(m) for m in modes]
    if not modes or len(set(modes)) < len(modes):
        raise ValueError("modes must name at least one mode, each once")
    suite_dir, tasks = Path(suite_dir), []
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            # A short row has None values, a long one a None key.
            if None in rec or None in rec.values() or _COLUMNS - rec.keys():
                raise ValueError(f"manifest line {reader.line_num}: need "
                                 "name, template and world, one per column")
            t, w = suite_dir / rec["template"], suite_dir / rec["world"]
            tasks += [(rec["name"], t, w, rec.get("format", RunConfig.format),
                       mode, timeout) for mode in modes]
    if jobs is None:
        jobs = os.cpu_count() or 1
    with open(out_csv, "w", newline="") as fh, ExitStack() as stack:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS, restval="")
        writer.writeheader()
        if jobs > 1 and len(tasks) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            results = pool.map(_suite_entry, tasks)
        else:
            results = map(_suite_entry, tasks)
        rows = []
        for row in results:  # each row is on disk before the next is awaited
            writer.writerow(row)
            fh.flush()
            rows.append(row)
        for mode in modes:
            mrows = [r for r in rows if r["mode"] == mode.value
                     and not r["status"].startswith("error")]
            if not mrows:
                continue
            done = sum(1 for r in mrows if r["status"] == "completed")
            rates = [r["compression_rate"] for r in mrows
                     if r["compression_rate"] is not None]
            writer.writerow({
                "instance": "__aggregate__", "mode": mode.value,
                "fully_enumerated_proportion": f"{done / len(mrows):.6g}",
                "mean_compression_rate":
                    f"{sum(rates) / len(rates):.6g}" if rates else "",
            })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqmatch",
        description="Exact subgraph-isomorphism enumeration with "
                    "equivalence-compressed solution classes.")
    parser.add_argument("--template", type=Path)
    parser.add_argument("--world", type=Path)
    parser.add_argument("--format", choices=["lad", "multiplex"],
                        default=RunConfig.format)
    parser.add_argument("--mode", choices=[m.value for m in ALL_MODES],
                        default=RunConfig.mode.value)
    parser.add_argument("--timeout", type=float, default=RunConfig.timeout)
    parser.add_argument("--max-solutions", type=int, default=None)
    parser.add_argument("--solutions", type=Path,
                        help="stream solution classes to this JSONL file")
    parser.add_argument("--dump-classes", action="store_true",
                        help="include solution classes in the JSON report")
    parser.add_argument("--dump-candidate-structure", action="store_true",
                        help="write the pair-node graph as DOT (see --dot)")
    parser.add_argument("--dot", type=Path,
                        help="DOT output path (candidate structure or the "
                             "first class's compressed subgraph)")
    parser.add_argument("--pair-cap", type=int, default=RunConfig.pair_cap)
    parser.add_argument("--suite", type=Path, help="suite instance directory")
    parser.add_argument("--manifest", type=Path, help="suite manifest CSV")
    parser.add_argument("--out", type=Path, help="suite output CSV")
    parser.add_argument("--modes", default=",".join(m.value for m in ALL_MODES),
                        help="comma-separated modes for suite runs")
    parser.add_argument("--jobs", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.suite is not None:
            if args.manifest is None or args.out is None:
                raise ValueError("--suite requires --manifest and --out")
            modes = tuple(Mode(m.strip()) for m in args.modes.split(",") if m.strip())
            return run_suite(args.suite, args.manifest, args.out,
                             modes=modes, timeout=args.timeout, jobs=args.jobs)
        if args.template is None or args.world is None:
            raise ValueError("single runs require --template and --world")
        return run(RunConfig(**{f.name: getattr(args, f.name)
                                for f in fields(RunConfig)}))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
