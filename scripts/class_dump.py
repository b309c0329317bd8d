#!/usr/bin/env python3
"""Print one sha256 over everything the search reports, in all seven modes.

The dump covers the toy fixture, the covered path, ``star_problem(5, 9)``
and ``--count`` seeded random instances (self-loops, one to three channels,
directed and undirected). For every instance and mode it records the
report (representatives, total, status), each class's JSON and slots,
``expansion_count_of``, the first 20 expansions of each class, the class's
solution-induced subgraph with and without the template
(``induce_subgraph(...).to_json()``) and the DOT text of the compressed
one, and the classes of a ``max_solutions=2`` run; for every instance it
also records ``apply_filters`` on the prefixes of the first NE classes.
Two versions of the engine that print the same hash report the same
classes, in the same order, with the same expansions and the same
reports.

    PYTHONPATH=src python scripts/class_dump.py --count 150

``scripts/class_dump.sha256`` holds the hash of the default ``--count
150``, and CI fails when the script prints anything else.
"""

import argparse
import hashlib
import json
import random
from itertools import islice

from eqmatch.candidates import init_candidates
from eqmatch.reporting import compress, export_dot, induce_subgraph
from eqmatch.search import (ALL_MODES, Mode, apply_filters,
                            expand_solution_class, expansion_count_of, solve)
from eqmatch.synth import cover_problem, random_problem, star_problem, toy_problem

EXPANSIONS = 20    # expansions recorded per class
PREFIXED = 3       # NE classes whose prefixes are filtered


def instances(count: int):
    yield "toy", toy_problem()
    yield "cover", cover_problem()
    yield "star-5-9", star_problem(5, 9)
    rng = random.Random(0xD0)
    for i in range(count):
        yield f"random-{i}", random_problem(
            rng, template_size=(3, 6), world_size=(6, 11),
            channels=(1, 2, 3), edge_prob=rng.choice([0.2, 0.3, 0.45]),
            planted=i % 5 != 4, self_loops=i % 3 == 0, directed=i % 2 == 0)


def class_record(problem, sc) -> dict:
    induced = induce_subgraph(problem.world, sc, problem.template)
    return {
        "json": sc.to_json(),
        "slots": [[s.template_vertex, list(s.template_class), s.world_vertex,
                   list(s.members), s.multiplier] for s in sc.slots],
        "expansion_count": expansion_count_of(sc),
        "expansions": [sorted(f.items()) for f in
                       islice(expand_solution_class(sc), EXPANSIONS)],
        "induced": induced.to_json(),
        "induced_untemplated": induce_subgraph(problem.world, sc).to_json(),
        "dot": export_dot(compress(induced)),
    }


def records(name: str, problem):
    for mode in ALL_MODES:
        report, classes = solve(problem, mode)
        yield {"instance": name, "mode": mode.value,
               "representatives": report.representatives,
               "total": str(report.total), "status": report.status}
        for sc in classes:
            yield class_record(problem, sc)
        report, classes = solve(problem, mode, max_solutions=2)
        yield {"truncated": [report.representatives, str(report.total),
                             report.status, [sc.to_json() for sc in classes]]}
    _, classes = solve(problem, Mode.NE, max_solutions=PREFIXED)
    csets = init_candidates(problem)
    for sc in classes:
        prefix = [(s.template_vertex, s.world_vertex) for s in sc.slots]
        for k in range(len(prefix) + 1):
            yield {"prefix": prefix[:k],
                   "filtered": [sorted(cs) for cs in
                                apply_filters(prefix[:k], csets, problem)]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=150,
                        help="seeded random instances (default 150)")
    args = parser.parse_args()
    digest = hashlib.sha256()
    for name, problem in instances(args.count):
        for rec in records(name, problem):
            digest.update(json.dumps(rec, sort_keys=True).encode())
            digest.update(b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
