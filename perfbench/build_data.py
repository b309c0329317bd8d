#!/usr/bin/env python3
"""Build the benchmark's base instances and their reference totals.

Run from the repository root, once, when the instance set changes:

    PYTHONPATH=src python3 perfbench/build_data.py

It writes ``perfbench/data/<workload>.jsonl`` (one instance per line) and
``perfbench/data/probes.jsonl``. The benchmark itself never runs this
script: it reads the committed files, relabels them with its ``--seed`` and
writes the relabelled instances as LAD or multiplex text.

Random instances come from ``eqmatch.synth``. An instance is kept only when
its listed modes finish within the selection window below on the machine
that builds the data, so every listed solve completes with a generous
timeout. Reference totals are established independently where possible:

* networkx ``DiGraphMatcher`` monomorphism counts with a per-channel
  multiplicity-dominance ``edge_match`` (networkx is imported only here);
* closed forms for stars (n!/(n-k)!) and directed paths (n-k+1);
* agreement of every listed mode, for the rest.

Every listed mode must also agree with the reference, or the script stops.
"""

from __future__ import annotations

import json
import random
import sys
import time
from math import factorial
from pathlib import Path

from eqmatch import ALL_MODES, solve
from eqmatch.graphs import Graph, MultiplexGraph, Problem
from eqmatch.synth import random_multiplex_graph, random_problem, star_problem

DATA = Path(__file__).resolve().parent / "data"
ALL = [m.value for m in ALL_MODES]
TIMEOUT = 60.0  # per-solve timeout recorded with every instance


def graph_json(g: MultiplexGraph) -> dict:
    edges = [[u, v, ch, m] for u in range(g.vertex_count)
             for v, mult in sorted(g.out[u].items())
             for ch, m in enumerate(mult, start=1) if m > 0]
    return {"n": g.vertex_count, "channels": g.channels, "edges": edges}


def networkx_count(problem: Problem) -> int:
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def digraph(g: MultiplexGraph):
        d = nx.DiGraph()
        d.add_nodes_from(range(g.vertex_count))
        for u in range(g.vertex_count):
            for v, mult in g.out[u].items():
                d.add_edge(u, v, m=mult)
        return d

    def dominated(world_attr, template_attr):
        return all(w >= t for w, t in zip(world_attr["m"], template_attr["m"])
                   if t > 0)

    matcher = DiGraphMatcher(digraph(problem.world), digraph(problem.template),
                             edge_match=dominated)
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


def timed_solves(problem: Problem, modes, timeout: float):
    """{mode: (seconds, report)} for each mode; None once one fails."""
    out = {}
    for mode in modes:
        t0 = time.perf_counter()
        report, _ = solve(problem, mode, timeout=timeout, collect=False)
        dt = time.perf_counter() - t0
        if report.status != "completed":
            return None
        out[mode] = (dt, report)
    return out


def record(name, problem, modes, total, reference, **extra) -> dict:
    rec = {"name": name, "modes": list(modes), "timeout": TIMEOUT,
           "total": str(total), "reference": reference,
           "template": graph_json(problem.template),
           "world": graph_json(problem.world)}
    rec.update(extra)
    return rec


def check_modes(name, problem, modes, total) -> dict:
    res = timed_solves(problem, modes, TIMEOUT)
    if res is None:
        sys.exit(f"{name}: a listed mode did not complete")
    for mode, (_, report) in res.items():
        if report.total != total:
            sys.exit(f"{name}: mode {mode} counted {report.total}, "
                     f"reference {total}")
    return res


def directed_path(n: int) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def undirected(n: int, edges) -> Graph:
    g = Graph(n)
    for a, b in edges:
        g.add_edge(a, b)
        g.add_edge(b, a)
    return g


def falling(n: int, k: int) -> int:
    return factorial(n) // factorial(n - k)


def summary(name, res) -> str:
    return name + " " + " ".join(
        f"{m}:{dt:.2f}s/{r.representatives}" for m, (dt, r) in res.items())


# -- planted -----------------------------------------------------------------

def planted_problem(rng: random.Random) -> tuple[Problem, dict]:
    nt, nw = rng.randint(7, 10), rng.randint(60, 150)
    k = rng.choice((1, 2))
    directed = rng.random() < 0.5
    pt, pw = rng.choice((0.25, 0.3, 0.4)), rng.choice((0.05, 0.07, 0.09))
    t = random_multiplex_graph(rng, nt, k, pt, directed=directed)
    w = random_multiplex_graph(rng, nw, k, pw, directed=directed)
    image = rng.sample(range(nw), nt)
    for u in range(nt):
        for v, mult in t.out[u].items():
            have = w.edge(image[u], image[v]) or (0,) * k
            for ch, need in enumerate(mult, start=1):
                if need > have[ch - 1]:
                    w.add_edge(image[u], image[v], ch, need - have[ch - 1])
    params = {"nt": nt, "nw": nw, "channels": k, "directed": directed,
              "template_p": pt, "world_p": pw}
    return Problem(t, w, directed=directed), params


def build_planted(count: int = 8) -> list[dict]:
    rng = random.Random(2301)
    out = []
    kinds: dict[tuple[bool, int], int] = {}
    unique = 0  # instances with a single solution
    tries = 0
    while len(out) < count:
        tries += 1
        problem, params = planted_problem(rng)
        kind = (params["directed"], params["channels"])
        if kinds.get(kind, 0) >= count // 4:
            continue  # keep directed/undirected and 1/2 channels balanced
        ne = timed_solves(problem, ["ne"], 2.0)
        if ne is None:
            continue
        dt, report = ne["ne"]
        if not (0.05 <= dt <= 0.5 and 1 <= report.total <= 4000):
            continue
        if report.total == 1 and unique >= count // 2:
            continue  # at most half the instances have a single solution
        total = networkx_count(problem)
        name = f"planted{len(out)}"
        res = check_modes(name, problem, ALL, total)
        if max(d for d, _ in res.values()) > 0.8:
            continue
        kinds[kind] = kinds.get(kind, 0) + 1
        unique += total == 1
        out.append(record(name, problem, ALL, total, "networkx", **params))
        print(summary(name, res), f"total={total}", params, flush=True)
    print(f"planted: kept {count} of {tries} candidates", flush=True)
    for n, m in ((50, 50),):
        problem = Problem(directed_path(n), directed_path(m))
        total = m - n + 1
        name = f"path{n}in{m}"
        res = check_modes(name, problem, ALL, total)
        out.append(record(name, problem, ALL, total, "closed form",
                          via="cli"))
        print(summary(name, res), flush=True)
    return out


# -- compress ----------------------------------------------------------------

def build_compress(count: int = 8) -> list[dict]:
    rng = random.Random(7)
    out = []
    tries = 0
    modes = ["fe", "nc"]
    while len(out) < count:
        tries += 1
        p = rng.choice((0.04, 0.06, 0.08))
        directed = rng.random() < 0.5
        problem = random_problem(rng, template_size=(6, 9),
                                 world_size=(30, 150), channels=(1, 2),
                                 edge_prob=p, directed=directed)
        res = timed_solves(problem, modes, 1.0)
        if res is None:
            continue
        totals = {r.total for _, r in res.values()}
        reps = max(r.representatives for _, r in res.values())
        slow = max(d for d, _ in res.values())
        if len(totals) != 1:
            sys.exit("compress candidate: FE and NC disagree")
        total = totals.pop()
        if total < 10 ** 6 or reps > 1500 or slow < 0.05 or slow > 0.8:
            continue
        name = f"sparse{len(out)}"
        out.append(record(name, problem, modes, total, "cross-mode (fe, nc)",
                          edge_p=p, directed=directed))
        print(summary(name, res), f"digits={len(str(total))}", flush=True)
    print(f"compress: kept {count} of {tries} candidates", flush=True)
    star_modes = ["fe", "nc", "we", "tewe", "ce"]
    problem = star_problem(45, 60)
    total = falling(60, 45)
    res = check_modes("star45in60", problem, star_modes, total)
    out.append(record("star45in60", problem, star_modes, total,
                      "closed form"))
    print(summary("star45in60", res), flush=True)
    problem = star_problem(3, 10)
    total = falling(10, 3)
    res = check_modes("star3in10", problem, ALL, total)
    out.append(record("star3in10", problem, ALL, total, "closed form",
                      via="cli"))
    print(summary("star3in10", res), flush=True)
    return out


# -- census ------------------------------------------------------------------

MOTIFS = {
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star3": (4, [(0, 1), (0, 2), (0, 3)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
}


def build_census() -> list[dict]:
    out = []
    for i, (n, p) in enumerate(((60, 0.07), (66, 0.06))):
        rng = random.Random(1000 + i)
        world = undirected(n, [(a, b) for a in range(n)
                               for b in range(a + 1, n) if rng.random() < p])
        for motif, (k, edges) in MOTIFS.items():
            problem = Problem(undirected(k, edges), world, directed=False)
            total = networkx_count(problem)
            name = f"{motif}.g{n}"
            res = check_modes(name, problem, ALL, total)
            out.append(record(name, problem, ALL, total, "networkx",
                              via="cli", world_p=p))
            print(summary(name, res), f"total={total}", flush=True)
    return out


# -- deadline probes ---------------------------------------------------------

def build_probes() -> list[dict]:
    path = Problem(directed_path(100), directed_path(100))
    star = star_problem(9, 26)
    # The path probe's one expensive node varies by about 10% from run to
    # run, so the benchmark takes the median of three; the star probe stops
    # at its timeout within milliseconds every time.
    return [record("probe.path100", path, ["ne"], 1, "closed form",
                   probe_timeout=1.0, probe_repeats=3),
            record("probe.star9in26", star, ["ne"], falling(26, 9),
                   "closed form", probe_timeout=1.0, probe_repeats=1)]


def write(name: str, records: list[dict]) -> None:
    DATA.mkdir(exist_ok=True)
    text = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)
    (DATA / f"{name}.jsonl").write_text(text)


def main() -> int:
    builders = {"probes": build_probes, "census": build_census,
                "compress": build_compress, "planted": build_planted}
    wanted = sys.argv[1:] or list(builders)
    for name in wanted:
        write(name, builders[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
