"""Synthetic instance generators shared by the test suite and scripts.

Random problems optionally "plant" the template into the world under a
random injection so that satisfiable instances are common; the fixed
fixtures (three-vertex fan in a seven-vertex world, covered path, star
families) exercise every equivalence mode with hand-checkable counts.
"""

from __future__ import annotations

import random

from .graphs import Graph, MultiplexGraph, Problem


def toy_problem() -> Problem:
    """Three-vertex fan template in a seven-vertex world.

    Template 0->1, 0->2; world vertex 0 points at 1..4 and vertex 3 points
    at 4..6 (directed). Exactly 18 subgraph isomorphisms.
    """
    t = Graph(3)
    t.add_edge(0, 1)
    t.add_edge(0, 2)
    w = Graph(7)
    for v in (1, 2, 3, 4):
        w.add_edge(0, v)
    for v in (4, 5, 6):
        w.add_edge(3, v)
    return Problem(t, w)


def cover_problem() -> Problem:
    """Undirected path template whose greedy node cover is its two interior
    hubs; the world is two fused fans plus decoy edges so that non-cover
    candidates split into several membership regions."""
    t = Graph(5)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4)):
        t.add_edge(a, b)
        t.add_edge(b, a)
    w = Graph(9)
    und = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6),
           (5, 6), (0, 7)]
    for a, b in und:
        w.add_edge(a, b)
        w.add_edge(b, a)
    return Problem(t, w, directed=False)


def star_problem(template_leaves: int, world_leaves: int) -> Problem:
    """Out-star template (hub 0) inside a larger out-star world."""
    t = MultiplexGraph(template_leaves + 1)
    for v in range(1, template_leaves + 1):
        t.add_edge(0, v)
    w = MultiplexGraph(world_leaves + 1)
    for v in range(1, world_leaves + 1):
        w.add_edge(0, v)
    return Problem(t, w)


def caterpillar(spine: int) -> Graph:
    """Undirected path of ``spine`` vertices ``0..spine-1`` whose vertex
    ``i`` carries ``i`` leaves, numbered from ``spine`` on."""
    n = spine + spine * (spine - 1) // 2
    leaves = iter(range(spine, n))
    g = Graph(n)
    for a, b in ([(i, i + 1) for i in range(spine - 1)]
                 + [(i, next(leaves)) for i in range(spine) for _ in range(i)]):
        g.add_edge(a, b)
        g.add_edge(b, a)
    return g


def huge_count_problem() -> Problem:
    """45-leaf star in a 60-leaf star: 60!/15! > 10^50 isomorphisms."""
    return star_problem(45, 60)


def random_multiplex_graph(rng: random.Random, n: int, channels: int,
                           edge_prob: float = 0.3,
                           max_multiplicity: int = 2,
                           self_loops: bool = False,
                           directed: bool = True) -> MultiplexGraph:
    """Erdos-Renyi-style multiplex graph with random multiplicities.

    Undirected graphs are stored as symmetric directed edges."""
    g = MultiplexGraph(n, channels)
    for u in range(n):
        for v in range(n):
            if u == v and not self_loops:
                continue
            if not directed and v < u:
                continue
            for ch in range(1, channels + 1):
                if rng.random() < edge_prob:
                    mult = rng.randint(1, max_multiplicity)
                    g.add_edge(u, v, ch, mult)
                    if not directed and v != u:
                        g.add_edge(v, u, ch, mult)
    return g


def sparse_multiplex_graph(rng: random.Random, n: int, edge_count: int,
                           channels: int = 1) -> MultiplexGraph:
    """Sparse multiplex graph of ``edge_count`` drawn edges, in time linear
    in them: each joins two distinct uniform vertices with multiplicity 1
    in one uniform channel, and an edge drawn twice adds up.

    All pairs are drawn before any channel, so for one seed the graphs of
    every ``channels`` share their pairs and differ only in channels.
    The graph is undirected, stored as symmetric directed edges."""
    pairs = [rng.sample(range(n), 2) for _ in range(edge_count)]
    chans = rng.choices(range(1, channels + 1), k=edge_count)
    g = MultiplexGraph(n, channels)
    for (a, b), ch in zip(pairs, chans):
        g.add_edge(a, b, ch)
        g.add_edge(b, a, ch)
    return g


def plant_twins(rng: random.Random, g: MultiplexGraph,
                share: float = 0.1) -> MultiplexGraph:
    """``g`` with a random ``share`` of its vertices each replaced by 2 or 3
    structurally equivalent copies, the ids shuffled.

    The copies of a vertex keep its label and self-loop, and every arc
    between two vertices joins each copy of one to each copy of the other.
    By a coin flip per vertex, its copies are open twins (pairwise
    non-adjacent) or closed twins (a clique of mutual arcs of one random
    tuple)."""
    sizes = [rng.randint(2, 3) if rng.random() < share else 1
             for _ in range(g.vertex_count)]
    ids = iter(rng.sample(range(sum(sizes)), sum(sizes)))
    copies = [[next(ids) for _ in range(size)] for size in sizes]
    labels = None
    if g.labels is not None:
        labels = [None] * sum(sizes)
        for v, cs in enumerate(copies):
            for c in cs:
                labels[c] = g.labels[v]
    h = MultiplexGraph(sum(sizes), g.channels, labels)

    def join(a: int, b: int, mult: tuple[int, ...]) -> None:
        for ch, m in enumerate(mult, start=1):
            if m:
                h.add_edge(a, b, ch, m)

    for v, cs in enumerate(copies):
        for w, mult in g.out[v].items():
            for a in cs:
                for b in ((a,) if w == v else copies[w]):
                    join(a, b, mult)
        if len(cs) > 1 and rng.random() < 0.5:
            tie = [rng.randint(0, 2) for _ in range(g.channels)]
            tie[rng.randrange(g.channels)] = rng.randint(1, 2)
            for a in cs:
                for b in cs:
                    if a != b:
                        join(a, b, tuple(tie))
    return h


def random_problem(rng: random.Random,
                   template_size: tuple[int, int] = (3, 6),
                   world_size: tuple[int, int] = (6, 12),
                   channels: tuple[int, ...] = (1, 2, 3),
                   edge_prob: float = 0.3,
                   planted: bool = True,
                   self_loops: bool = False,
                   directed: bool = True) -> Problem:
    """Random multiplex instance; with ``planted`` the template is embedded
    into the world under a random injection, so most instances are
    satisfiable without being trivial."""
    nt = rng.randint(*template_size)
    nw = rng.randint(*world_size)
    k = rng.choice(channels)
    t = random_multiplex_graph(rng, nt, k, edge_prob,
                               self_loops=self_loops, directed=directed)
    w = random_multiplex_graph(rng, nw, k, edge_prob,
                               self_loops=self_loops, directed=directed)
    if planted:
        plant(rng, t, w)
    return Problem(t, w, directed=directed)


def plant(rng: random.Random, t: MultiplexGraph, w: MultiplexGraph) -> None:
    """Embed ``t`` into ``w`` under a random injection, adding the world
    edge multiplicities each template edge lacks."""
    image = rng.sample(range(w.vertex_count), t.vertex_count)
    for u in range(t.vertex_count):
        for v, mult in t.out[u].items():
            have = w.edge(image[u], image[v]) or (0,) * w.channels
            for ch, need in enumerate(mult, start=1):
                gap = need - have[ch - 1]
                if gap > 0:
                    w.add_edge(image[u], image[v], ch, gap)
