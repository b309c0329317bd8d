"""Structural equivalence, partitions, and interchange counting."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from eqmatch.equivalence import (Partition, count_factorial_lower_bound,
                                 count_tewe, find_equivalence_classes,
                                 interchange_count, structurally_equivalent)
from eqmatch.graphs import Graph, MultiplexGraph, Problem
from eqmatch.synth import (plant_twins, random_multiplex_graph,
                           random_problem, toy_problem)

from oracles import (brute_force_solutions, interchange_reference,
                     naive_structural_partition, orbit_count,
                     partition_three_pass)


def undirected(n, pairs):
    g = Graph(n)
    for a, b in pairs:
        g.add_edge(a, b)
        g.add_edge(b, a)
    return g


def directed(n, arcs):
    g = Graph(n)
    for a, b in arcs:
        g.add_edge(a, b)
    return g


def multiplex_clique_with_apex():
    """0, 1, 2 joined by mutual arcs of tuple (2, 1); apex 3 is joined to
    each by mutual arcs of (1, 0), so it has 0's out- and in-neighbour
    counts and is 0's neighbour above it, yet no twin of it."""
    g = MultiplexGraph(4, 2)
    for a, b, ties in [(0, 1, (2, 1)), (0, 2, (2, 1)), (1, 2, (2, 1)),
                       (0, 3, (1, 0)), (1, 3, (1, 0)), (2, 3, (1, 0))]:
        for channel, mult in enumerate(ties, 1):
            if mult:
                g.add_edge(a, b, channel, mult)
                g.add_edge(b, a, channel, mult)
    return g


def colliding_keys(rng, closed):
    """Key collisions that are not twins: members that each have two
    private neighbours whose ids sum to one constant, pairwise joined when
    ``closed``, so that they share a closed key (open key otherwise); a
    random graph joins the other vertices, mutual or one-way."""
    n = rng.randint(10, 30)
    pairs = [(x, n - 1 - x) for x in range(n // 2)]
    rng.shuffle(pairs)
    k = rng.randint(2, len(pairs) // 2)
    members = [rng.choice(pair) for pair in pairs[:k]]
    g = Graph(n, labels=[rng.choice([None, "a"]) if v not in members
                         else "m" for v in range(n)])
    for m, pair in zip(members, pairs[k:]):
        for x in pair:
            g.add_edge(m, x)
            g.add_edge(x, m)
    for a in members:
        for b in members:
            if closed and a != b:
                g.add_edge(a, b)
    others = [v for v in range(n) if v not in members]
    for _ in range(n):
        a, b = rng.sample(others, 2)
        g.add_edge(a, b)
        if rng.random() < 0.5:
            g.add_edge(b, a)
    return g, members


def mutual_pair(forward, backward):
    """0 -> 1 and 1 -> 0 with the given multiplicities, both seen by 2."""
    g = MultiplexGraph(3, 1)
    g.add_edge(0, 1, 1, forward)
    g.add_edge(1, 0, 1, backward)
    g.add_edge(2, 0)
    g.add_edge(2, 1)
    return g


class TestStructurallyEquivalent:
    def test_twins_with_shared_neighbor(self):
        g = undirected(3, [(0, 2), (1, 2)])
        assert structurally_equivalent(g, 0, 1)
        assert not structurally_equivalent(g, 0, 2)

    def test_mutual_edge_pair(self):
        # An edge between the pair is fine when it is mutual.
        g = undirected(3, [(0, 1), (0, 2), (1, 2)])
        assert structurally_equivalent(g, 0, 1)

    def test_one_way_edge_between_pair(self):
        g = Graph(2)
        g.add_edge(0, 1)
        assert not structurally_equivalent(g, 0, 1)

    def test_self_loop_must_agree(self):
        g = Graph(2)
        g.add_edge(0, 0)
        assert not structurally_equivalent(g, 0, 1)
        g.add_edge(1, 1)
        assert structurally_equivalent(g, 0, 1)

    def test_labels_must_agree(self):
        g = Graph(2, labels=["x", "y"])
        assert not structurally_equivalent(g, 0, 1)

    def test_multiplicities_must_agree(self):
        g = MultiplexGraph(3, 1)
        g.add_edge(0, 2, 1, 2)
        g.add_edge(1, 2, 1, 1)
        assert not structurally_equivalent(g, 0, 1)

    def test_reflexive(self):
        g = Graph(1)
        assert structurally_equivalent(g, 0, 0)

    def test_bounds(self):
        with pytest.raises(IndexError):
            structurally_equivalent(Graph(1), 0, 1)


class TestPartition:
    def test_trivial(self):
        p = Partition.trivial(3)
        assert p.classes == ((0,), (1,), (2,))
        assert not p.same_class(0, 1)

    def test_from_groups_sorted_and_covering(self):
        p = Partition.from_groups([[2, 1], [0]], 3)
        assert p.classes == ((0,), (1, 2))
        assert p.class_of == (0, 1, 1)
        with pytest.raises(ValueError):
            Partition.from_groups([[0]], 2)

    def test_to_json(self):
        assert Partition.trivial(2).to_json() == [[0], [1]]


class TestFindEquivalenceClasses:
    def test_toy_world(self):
        w = toy_problem().world
        p = find_equivalence_classes(w)
        assert (1, 2) in p.classes  # sink leaves of the first fan
        assert (5, 6) in p.classes  # sink leaves of the second fan
        assert p.class_of[0] != p.class_of[3]  # hubs differ

    def test_matches_naive_oracle_randomized(self, rng):
        # Plain random graphs, then planted open and closed twins (labels,
        # self-loops, multiplex tuples, one-way arcs, and one extra arc
        # that may break a twin pair), then key collisions that are not
        # twins; each against the definition and the earlier three passes.
        twins = collided = 0
        for i in range(360):
            n = rng.randint(1, 40)
            if i < 240:
                g = random_multiplex_graph(
                    rng, n if i < 120 else (n + 2) // 3, rng.choice([1, 2]),
                    edge_prob=rng.choice([0.03, 0.1, 0.3]),
                    self_loops=rng.random() < 0.3,
                    directed=rng.random() < 0.5)
            else:
                g, members = colliding_keys(rng, closed=i % 2 == 0)
            if 120 <= i < 240:
                if rng.random() < 0.7:
                    g.labels = [rng.choice("ab") for _ in range(g.vertex_count)]
                g = plant_twins(rng, g, share=0.5)
                if g.vertex_count > 1 and rng.random() < 0.3:
                    a, b = rng.sample(range(g.vertex_count), 2)
                    g.add_edge(a, b)
            got = sorted(tuple(c) for c in find_equivalence_classes(g).classes)
            want = sorted(tuple(sorted(grp))
                          for grp in naive_structural_partition(g))
            assert got == want == partition_three_pass(g), i
            twins += 120 <= i < 240 and any(len(c) > 1 for c in got)
            collided += i >= 240 and all((m,) in got for m in members)
        assert twins >= 100 and collided == 120

    def test_matches_reference_on_twin_world(self, twin_world):
        got = find_equivalence_classes(twin_world).classes
        assert list(got) == partition_three_pass(twin_world)
        assert sum(len(c) > 1 for c in got) > 1900

    def test_empty_graph(self):
        assert find_equivalence_classes(Graph(0)).classes == ()

    def test_memory_below_half_the_graph(self):
        # The hash pass keeps one vertex list per signature hash, and only
        # a bucket of two or more has its signatures taken, one bucket at a
        # time: a seeded sparse undirected 20,000-vertex world (3n drawn
        # edges) is partitioned within half the graph's own traced size.
        rng, n = random.Random(20000), 20000
        tracemalloc.start()
        try:
            g = undirected(n, [rng.sample(range(n), 2) for _ in range(3 * n)])
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            find_equivalence_classes(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - size < size / 2, (size, peak)

    # A class is pairwise non-adjacent (open twins, one signature) or a
    # clique of mutual arcs of one tuple. Adjacent pairs reach the pairwise
    # test only with equal closed keys (label, self-loop, neighbour counts,
    # and neighbour-id sums that hold the vertex itself) and equal closed
    # neighbourhoods; the last two cases share a key but not a neighbourhood.
    @pytest.mark.parametrize("graph, classes", [
        # K_6: every pair is adjacent, with equal counts.
        (undirected(6, [(a, b) for a in range(6) for b in range(a + 1, 6)]),
         [(0, 1, 2, 3, 4, 5)]),
        # A pendant on 0 gives it one more neighbour than the others.
        (undirected(7, [(a, b) for a in range(6) for b in range(a + 1, 6)]
                    + [(0, 6)]),
         [(0,), (1, 2, 3, 4, 5), (6,)]),
        # Path 2-0-1-3: 0 and 1 have two neighbours each, not the same ones.
        (undirected(4, [(2, 0), (0, 1), (1, 3)]), [(0,), (1,), (2,), (3,)]),
        # 0 -> 1 twice, 1 -> 0 once: equal counts, unequal directions.
        (mutual_pair(2, 1), [(0,), (1,), (2,)]),
        (multiplex_clique_with_apex(), [(0, 1, 2), (3,)]),
        # Hub 0; leaves 2, 4, 6 are open twins; 1, 3, 5 form a triangle
        # whose members all see the hub.
        (undirected(7, [(0, v) for v in range(1, 7)]
                    + [(1, 3), (1, 5), (3, 5)]),
         [(0,), (1, 3, 5), (2, 4, 6)]),
        # Open, then closed, twins of 2 but for 0's self-loop.
        (directed(3, [(2, 0), (2, 1), (0, 0)]), [(0,), (1,), (2,)]),
        (directed(3, [(0, 1), (1, 0), (2, 0), (2, 1), (0, 0)]),
         [(0,), (1,), (2,)]),
        # Both tied to 2, but 0 -> 2 and 2 -> 1.
        (directed(3, [(0, 2), (2, 1)]), [(0,), (1,), (2,)]),
        # Both seen by 2, but their own tie runs one way.
        (directed(3, [(0, 1), (2, 0), (2, 1)]), [(0,), (1,), (2,)]),
        # 0 and 1 see 2 + 5 and 3 + 4, joined or not: one key, two
        # neighbourhoods.
        (undirected(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4)]),
         [(0,), (1,), (2, 5), (3, 4)]),
        (undirected(6, [(0, 2), (0, 5), (1, 3), (1, 4)]),
         [(0,), (1,), (2, 5), (3, 4)]),
    ], ids=["k6", "k6-pendant", "path-equal-counts", "mutual-unequal",
            "multiplex-clique-apex", "twins-and-clique", "twins-self-loop",
            "clique-self-loop", "hub-tie-direction", "pair-tie-direction",
            "closed-key-collision", "open-key-collision"])
    def test_prefiltered_pairs(self, graph, classes):
        got = list(find_equivalence_classes(graph).classes)
        assert got == classes
        assert got == sorted(tuple(sorted(grp)) for grp in
                             naive_structural_partition(graph))


class TestCountFactorialLowerBound:
    def test_planted_pairs_fixture(self):
        # Eleven mutually-equivalent pairs hanging off one hub.
        g = Graph(23)
        for i in range(11):
            a, b = 2 * i, 2 * i + 1
            g.add_edge(a, b)
            g.add_edge(b, a)
            g.add_edge(22, a)
            g.add_edge(22, b)
        p = find_equivalence_classes(g)
        assert sorted(len(c) for c in p.classes) == [1] + [2] * 11
        assert count_factorial_lower_bound(p) == 2 ** 11 == 2048

    def test_trivial_partition(self):
        assert count_factorial_lower_bound(Partition.trivial(5)) == 1


class TestCountTewe:
    def test_rejects_non_isomorphism(self):
        p = toy_problem()
        tp = Partition.trivial(3)
        wp = Partition.trivial(7)
        with pytest.raises(ValueError):
            count_tewe(p, {0: 1, 1: 2, 2: 3}, tp, wp)
        with pytest.raises(ValueError):  # a key outside the template
            count_tewe(p, {0: 0, 1: 1, 5: 2}, tp, wp)

    def test_trivial_partitions_count_one(self):
        p = toy_problem()
        assert count_tewe(p, {0: 0, 1: 1, 2: 2},
                          Partition.trivial(3), Partition.trivial(7)) == 1

    def test_toy_tewe_class(self):
        p = toy_problem()
        tp = find_equivalence_classes(p.template)  # classes {0}, {1,2}
        wp = find_equivalence_classes(p.world)
        # 1 and 2 fill the world class {1,2}: 2! * C(2,2) = 2.
        assert count_tewe(p, {0: 0, 1: 1, 2: 2}, tp, wp) == 2
        # 1 and 3 straddle classes {1,2} and {3}: 2! * C(2,1) * C(1,1) = 4.
        assert count_tewe(p, {0: 0, 1: 1, 2: 3}, tp, wp) == 4

    def test_matches_orbit_oracle_randomized(self, rng):
        done = 0
        while done < 80:
            p = random_problem(rng, template_size=(3, 5), world_size=(5, 9))
            sols = brute_force_solutions(p)
            if not sols:
                continue
            f = rng.choice(sols)
            tp = find_equivalence_classes(p.template)
            wp = find_equivalence_classes(p.world)
            got = count_tewe(p, f, tp, wp)
            want = orbit_count(p, f, [list(c) for c in tp.classes],
                               [list(c) for c in wp.classes])
            assert got == want
            done += 1


def random_classes(rng, n):
    """A random partition of ``range(n)`` into classes of 1-3 members, as
    a dict from each vertex to its class's member tuple."""
    order = rng.sample(range(n), n)
    classes = []
    while order:
        size = rng.choice([1, 1, 2, 3])
        classes.append(tuple(sorted(order[:size])))
        del order[:size]
    return {v: cls for cls in classes for v in cls}


class TestInterchangeCount:
    def test_singleton_pairs_weigh_one(self):
        assert interchange_count([((0,), (4,), 4), ((1,), (2,), 2)]) == 1
        assert interchange_count([]) == 1
        # 2! for {1, 2}, C(3, 2) for its world class; the singletons add 1.
        triples = [((0,), (9,), 9), ((1, 2), (3, 4, 5), 3),
                   ((1, 2), (3, 4, 5), 4), ((6,), (7,), 7)]
        assert interchange_count(triples) == 2 * 3

    def test_matches_reference_on_mixed_incidences(self, rng):
        mixed = 0
        for _ in range(400):
            nt = rng.randint(1, 7)
            nw = rng.randint(nt, 10)
            tclass, wclass = random_classes(rng, nt), random_classes(rng, nw)
            images = rng.sample(range(nw), nt)
            pairs = [(tclass[v], wclass[c]) for v, c in enumerate(images)]
            singles = sum(len(t) == len(d) == 1 for t, d in pairs)
            mixed += 0 < singles < len(pairs)
            triples = [(t, d, c) for (t, d), c in zip(pairs, images)]
            assert interchange_count(triples) == interchange_reference(pairs)
        assert mixed > 100


@st.composite
def graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=0, max_value=24))
    rng = random.Random(seed)
    return random_multiplex_graph(rng, n, draw(st.integers(1, 2)),
                                  edge_prob=draw(st.sampled_from([0.05, 0.2, 0.5])),
                                  self_loops=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_partition_members_pairwise_equivalent(g):
    p = find_equivalence_classes(g)
    for cls in p.classes:
        for v in cls:
            assert structurally_equivalent(g, cls[0], v)
        # Never mixed: all-adjacent (a clique) or all-non-adjacent (twins).
        ties = {g.has_edge(v, w) for v in cls for w in cls if v != w}
        assert len(ties) <= 1, cls
