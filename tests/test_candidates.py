"""Candidate sets, the pair-node candidate structure, and node covers."""

import copy
import random
import time

import pytest

from eqmatch.candidates import (build_candidate_structure, greedy_node_cover,
                                init_candidates, is_node_cover,
                                node_cover_equivalent)
from eqmatch.graphs import Graph, MultiplexGraph, Problem, degree_vector
from eqmatch.search import apply_filters
from eqmatch.synth import (caterpillar, cover_problem, plant,
                           random_multiplex_graph, sparse_multiplex_graph,
                           toy_problem)

from oracles import candidates_per_vertex, degrees_per_arc, unary_candidates


def same_sets(got, want) -> bool:
    """Equal sets, and template vertices share one set object exactly
    where the reference's do."""
    return got == want and all((a is b) == (c is d)
                               for a, c in zip(got, want)
                               for b, d in zip(got, want))


def labelled_multiplex(rng, n, channels, isolated, labels):
    """A random multiplex graph (multiplicities up to 3, self-loops) on
    ``n`` vertices, plus ``isolated`` vertices without arcs, labelled from
    ``labels`` (unlabelled when ``labels`` is None)."""
    core = random_multiplex_graph(rng, n, channels, rng.choice([0.15, 0.3]),
                                  max_multiplicity=3, self_loops=True,
                                  directed=rng.random() < 0.5)
    size = n + isolated
    g = MultiplexGraph(size, channels, None if labels is None else
                       [rng.choice(labels) for _ in range(size)])
    order = rng.sample(range(size), size)  # isolated vertices anywhere
    for a in range(n):
        for b, mult in core.out[a].items():
            for ch, m in enumerate(mult, start=1):
                if m:
                    g.add_edge(order[a], order[b], ch, m)
    return g, order[n:]


class TestInitCandidates:
    def test_toy_degree_filter(self):
        cs = init_candidates(toy_problem())
        assert cs[0] == {0, 3}        # out-degree >= 2
        assert cs[1] == {1, 2, 3, 4, 5, 6}
        assert cs[2] == cs[1]

    def test_multiplicity_degrees(self):
        t = MultiplexGraph(2, 1)
        t.add_edge(0, 1, 1, 2)
        w = MultiplexGraph(3, 1)
        w.add_edge(0, 1, 1, 2)
        w.add_edge(2, 1, 1, 1)
        cs = init_candidates(Problem(t, w))
        assert cs[0] == {0}           # needs out multiplicity 2
        assert cs[1] == {1}           # needs in multiplicity 2

    def test_label_filter(self):
        t = Graph(1, labels=["x"])
        w = Graph(2, labels=["y", "x"])
        assert init_candidates(Problem(t, w))[0] == {1}

    def test_self_loop_filter(self):
        # Every world vertex has the degrees of a multiplicity-2 self-loop.
        t = MultiplexGraph(1, 1)
        t.add_edge(0, 0, 1, 2)
        w = MultiplexGraph(4, 1)
        w.add_edge(0, 1, 1, 2)   # 0 and 1: no self-loop
        w.add_edge(1, 0, 1, 2)
        w.add_edge(2, 2, 1, 1)   # 2: self-loop too thin
        w.add_edge(2, 3, 1, 1)
        w.add_edge(3, 2, 1, 1)
        w.add_edge(3, 3, 1, 2)   # 3: dominates
        assert init_candidates(Problem(t, w))[0] == {3}

    def test_empty_set_allowed(self):
        t = Graph(2)
        t.add_edge(0, 1)
        assert init_candidates(Problem(t, Graph(3)))[0] == set()

    def test_matches_per_arc_oracle(self, rng):
        nonempty = isolated_seen = 0
        for i in range(150):
            k = 1 + i % 3
            t, _ = labelled_multiplex(rng, rng.randint(2, 5), k,
                                      rng.randint(0, 1), [None, "a", "b"])
            w, isolated = labelled_multiplex(
                rng, rng.randint(5, 10), k, rng.randint(1, 3),
                None if i % 4 == 0 else ["a", "b", "c"])
            if i % 2:
                plant(rng, t, w)
            for g in (t, w):
                want = degrees_per_arc(g)
                assert [degree_vector(g, v)
                        for v in range(g.vertex_count)] == want
            for c in isolated:
                if not w.out[c] and not w.inn[c]:
                    assert degree_vector(w, c) == [(0, 0)] * k
                    isolated_seen += 1
            problem = Problem(t, w)
            got = init_candidates(problem)
            assert [set(cs) for cs in got] == unary_candidates(problem), i
            assert same_sets(got, candidates_per_vertex(problem)), i
            nonempty += all(got)
        assert nonempty >= 30 and isolated_seen >= 100

    def test_many_template_channels_match_per_vertex_oracle(self, rng):
        # A template whose arcs span five or more channels sums each
        # vertex's degrees as one row of its arc tuples, cut to those
        # channels unless they are all of them; fewer sum by columns.
        spans = {"rows, cut": 0, "rows, all": 0, "columns": 0}
        for i in range(80):
            k = rng.randint(5, 8)
            t, _ = labelled_multiplex(rng, rng.randint(3, 6), k, 0,
                                      [None, "a"])
            w, _ = labelled_multiplex(rng, rng.randint(6, 12), k,
                                      rng.randint(0, 2),
                                      None if i % 3 == 0 else ["a", "b"])
            if i % 2:
                plant(rng, t, w)
            used = {j for arcs in t.out for e in arcs.values()
                    for j, m in enumerate(e) if m}
            spans["columns" if len(used) <= 4 else
                  "rows, all" if len(used) == k else "rows, cut"] += 1
            problem = Problem(t, w)
            got = init_candidates(problem)
            assert [set(cs) for cs in got] == unary_candidates(problem), i
            assert same_sets(got, candidates_per_vertex(problem)), i
        assert min(spans.values()) >= 5, spans

    def test_matches_reference_on_twin_world(self, twin_world):
        # The grouped tests against the per-vertex ones in a world of
        # twins and self-loops, unlabelled and with three labels, for
        # templates with labels and self-loops, with many degree profiles,
        # and with no arc.
        looped = Graph(3, labels=["a", None, "b"])
        for a, b in ((0, 1), (1, 2), (0, 2)):
            looped.add_edge(a, b)
            looped.add_edge(b, a)
        looped.add_edge(0, 0)
        looped.add_edge(1, 1)
        labelled = copy.copy(twin_world)
        labelled.labels = [("a", "b", "c")[v % 3]
                           for v in range(twin_world.vertex_count)]
        for w in (twin_world, labelled):
            for t in (caterpillar(8), looped, Graph(2)):
                problem = Problem(t, w)
                got = init_candidates(problem)
                assert same_sets(got, candidates_per_vertex(problem))
                # An unlabelled world has no image for a labelled vertex.
                assert all(got) == (w is labelled or t is not looped)


class TestChannelCount:
    """The degree test reads only the channels where the template has an
    arc, so unused channels change neither the sets nor the set-up time."""

    @staticmethod
    def spread(g, where, k):
        """``g`` with channel ``ch`` moved to ``where[ch - 1]`` of ``k``."""
        h = MultiplexGraph(g.vertex_count, k, g.labels)
        for a, nbrs in enumerate(g.out):
            for b, mult in nbrs.items():
                for ch, m in enumerate(mult, start=1):
                    if m:
                        h.add_edge(a, b, where[ch - 1], m)
        return h

    def test_unused_channels_keep_the_sets(self, rng):
        for i in range(60):
            k = 1 + i % 3
            t, _ = labelled_multiplex(rng, rng.randint(2, 5), k,
                                      rng.randint(0, 1), [None, "a", "b"])
            w, _ = labelled_multiplex(rng, rng.randint(5, 10), k,
                                      rng.randint(1, 3), ["a", "b", "c"])
            if i % 2:
                plant(rng, t, w)
            where = rng.sample(range(1, k + 128), k)
            padded = Problem(self.spread(t, where, k + 127),
                             self.spread(w, where, k + 127))
            assert init_candidates(padded) == init_candidates(Problem(t, w)), i

    def test_setup_flat_in_channel_count(self):
        def best(problem):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                init_candidates(problem)
                times.append(time.perf_counter() - start)
            return min(times)

        took = {}
        for k in (1, 128):
            t = MultiplexGraph(3, k)
            for a, b in ((0, 1), (1, 2), (0, 2)):
                t.add_edge(a, b)
                t.add_edge(b, a)
            w = sparse_multiplex_graph(random.Random(10000), 10000, 30000, k)
            took[k] = best(Problem(t, w))
        assert took[128] <= 2 * took[1], took


class TestApplyFilters:
    def test_toy_reduction(self):
        p = toy_problem()
        cs = apply_filters([(0, 0)], init_candidates(p), p)
        assert cs[0] == {0}
        assert cs[1] == {1, 2, 3, 4}
        cs = apply_filters([(0, 3)], init_candidates(p), p)
        assert cs[0] == {3}
        assert cs[1] == {4, 5, 6}

    def test_inconsistent_match_revises_matched_vertices(self):
        # 3 -> 1 is no world arc: a hand-given match is checked too, and
        # its wipe-out reaches every vertex.
        p = toy_problem()
        assert apply_filters([(0, 3), (1, 1)], init_candidates(p), p) == \
            [set(), set(), set()]

    def test_arc_consistency_prunes_unsupported(self):
        # Template path 0->1->2; world path 0->1 plus isolated 2: vertex 2
        # is degree-feasible for nothing, and 1 loses support for child 2.
        t = Graph(3)
        t.add_edge(0, 1)
        t.add_edge(1, 2)
        w = Graph(4)
        w.add_edge(0, 1)
        w.add_edge(1, 2)
        w.add_edge(2, 3)
        cs = apply_filters([], init_candidates(Problem(t, w)), Problem(t, w))
        assert cs[0] == {0, 1}
        assert cs[1] == {1, 2}
        assert cs[2] == {2, 3}


class TestCandidateStructure:
    def test_toy_pair_graph_edges(self):
        p = toy_problem()
        s = build_candidate_structure(p, init_candidates(p))
        i = s.index[(0, 0)]
        j = s.index[(1, 1)]
        assert s.pair_graph.has_edge(i, j)
        assert not s.pair_graph.has_edge(j, i)
        # (0,3) supports only candidates 4, 5, 6 of vertex 1
        k = s.index[(0, 3)]
        assert not s.pair_graph.has_edge(k, j)

    def test_candidate_equivalence_toy(self):
        p = toy_problem()
        cs = apply_filters([(0, 0)], init_candidates(p), p)
        s = build_candidate_structure(p, cs)
        # After fixing the hub, the four fan leaves are interchangeable.
        assert s.candidate_equivalent(2, 1, 2)
        assert s.candidate_equivalent(2, 1, 4)
        assert s.fully_candidate_equivalent(2, 3)
        # Both outside a candidate set counts as equivalent.
        assert s.candidate_equivalent(0, 5, 6)
        assert not s.candidate_equivalent(0, 0, 5)


class TestNodeCover:
    def test_greedy_cover_toy(self):
        assert greedy_node_cover(toy_problem().template) == (0,)

    def test_greedy_cover_path(self):
        assert greedy_node_cover(cover_problem().template) == (1, 3)

    def test_is_node_cover(self):
        t = cover_problem().template
        assert is_node_cover(t, (1, 3))
        assert is_node_cover(t, (0, 1, 3))
        assert not is_node_cover(t, (1,))
        assert is_node_cover(Graph(3), ())

    def test_self_loop_needs_own_vertex(self):
        g = Graph(2)
        g.add_edge(0, 0)
        assert greedy_node_cover(g) == (0,)
        assert not is_node_cover(g, (1,))


class TestNodeCoverEquivalent:
    def test_membership_vectors(self):
        p = cover_problem()
        cover = (1, 3)
        match = [(1, 1), (3, 4)]
        cs = apply_filters(match, init_candidates(p), p)
        assert node_cover_equivalent(cs, cover, match, 2, 3)
        assert not node_cover_equivalent(cs, cover, match, 0, 5)

    def test_unmatched_cover_is_contract_error(self):
        p = cover_problem()
        cs = init_candidates(p)
        with pytest.raises(ValueError, match="not matched"):
            node_cover_equivalent(cs, (1, 3), [(1, 1)], 0, 2)
