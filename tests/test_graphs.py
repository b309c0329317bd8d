"""Graph containers, parsers, and serializers."""

import pytest
from hypothesis import given, strategies as st

from eqmatch.graphs import (Graph, MultiplexGraph, ParseError, Problem,
                            degree_vector, dominates,
                            is_subgraph_isomorphism, parse_lad,
                            parse_multiplex_edgelist, serialize_lad,
                            serialize_multiplex_edgelist)
from eqmatch.synth import random_multiplex_graph, random_problem, toy_problem

import copy
import random

from oracles import brute_force_solutions, iso_per_arc


@st.composite
def multiplex_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    k = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    prob = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    loops = draw(st.booleans())
    return random_multiplex_graph(random.Random(seed), n, k,
                                  edge_prob=prob, self_loops=loops)


class TestMultiplexGraph:
    def test_add_edge_accumulates_multiplicity(self):
        g = MultiplexGraph(3, channels=2)
        g.add_edge(0, 1, channel=2, multiplicity=3)
        g.add_edge(0, 1, channel=2, multiplicity=1)
        g.add_edge(0, 1, channel=1)
        assert g.edge(0, 1) == (1, 4)
        assert g.edge(1, 0) is None
        assert g.edge_count() == 5

    def test_graph_presence_semantics(self):
        g = Graph(2)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        assert g.edge(0, 1) == (1,)

    def test_vertex_bounds_checked(self):
        g = Graph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, channel=2)
        with pytest.raises(ValueError):
            MultiplexGraph(3).add_edge(0, 1, multiplicity=0)

    def test_degree_counts_multiplicity_and_loops(self):
        g = MultiplexGraph(2, channels=2)
        g.add_edge(0, 1, 1, 2)
        g.add_edge(0, 0, 2, 1)
        assert g.degree(0) == 4  # out 2, self-loop in+out
        assert g.degree(1) == 2
        assert degree_vector(g, 0) == [(0, 2), (1, 1)]

    def test_labels(self):
        g = Graph(2, labels=["a", "b"])
        assert g.label(0) == "a"
        with pytest.raises(ValueError):
            Graph(2, labels=["a"])


class TestDominates:
    def test_positive_channels_only(self):
        assert dominates((2, 0), (1, 0))
        assert dominates((1, 0), (1, 5)) is False
        assert dominates((0, 7), (0, 3))
        assert dominates(None, (1,)) is False

    def test_zero_template_channel_ignored(self):
        assert dominates((0, 2), (0, 1))


class TestLad:
    def test_parse_directed(self):
        g = parse_lad("3\n2 1 2\n0\n1 0\n")
        assert g.vertex_count == 3
        assert g.has_edge(0, 1) and g.has_edge(2, 0)
        assert not g.has_edge(1, 0)

    def test_parse_undirected_inserts_reverse(self):
        g = parse_lad("2\n1 1\n0\n", directed=False)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_error_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_lad("2\nx 1\n0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_lad("2\n1 5\n0\n")
        with pytest.raises(ParseError, match="truncated"):
            parse_lad("3\n0\n")
        with pytest.raises(ParseError, match="trailing"):
            parse_lad("1\n0\n9\n")

    @given(multiplex_graphs().filter(lambda g: g.channels == 1))
    def test_round_trip(self, g):
        single = Graph(g.vertex_count)
        for u in range(g.vertex_count):
            for v in g.out[u]:
                single.add_edge(u, v)
        assert parse_lad(serialize_lad(single)) == single


class TestMultiplexEdgelist:
    def test_round_trip_example(self):
        text = "3 2\n0 1 1 2\n0 1 2 1\n2 0 1 1\n"
        g = parse_multiplex_edgelist(text)
        assert g.edge(0, 1) == (2, 1)
        assert serialize_multiplex_edgelist(g) == text

    def test_duplicates_sum(self):
        g = parse_multiplex_edgelist("2 1\n0 1 1 1\n0 1 1 2\n")
        assert g.edge(0, 1) == (3,)

    def test_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_multiplex_edgelist("")
        with pytest.raises(ParseError, match="header"):
            parse_multiplex_edgelist("3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_multiplex_edgelist("2 1\n0 1 1\n")
        with pytest.raises(ParseError, match="channel 2"):
            parse_multiplex_edgelist("2 1\n0 1 2 1\n")
        with pytest.raises(ParseError, match="multiplicity 0"):
            parse_multiplex_edgelist("2 1\n0 1 1 0\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_multiplex_edgelist("2 1\n0 5 1 1\n")

    @given(multiplex_graphs())
    def test_round_trip(self, g):
        assert parse_multiplex_edgelist(serialize_multiplex_edgelist(g)) == g


class TestProblem:
    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Problem(MultiplexGraph(1, 1), MultiplexGraph(1, 2))


class TestIsSubgraphIsomorphism:
    def test_basic(self):
        t = Graph(2)
        t.add_edge(0, 1)
        w = Graph(3)
        w.add_edge(0, 1)
        w.add_edge(1, 2)
        p = Problem(t, w)
        assert is_subgraph_isomorphism(p, {0: 0, 1: 1})
        assert is_subgraph_isomorphism(p, {0: 1, 1: 2})
        assert not is_subgraph_isomorphism(p, {0: 1, 1: 0})
        assert not is_subgraph_isomorphism(p, {0: 0, 1: 0})  # not injective
        assert not is_subgraph_isomorphism(p, {0: 0})  # partial

    def test_multiplicity_dominance(self):
        t = MultiplexGraph(2, 2)
        t.add_edge(0, 1, 1, 2)
        w = MultiplexGraph(2, 2)
        w.add_edge(0, 1, 1, 1)
        assert not is_subgraph_isomorphism(Problem(t, w), {0: 0, 1: 1})
        w.add_edge(0, 1, 1, 1)
        assert is_subgraph_isomorphism(Problem(t, w), {0: 0, 1: 1})

    def test_key_outside_the_template_is_not_total(self):
        p = toy_problem()
        assert not is_subgraph_isomorphism(p, {0: 0, 1: 1, 5: 2})
        assert not is_subgraph_isomorphism(p, {0: 0, 1: 1, -1: 2})
        assert not is_subgraph_isomorphism(p, {5: 0, 1: 1, 2: 2})

    def test_labels(self):
        t = Graph(2, labels=["a", None])
        t.add_edge(0, 1)
        w = Graph(3, labels=["b", "a", "a"])
        w.add_edge(0, 1)
        w.add_edge(1, 2)
        p = Problem(t, w)
        assert not is_subgraph_isomorphism(p, {0: 0, 1: 1})
        assert is_subgraph_isomorphism(p, {0: 1, 1: 2})
        w.labels = None
        assert not is_subgraph_isomorphism(p, {0: 1, 1: 2})

    def test_matches_per_arc_oracle(self):
        """Valid maps and perturbed ones on seeded instances with 1-3
        channels, self-loops and labels. A world arc under a template arc
        is also reset to equal its requirement, to exceed it in one channel
        and to fall one short in one channel."""
        rng = random.Random(0x150)
        resets = 0
        verdicts = {True: 0, False: 0}

        def check(p, f):
            want = iso_per_arc(p, f)
            assert is_subgraph_isomorphism(p, f) == want, f
            verdicts[want] += 1

        for i in range(150):
            p = random_problem(rng, template_size=(2, 5), world_size=(5, 8),
                               channels=(1, 2, 3), edge_prob=0.4,
                               self_loops=i % 2 == 0, directed=i % 3 != 0)
            t, w = p.template, p.world
            nt, nw = t.vertex_count, w.vertex_count
            if i % 5 == 0:
                w.labels = [rng.choice("ab") for _ in range(nw)]
                t.labels = [rng.choice(["a", "b", None]) for _ in range(nt)]
            maps = brute_force_solutions(p)[:4]
            maps += [dict(enumerate(rng.sample(range(nw), nt)))
                     for _ in range(4)]
            for f in maps:
                check(p, f)
                u, v = rng.sample(range(nt), 2)
                check(p, {**f, u: f[v], v: f[u]})         # swapped images
                check(p, {**f, u: f[v]})                  # not injective
                check(p, {**f, u: nw})                    # outside the world
                g = dict(f)
                g[nt] = g.pop(u)                          # key outside
                check(p, g)
                arcs = [(a, b, req) for a in range(nt)
                        for b, req in t.out[a].items()]
                if not arcs:
                    continue
                a, b, req = rng.choice(arcs)
                k = rng.choice([ch for ch, m in enumerate(req) if m > 0])
                for ch, delta in ((k, 0), (rng.randrange(len(req)), 1),
                                  (k, -1)):  # equal, exceeds, falls short
                    have = list(req)
                    have[ch] += delta
                    q = copy.deepcopy(p)
                    if any(have):
                        q.world.out[f[a]][f[b]] = tuple(have)
                        q.world.inn[f[b]][f[a]] = tuple(have)
                    else:
                        q.world.out[f[a]].pop(f[b], None)
                        q.world.inn[f[b]].pop(f[a], None)
                    resets += 1
                    check(q, f)
        assert resets > 300
        assert min(verdicts.values()) > 100
