"""Graph containers, parsers, and serializers."""

import pytest
from hypothesis import given, strategies as st

from eqmatch.graphs import (Graph, MultiplexGraph, ParseError, Problem,
                            degree_vector, dominates,
                            is_subgraph_isomorphism, parse_lad,
                            parse_multiplex_edgelist, serialize_lad,
                            serialize_multiplex_edgelist)
from eqmatch.synth import (random_multiplex_graph, random_problem,
                           sparse_multiplex_graph, toy_problem)

import copy
import random
import tracemalloc

import oracles
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
        for bad in ({"multiplicity": 0}, {"multiplicity": -1}, {"channel": 2},
                    {"channel": 0}):
            with pytest.raises(ValueError):
                Graph(2).add_edge(0, 1, **bad)
        g.add_edge(0, 1)
        for bad in ({"multiplicity": 0}, {"channel": 2}):
            with pytest.raises(ValueError):
                g.add_edge(0, 1, **bad)  # a repeated arc is checked too
        assert g.edge(0, 1) == (1,)

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


class TestSharedTuples:
    """Arcs with equal multiplicity vectors hold one tuple object, so a
    graph's memory does not grow with arcs times channels."""

    @staticmethod
    def distinct(g):
        arcs = [e for nbrs in g.out for e in nbrs.values()]
        arcs += [e for nbrs in g.inn for e in nbrs.values()]
        return len({id(e) for e in arcs}), len(set(arcs))

    def test_equal_vectors_are_one_object(self):
        g = MultiplexGraph(4, channels=3)
        g.add_edge(0, 1, channel=2, multiplicity=3)
        g.add_edge(2, 3, channel=2, multiplicity=3)
        g.add_edge(1, 0, channel=1)
        g.add_edge(1, 0, channel=3)
        g.add_edge(3, 2, channel=3)
        g.add_edge(3, 2, channel=1)
        assert g.edge(0, 1) is g.edge(2, 3) and g.edge(0, 1) == (0, 3, 0)
        assert g.edge(1, 0) is g.edge(3, 2) and g.edge(1, 0) == (1, 0, 1)
        assert g.inn[1][0] is g.out[0][1]
        text = "4 3\n0 1 2 3\n1 0 1 1\n1 0 3 1\n2 3 2 2\n2 3 2 1\n3 2 3 1\n3 2 1 1\n"
        h = parse_multiplex_edgelist(text)
        assert h == g
        assert h.edge(0, 1) is h.edge(2, 3) and h.edge(1, 0) is h.edge(3, 2)
        assert h.inn[3][2] is h.out[2][3]

    def test_random_graphs_hold_one_object_per_vector(self):
        rng = random.Random(21)
        for i in range(40):
            g = random_multiplex_graph(rng, rng.randint(2, 12), 1 + i % 4,
                                       rng.choice([0.2, 0.5]),
                                       max_multiplicity=3, self_loops=True)
            ids, values = self.distinct(g)
            assert ids == values, i
            h = parse_multiplex_edgelist(serialize_multiplex_edgelist(g))
            assert h == g and self.distinct(h) == (ids, values), i

    def test_size_flat_in_channel_count(self):
        # A seeded 5,000-vertex world of 15,000 undirected edges, each in
        # one random channel: unshared, the arcs' tuples alone would make
        # K=128 take about 6x K=1's size (CI runs 20,000 vertices).
        def traced(build):
            tracemalloc.start()
            try:
                g = build()
                return g, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        sizes = {}
        for k in (1, 128):
            g, built = traced(lambda: sparse_multiplex_graph(
                random.Random(5000), 5000, 15000, k))
            text = serialize_multiplex_edgelist(g)
            h, parsed = traced(lambda: parse_multiplex_edgelist(text))
            assert h == g
            sizes[k] = built, parsed
        for path in (0, 1):
            assert sizes[128][path] <= 1.5 * sizes[1][path], sizes

    def test_table_keeps_final_vectors_of_multichannel_arcs(self):
        # Each edge sits in 1-4 of 16 channels with multiplicities 1-3, so
        # most arcs take several quads or add_edge calls to build and pass
        # through vectors that no arc keeps.
        rng = random.Random(16)
        g = MultiplexGraph(2000, channels=16)
        for _ in range(6000):
            a, b = rng.sample(range(2000), 2)
            for ch in rng.sample(range(1, 17), rng.randint(1, 4)):
                m = rng.randint(1, 3)
                g.add_edge(a, b, ch, m)
                g.add_edge(b, a, ch, m)
        arcs = [e for nbrs in g.out for e in nbrs.values()]
        final = set(arcs)
        assert len(final) < len(arcs) and final <= g._types.keys()
        assert len(g._types) <= len(final) + len(arcs)
        text = serialize_multiplex_edgelist(g)
        tracemalloc.start()
        try:
            h = parse_multiplex_edgelist(text)
            shared = tracemalloc.get_traced_memory()[0]
            del h
            # One tuple per arc, as the graph held before it shared them.
            h = parse_multiplex_edgelist(text)
            for u, nbrs in enumerate(h.out):
                for v, e in nbrs.items():
                    nbrs[v] = h.inn[v][u] = tuple(list(e))
            h._types = {}
            unshared = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        h = parse_multiplex_edgelist(text)
        assert h == g and len(h._types) == len(final)
        assert h._types.keys() == final
        assert shared <= unshared, (shared, unshared)
        # Arcs that share no vector and pass through three each: unpruned,
        # the table would hold three tuples per arc that no arc keeps.
        d = MultiplexGraph(500, channels=4)
        for ch in range(1, 5):
            for u in range(500):
                d.add_edge(u, (u + 1) % 500, ch, u + 1)
        assert len(d._types) <= 2 * 500

    def test_sparse_generator(self):
        g = sparse_multiplex_graph(random.Random(5), 50, 120, 4)
        h = sparse_multiplex_graph(random.Random(5), 50, 120, 1)
        assert g == sparse_multiplex_graph(random.Random(5), 50, 120, 4)
        assert g.channels == 4 and g.edge_count() == 2 * 120
        assert all(v != u for u in range(50) for v in g.out[u])
        assert all(g.edge(v, u) == e for u in range(50)
                   for v, e in g.out[u].items())
        # One seed draws the same pairs for every channel count.
        assert ([sorted(nbrs) for nbrs in g.out]
                == [sorted(nbrs) for nbrs in h.out])
        assert len({ch for nbrs in g.out for e in nbrs.values()
                    for ch, m in enumerate(e) if m}) > 1


class TestSharedKeys:
    def test_parsed_graph_holds_one_key_object_per_vertex(self):
        # Ints above 256 are not cached: keyed by each token's own int, a
        # parsed graph would hold two key objects per arc.
        g = sparse_multiplex_graph(random.Random(2000), 2000, 6000)
        for parse, text in ((parse_multiplex_edgelist,
                             serialize_multiplex_edgelist(g)),
                            (parse_lad, serialize_lad(g))):
            h = parse(text)
            assert [nbrs.keys() for nbrs in h.out] == [
                nbrs.keys() for nbrs in g.out], parse
            keys = {id(v) for nbrs in (*h.out, *h.inn) for v in nbrs}
            assert len(keys) <= 2000, parse

    def test_few_arcs_build_no_key_per_vertex(self):
        # A text that declares more vertices than it has endpoint tokens
        # maps no token through a list of one int per vertex, so the parse
        # peaks at the graph's own size. Mapped, "1000000 1\n0 1 1 1\n"
        # peaked at 176 MiB traced against the graph's 138 MiB.
        tracemalloc.start()
        try:
            g = parse_multiplex_edgelist("100000 1\n0 1 1 1\n")
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.vertex_count == 100000 and g.edge(0, 1) == (1,)
        assert peak - size < size / 20, (size, peak)


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


def _outcome(parse, text, **kw):
    """A parse's graph as (type, n, K, out items, inn items), dict order
    included, or ("error", line)."""
    try:
        g = parse(text, **kw)
    except ParseError as exc:
        return ("error", exc.line)
    return (type(g), g.vertex_count, g.channels,
            [list(d.items()) for d in g.out], [list(d.items()) for d in g.inn])


def _valid_text(rng, fmt):
    """Serialized random graph text. Some texts are reshuffled first: LAD
    rows get repeated neighbours and tokens rewrapped across lines;
    multiplex edge lines get shuffled and repeated (their multiplicities
    sum)."""
    directed = rng.random() < 0.6
    g = random_multiplex_graph(rng, rng.randint(0, 8),
                               1 if fmt == "lad" else rng.randint(1, 3),
                               edge_prob=rng.choice([0.0, 0.2, 0.5]),
                               max_multiplicity=3, self_loops=rng.random() < 0.5,
                               directed=directed)
    if fmt == "multiplex":
        head, *lines = serialize_multiplex_edgelist(g).splitlines()
        if lines and rng.random() < 0.3:
            lines += rng.sample(lines, rng.randint(1, len(lines)))
            rng.shuffle(lines)
        return "\n".join([head] + lines) + "\n"
    rows = [row.split() for row in serialize_lad(g).splitlines()]
    if rng.random() < 0.3:
        for row in rows[1:]:
            if len(row) > 1 and rng.random() < 0.5:
                row[1:] = rng.choices(row[1:], k=int(row[0]))
    lines = [" ".join(row) for row in rows]
    if rng.random() < 0.2:
        words = " ".join(lines).split()
        lines = []
        while words:
            cut = rng.randint(1, 4)
            lines.append(" ".join(words[:cut]))
            words = words[cut:]
    return "\n".join(lines) + "\n"


def _mutate(rng, text, kind):
    """``text`` with one fault of ``kind`` (or none, for "none")."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(r, i) for r, row in enumerate(lines) for i in range(len(row))]
    if kind == "blank":
        lines.insert(rng.randint(0, len(lines)), [" "] if rng.random() < 0.5 else [])
    elif kind == "insert":
        lines = lines or [[]]
        r = rng.randrange(len(lines))
        lines[r].insert(rng.randint(0, len(lines[r])), str(rng.randint(0, 4)))
    elif kind != "none" and spots:
        r, i = rng.choice(spots)
        if kind == "delete":
            del lines[r][i]
        elif kind == "range":
            n = int(lines[0][0]) if lines[0] else 0
            lines[r][i] = str(rng.choice([n, n + 1, 4]))
        else:
            lines[r][i] = kind
    return "\n".join(" ".join(row) for row in lines) + "\n"


class TestParsersMatchOracle:
    """The parsers against the token-at-a-time reference parsers of
    ``oracles``: equal graphs and equal ``inn`` (dict order included) on
    valid texts, and ``ParseError`` on the same line otherwise."""

    PARSERS = {"lad": (parse_lad, oracles.parse_lad),
               "multiplex": (parse_multiplex_edgelist,
                             oracles.parse_multiplex_edgelist)}
    KINDS = ("none", "none", "x", "-1", "range", "delete", "insert", "blank")

    def test_single_fault_fuzz(self):
        rng = random.Random(0x70C)
        seen = {"graph": 0, "error": 0}
        texts = 0
        for i in range(2400):
            fmt = ("lad", "multiplex")[i % 2]
            text = _mutate(rng, _valid_text(rng, fmt), rng.choice(self.KINDS))
            texts += 1
            parse, oracle = self.PARSERS[fmt]
            want = _outcome(oracle, text)
            assert _outcome(parse, text) == want, text
            seen["error" if want[0] == "error" else "graph"] += 1
        assert texts >= 2000
        assert min(seen.values()) > 1000, seen

    def test_multi_fault_texts_raise(self):
        rng = random.Random(0x70D)
        for i in range(200):
            fmt = ("lad", "multiplex")[i % 2]
            text = _valid_text(rng, fmt)
            for _ in range(rng.randint(2, 3)):
                text = _mutate(rng, text, rng.choice(("x", "-1")))
            parse, oracle = self.PARSERS[fmt]
            with pytest.raises(ParseError) as got:
                parse(text)
            assert _outcome(oracle, text) == ("error", got.value.line), text

    def test_first_fault_in_reading_order_is_named(self):
        for parse, text, line in [
                (parse_lad, "3\n1 9\nx\n0\n", 2),
                (parse_lad, "\n\n-2\n", 3),
                (parse_lad, "2\n2 1\n\n", 2),
                (parse_lad, "2\n1 x\n1 -1\n", 2),
                (parse_multiplex_edgelist, "2 1\n0 9 1 1\n0 1\n", 2),
                (parse_multiplex_edgelist, "2 1\n0 1 1\n0 9 1 1\nx\n", 2),
                (parse_multiplex_edgelist, "\n2 1\n0 1 1 1\n0 1 x 1\n1 9\n", 4),
                (parse_multiplex_edgelist, "\n\n2 x\n0 1\n", 3)]:
            with pytest.raises(ParseError) as got:
                parse(text)
            assert got.value.line == line, text


class TestFaultBeforeAllocation:
    """A fault in a short text that declares many vertices raises before
    the per-vertex dicts are allocated: memory follows the text, not the
    vertex count it declares."""

    @pytest.mark.parametrize("parse, text, message", [
        (parse_lad, "1000000",
         "line 1: truncated file: expected out-degree of vertex 0"),
        (parse_lad, "1000000\n1 7\n1 -4\n",
         "line 3: neighbor index -4 out of range [0, 1000000)"),
        (parse_multiplex_edgelist, "1000000 1\n0 1 1 0\n",
         "line 2: multiplicity 0 must be >= 1"),
        (parse_multiplex_edgelist, "1000000 1\n0 1 1 1\n5 1000000 1 1\n",
         "line 3: vertex 1000000 out of range [0, 1000000)")])
    def test_fault_raises_in_bounded_memory(self, parse, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as got:
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == message
        assert peak < 8 * 2 ** 20

    def test_valid_large_count_parses(self):
        g = parse_multiplex_edgelist("1000000 1\n")
        assert g.vertex_count == 1000000 and g.channels == 1
        assert not any(g.out) and not any(g.inn)


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
