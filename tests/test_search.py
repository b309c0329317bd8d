"""The equivalence-aware tree search across all seven modes."""

import copy
import gc
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from eqmatch import search
from eqmatch.graphs import Graph, MultiplexGraph, Problem
from eqmatch.search import (ALL_MODES, Mode, Slot, SolutionClass, _bits,
                            _domains, _propagate, _Searcher, _support_masks,
                            apply_filters, expand_solution_class,
                            expansion_count_of, next_template_vertex, solve)
from eqmatch.candidates import (build_candidate_structure, greedy_node_cover,
                                init_candidates)
from eqmatch.equivalence import _CHECK_EVERY, DeadlineExceeded
from eqmatch.synth import (caterpillar, cover_problem, huge_count_problem,
                           plant, random_multiplex_graph, random_problem,
                           sparse_multiplex_graph, star_problem, toy_problem)

from oracles import (arc_consistent, brute_force_count, brute_force_solutions,
                     ce_cells, edge_ok, fe_cells, naive_structural_partition,
                     nc_cells, verify_mapping)

TOY_REPRESENTATIVES = {Mode.NE: 18, Mode.TE: 9, Mode.WE: 10, Mode.TEWE: 6,
                       Mode.CE: 5, Mode.FE: 2, Mode.NC: 2}


class TestToyFixture:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_representatives_and_total(self, mode):
        report, classes = solve(toy_problem(), mode)
        assert report.status == "completed"
        assert report.representatives == TOY_REPRESENTATIVES[mode]
        assert report.total == 18
        assert len(classes) == report.representatives
        assert sum(sc.count for sc in classes) == 18

    def test_fe_worked_class(self):
        _, classes = solve(toy_problem(), Mode.FE)
        by_hub = {sc.mapping()[0]: sc for sc in classes}
        big = by_hub[0]
        assert big.count == 12
        members = {s.template_vertex: set(s.members) for s in big.slots}
        assert members[1] == members[2] == {1, 2, 3, 4}
        assert by_hub[3].count == 6

    def test_ce_worked_class(self):
        _, classes = solve(toy_problem(), Mode.CE)
        counts = sorted(sc.count for sc in classes)
        assert counts == [2, 3, 3, 4, 6]
        six = next(sc for sc in classes if sc.count == 6)
        by_vertex = {s.template_vertex: s for s in six.slots}
        assert set(by_vertex[1].members) == {1, 2}
        assert set(by_vertex[2].members) == {1, 2, 3, 4}


def relabelled(rng, g):
    """A copy of ``g`` with its vertices randomly permuted."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    h = MultiplexGraph(g.vertex_count, g.channels)
    for u in range(g.vertex_count):
        for v, mults in g.out[u].items():
            for ch, m in enumerate(mults, start=1):
                if m:
                    h.add_edge(perm[u], perm[v], ch, m)
    return h


def sparse_triangle_problem(rng, n):
    """A transitive triangle in a random world of ``n`` vertices and about
    ``2n`` arcs."""
    world = Graph(n)
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            world.add_edge(a, b)
    triangle = Graph(3)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        triangle.add_edge(a, b)
    return Problem(triangle, world)


class TestModeAgreement:
    def test_randomized_against_brute_force(self, rng):
        for i in range(60):
            p = random_problem(rng, template_size=(3, 5), world_size=(5, 9),
                               self_loops=i % 3 == 0,
                               directed=i % 2 == 0,
                               planted=i % 5 != 4)
            expect = brute_force_count(p)
            for mode in ALL_MODES:
                report, classes = solve(p, mode, timeout=30)
                assert report.status == "completed"
                assert report.total == expect, (i, mode)
                # Modes with a cell builder emit maps without re-verifying them.
                assert all(verify_mapping(p, sc.mapping()) for sc in classes)

    def test_planted_totals_agree_under_relabelling(self, rng):
        # Beyond the oracle's reach: templates planted in sparse 50-150-vertex
        # worlds, and a copy with both vertex sets permuted. NE lists every
        # solution, so instances with more than 3000 are passed over.
        checked = 0
        for i in range(24):
            k, directed = 1 + i % 2, i % 4 < 2
            t = random_multiplex_graph(rng, rng.randint(5, 7), k, 0.25,
                                       directed=directed)
            w = random_multiplex_graph(rng, rng.randint(50, 150), k, 0.05,
                                       directed=directed)
            plant(rng, t, w)
            p = Problem(t, w, directed=directed)
            q = Problem(relabelled(rng, t), relabelled(rng, w),
                        directed=directed)
            if solve(p, Mode.NE, max_solutions=3000,
                     collect=False)[0].status != "completed":
                continue
            checked += 1
            reports = [solve(problem, mode, timeout=30, collect=False)[0]
                       for mode in ALL_MODES for problem in (p, q)]
            assert all(r.status == "completed" for r in reports)
            assert len({r.total for r in reports}) == 1, (i, reports)
            assert reports[0].total >= 1
        assert checked >= 12

    def test_spent_mask_budget_keeps_classes(self, rng, monkeypatch):
        # Past the budget, masks are rebuilt or set in a byte buffer; the
        # classes must not depend on which rows were memoised.
        for i in range(30):
            p = random_problem(rng, template_size=(3, 5), world_size=(6, 10),
                               self_loops=i % 3 == 0, directed=i % 2 == 0)
            runs = []
            for budget in (search._ROW_BYTES, 0, 600):
                monkeypatch.setattr(search, "_ROW_BYTES", budget)
                runs.append([(r.total, [sc.to_json() for sc in classes])
                             for r, classes in (solve(p, m) for m in ALL_MODES)])
            assert runs[0] == runs[1] == runs[2], i

    def test_representative_ordering(self, rng):
        for _ in range(40):
            p = random_problem(rng, template_size=(3, 5), world_size=(5, 9))
            reps = {m: solve(p, m, collect=False)[0].representatives
                    for m in ALL_MODES}
            assert reps[Mode.FE] <= reps[Mode.CE] <= reps[Mode.NE]
            assert reps[Mode.TEWE] <= reps[Mode.TE] <= reps[Mode.NE]
            assert reps[Mode.TEWE] <= reps[Mode.WE] <= reps[Mode.NE]


def per_arc_rows(w, req, out):
    """Per world vertex ``c``, the bitset of the neighbours ``c2`` whose arc
    ``c -> c2`` (``c2 -> c`` when not ``out``) dominates ``req``."""
    n = w.vertex_count
    return [sum(1 << c2 for c2 in range(n)
                if edge_ok(w.edge(c, c2) if out else w.edge(c2, c), req))
            for c in range(n)]


def listed_rows(t, tnbrs, u, u2, symmetric):
    """The ``((masks, i), requirement, out)`` triples that ``tnbrs[u]``
    must list for ``u2``: the out-table of ``u -> u2``, then the in-table
    of ``u2 -> u``, for each arc that exists. In a symmetric world, when
    both arcs exist with one tuple, one table serves both and is listed
    once."""
    want = [(req, out) for req, out in ((t.edge(u, u2), True),
                                        (t.edge(u2, u), False))
            if req is not None]
    listed = [(masks, i) for v, masks, i in tnbrs[u] if v == u2]
    if symmetric and len(want) == 2 and want[0][0] == want[1][0]:
        assert len(listed) == 1, (u, u2)
        listed *= 2
    assert len(listed) == len(want), (u, u2)
    return [(rows, req, out) for rows, (req, out) in zip(listed, want)]


class TestSupportRows:
    def test_rows_match_per_arc_support(self, rng, monkeypatch):
        # Each row ``masks[c][i]`` is one mask of a _Masks entry, which one
        # read of c's arcs fills for every requirement; it must still hold
        # exactly the neighbours whose arc dominates its requirement,
        # memoised, rebuilt or set in the byte buffer. Every template arc
        # is covered from both of its ends. A symmetric world has one
        # table, so an out-row and an in-row of one tuple are one pair.
        shared = separate = 0
        for i in range(30):
            # Directed in a directed world, undirected in an undirected
            # one, and directed in an undirected world left unplanted.
            tdirected, wdirected = i % 3 != 1, i % 3 == 0
            t = random_multiplex_graph(rng, rng.randint(3, 5), 3, 0.35,
                                       max_multiplicity=2, self_loops=True,
                                       directed=tdirected)
            w = random_multiplex_graph(rng, rng.randint(8, 12), 3, 0.35,
                                       max_multiplicity=3, self_loops=True,
                                       directed=wdirected)
            if i % 3 != 2:
                plant(rng, t, w)
            assert len({e for arcs in w.out for e in arcs.values()}) >= 3
            n, nt = w.vertex_count, t.vertex_count
            symmetric = all(w.edge(c2, c) == e for c in range(n)
                            for c2, e in w.out[c].items())
            assert symmetric == (not wdirected), i
            for budget in (search._ROW_BYTES, 0, 600):
                monkeypatch.setattr(search, "_ROW_BYTES", budget)
                tnbrs, tself = _support_masks(t, w)
                checks = []
                for u, nbrs in enumerate(tnbrs):
                    assert [u2 for u2, _, _ in nbrs] == sorted(
                        u2 for u2, _, _ in nbrs), (i, budget)
                    assert len(set(nbrs)) == len(nbrs), (i, budget)
                    assert all(masks is not None and u2 != u
                               for u2, masks, _ in nbrs), (i, budget)
                    views = 0
                    for u2 in range(nt):
                        if u2 != u:
                            pairs = listed_rows(t, tnbrs, u, u2, symmetric)
                            distinct = len({(id(masks), k)
                                            for (masks, k), _, _ in pairs})
                            views += distinct
                            shared += distinct < len(pairs)
                            checks += pairs
                    assert len(nbrs) == views, (i, budget)
                    out, inn = tself[u]
                    if out is not None:
                        assert (out[0] is inn[0]) == symmetric, (i, budget)
                    checks += [(out, t.edge(u, u), True),
                               (inn, t.edge(u, u), False)]
                separate += sum(pair[0].adj is w.inn
                                for pair, _, _ in checks if pair is not None)
                for pair, req, out in checks:
                    if pair is None:
                        assert req is None
                        continue
                    masks, k = pair
                    want = per_arc_rows(w, req, out)
                    for c in range(n):
                        assert masks.union(k, [c]) == want[c], (i, budget)
                        assert masks[c][k] == want[c], (i, budget)
                    cs = rng.sample(range(n), rng.randint(2, n))
                    expect = 0
                    for c in cs:
                        expect |= want[c]
                    assert masks.union(k, cs) == expect, (i, budget)
        assert shared >= 30 and separate >= 30

    @pytest.mark.parametrize("reverse", ["other tuple", "missing"])
    def test_views_stay_separate_in_an_asymmetric_world(self, reverse):
        # An undirected template edge in a world that is symmetric but for
        # the arc 3 -> 0: its reverse carries another tuple, or is missing.
        # The out- and in-rows of vertex 3 then differ, so each direction
        # keeps its own table.
        t = MultiplexGraph(2, 2)
        t.add_edge(0, 1, 1)
        t.add_edge(1, 0, 1)
        w = MultiplexGraph(4, 2)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            w.add_edge(a, b, 1)
            w.add_edge(b, a, 1)
        w.add_edge(3, 0, 1)
        if reverse == "other tuple":
            w.add_edge(0, 3, 2)
        tnbrs, _ = _support_masks(t, w)
        for u, u2 in ((0, 1), (1, 0)):
            (v, out, i), (v2, inn, j) = tnbrs[u]
            assert v == v2 == u2 and out is not inn
            assert out.adj is w.out and inn.adj is w.inn
            assert [out[c][i] for c in range(4)] == per_arc_rows(w, (1, 0),
                                                                 True)
            assert [inn[c][j] for c in range(4)] == per_arc_rows(w, (1, 0),
                                                                 False)
            assert out[3][i] != inn[3][j]

    def test_union_switches_to_buffer_where_budget_runs_out(
            self, monkeypatch):
        # The budget fits some entries of the first union, not all: the
        # row where it runs out is the last entry built; the rest of that
        # union, and every later one, reads arcs into the buffer.
        w = sparse_multiplex_graph(random.Random(3), 400, 1200)
        t = Graph(2)
        t.add_edge(0, 1)
        t.add_edge(1, 0)
        built = [0]
        missing = search._Masks.__missing__
        def counted(self, c):
            built[0] += 1
            return missing(self, c)
        monkeypatch.setattr(search._Masks, "__missing__", counted)
        monkeypatch.setattr(search, "_ROW_BYTES", 20000)
        _, masks, i = _support_masks(t, w)[0][0][0]
        cs = list(range(400))
        want = 0
        for c in cs:
            want |= sum(1 << c2 for c2 in w.out[c])
        assert masks.union(i, cs) == want
        kept = len(masks)
        assert 0 < kept < 400 and built[0] == kept + 1
        assert masks.budget == [0]
        assert masks.union(i, cs[::-1]) == want and built[0] == kept + 1
        assert all(masks[c][i] == sum(1 << c2 for c2 in w.out[c]) for c in cs)


class TestOneRead:
    def test_one_read_per_vertex_and_direction(self, rng, monkeypatch):
        # Both directions share one requirement list and one acceptance
        # memo: within the budget, a solve reads each world vertex's arcs
        # at most once per direction, and tests each (edge tuple,
        # requirement) at most once.
        reads, calls = Counter(), Counter()

        class Arcs(dict):
            def items(self):
                reads[self.key] += 1
                return super().items()

        def counting(adj, direction):
            arcs = []
            for c, nbrs in enumerate(adj):
                arcs.append(Arcs(nbrs))
                arcs[-1].key = (c, direction)
            return arcs

        dominates = search.dominates
        partition = search.find_equivalence_classes

        def counted_dominates(e, req):
            calls[e, req] += 1
            return dominates(e, req)

        def plain_partition(g, deadline=None):
            # The world partition reads arcs of its own; it gets the plain
            # world, so that only the support masks are counted.
            return partition(w if g is counted else g, deadline=deadline)

        monkeypatch.setattr(search, "dominates", counted_dominates)
        monkeypatch.setattr(search, "find_equivalence_classes", plain_partition)
        checked = 0
        for i in range(30):
            p = random_problem(rng, template_size=(3, 5), world_size=(8, 12),
                               channels=(3,), edge_prob=0.4,
                               self_loops=i % 3 == 0, directed=i % 2 == 0)
            w = p.world
            assert len({e for arcs in w.out for e in arcs.values()}) >= 3
            counted = copy.copy(w)
            counted.out, counted.inn = counting(w.out, "out"), counting(w.inn, "in")
            q = Problem(p.template, counted, directed=p.directed)
            for mode in ALL_MODES:
                total = solve(p, mode, collect=False)[0].total
                reads.clear()
                calls.clear()
                assert solve(q, mode, collect=False)[0].total == total
                assert max(reads.values(), default=0) <= 1, (i, mode)
                assert max(calls.values(), default=0) <= 1, (i, mode)
                checked += bool(reads) and bool(calls)
        assert checked >= 150


class TestPropagate:
    def test_matched_vertices_need_no_revision(self, rng):
        # Along the first classes' branches, as the search takes them: each
        # free candidate of the next vertex is tried, revising with and
        # without the matched vertices fixed.
        compared = wiped = 0
        for i in range(60):
            p = random_problem(rng, template_size=(3, 6), world_size=(6, 11),
                               self_loops=i % 3 == 0, directed=i % 2 == 0)
            nt = p.template.vertex_count
            tnbrs = _support_masks(p.template, p.world)[0]
            root = _domains(init_candidates(p))
            _propagate(tnbrs, root, range(nt))
            for sc in solve(p, Mode.NE, max_solutions=2)[1]:
                jc, matched = root, {}
                for s in sc.slots:
                    u, nxt = s.template_vertex, None
                    for c in _bits(jc[u]):
                        if c in matched.values():
                            continue
                        fixed = {**matched, u: c}
                        skip, full = list(jc), list(jc)
                        skip[u] = full[u] = 1 << c
                        _propagate(tnbrs, skip, [u], matched=fixed)
                        _propagate(tnbrs, full, [u])
                        free = [v for v in range(nt) if v not in fixed]
                        if 0 in skip or 0 in full:
                            wiped += 1
                            assert any(skip[v] == 0 for v in free), i
                            assert any(full[v] == 0 for v in free), i
                        else:
                            compared += 1
                            assert all(skip[v] == full[v] for v in free), i
                        if c == s.world_vertex:
                            nxt = skip
                    jc, matched = nxt, {**matched, u: s.world_vertex}
        assert compared >= 200 and wiped >= 20

    def test_no_decode_when_every_neighbour_is_matched(self, monkeypatch):
        # Directed paths 0 -> 1 -> 2 in 0 -> ... -> 4. With 0 and 2
        # matched, popping 1 has no neighbour to revise, and popping 0
        # revises 1 by the row of 0's one candidate: neither domain is
        # decoded. Unmatched, the arc-consistent domains of 0, 1 and 2 are
        # unchanged by popping 1, whose three candidates are decoded once
        # for both neighbours.
        t, w = Graph(3), Graph(5)
        for g in (t, w):
            for v in range(g.vertex_count - 1):
                g.add_edge(v, v + 1)
        tnbrs = _support_masks(t, w)[0]
        decoded = []
        def bits(d):
            decoded.append(d)
            return _bits(d)
        monkeypatch.setattr(search, "_bits", bits)
        jc = [1 << 0, 0b11111, 1 << 2]
        _propagate(tnbrs, jc, [1], matched={0: 0, 2: 2})
        assert decoded == [] and jc == [1 << 0, 0b11111, 1 << 2]
        _propagate(tnbrs, jc, [0], matched={0: 0, 2: 2})
        assert decoded == [] and jc == [1 << 0, 1 << 1, 1 << 2]
        jc = [0b00111, 0b01110, 0b11100]
        _propagate(tnbrs, jc, [1])
        assert decoded == [0b01110] and jc == [0b00111, 0b01110, 0b11100]

    def test_search_stops_at_the_first_wiped_out_domain(self, monkeypatch):
        # Path 0 - 1 - ... - 5 in the path 0 - ... - 7, vertex 0 matched to
        # world vertex 0, whose one neighbour is not a candidate of 1. With
        # a matched set the call fails as 1 empties: nothing further is
        # revised, unioned or decoded. Without one it returns the closure,
        # in which the empty domain empties the whole chain.
        k = 5
        t = undirected(k + 1, [(v, v + 1) for v in range(k)])
        w = undirected(8, [(v, v + 1) for v in range(7)])
        tnbrs = _support_masks(t, w)[0]
        unions, decoded = [0], []
        union = search._Masks.union
        def counted_union(self, i, cs, deadline=math.inf):
            unions[0] += 1
            return union(self, i, cs, deadline)
        def bits(d):
            decoded.append(d)
            return _bits(d)
        monkeypatch.setattr(search._Masks, "union", counted_union)
        monkeypatch.setattr(search, "_bits", bits)
        start = [1 << 0, 0xFF & ~(1 << 1)] + [0xFF] * (k - 1)
        jc = list(start)
        assert _propagate(tnbrs, jc, [0], matched={0: 0}) is False
        assert jc[1] == 0 and jc[2:] == start[2:]
        assert unions[0] == 0 and decoded == []
        jc = list(start)
        assert _propagate(tnbrs, jc, [0]) is True
        assert jc == [0] * (k + 1)
        assert [set(_bits(d)) for d in jc] == arc_consistent(
            Problem(t, w), [set(_bits(d)) for d in start])

    def test_empty_changed_domain_fails_at_once(self):
        # An empty domain in ``changed`` fails a search call before any pop
        # (a pop reads the popped vertex's neighbours); without a matched
        # set it is popped and closes as before.
        t = undirected(3, [(0, 1), (1, 2)])
        w = undirected(4, [(0, 1), (1, 2), (2, 3)])
        pops = []
        class Popped(list):
            def __getitem__(self, x):
                pops.append(x)
                return super().__getitem__(x)
        tnbrs = Popped(_support_masks(t, w)[0])
        jc = [0b1111, 0, 0b1111]
        assert _propagate(tnbrs, jc, range(3), matched={}) is False
        assert jc == [0b1111, 0, 0b1111] and pops == []
        assert _propagate(tnbrs, jc, range(3)) is True
        assert jc == [0, 0, 0] and pops[0] == 1

    def test_one_candidate_row_builds_no_entry_once_budget_is_spent(
            self, monkeypatch):
        # A 3-star whose matched centre has one candidate ``c``. Within the
        # budget, its leaves read c's memoised entry, built once. Once the
        # budget is spent, each row table of the centre takes one union,
        # which reads c's arcs into the buffer and builds no entry.
        w = sparse_multiplex_graph(random.Random(5), 400, 1200)
        t = Graph(4)
        for leaf in (1, 2, 3):
            t.add_edge(0, leaf)
            t.add_edge(leaf, 0)
        c = max(range(400), key=lambda v: len(w.out[v]))
        nbrs = sum(1 << c2 for c2 in w.out[c])
        built, unions = [0], [0]
        missing, union = search._Masks.__missing__, search._Masks.union
        def counted_missing(self, v):
            built[0] += 1
            return missing(self, v)
        def counted_union(self, i, cs, deadline=math.inf):
            unions[0] += 1
            return union(self, i, cs, deadline)
        monkeypatch.setattr(search._Masks, "__missing__", counted_missing)
        monkeypatch.setattr(search._Masks, "union", counted_union)
        for budget, want_built, want_unions in ((search._ROW_BYTES, 1, 0),
                                                (0, 0, None)):
            monkeypatch.setattr(search, "_ROW_BYTES", budget)
            built[0] = unions[0] = 0
            tnbrs = _support_masks(t, w)[0]
            views = len({(id(masks), i) for _, masks, i in tnbrs[0]})
            jc = [1 << c] + [(1 << 400) - 1] * 3
            _propagate(tnbrs, jc, [0], matched={0: c})
            assert jc == [1 << c] + [nbrs] * 3, budget
            assert built[0] == want_built, budget
            assert unions[0] == (views if want_unions is None
                                 else want_unions), budget

    def test_closure_matches_set_reference(self, rng):
        # The closure is unique, so any pop order reaches the set-based
        # reference's domains: from every vertex at the root, and from a
        # few narrowed vertices below it, each ``changed`` shuffled. The
        # problems are directed and undirected (whose worlds have one
        # support table), with one channel or several.
        compared = narrowed = 0
        for i in range(90):
            p = random_problem(rng, template_size=(3, 6),
                               world_size=(8, 24),
                               channels=(1,) if i % 3 else (2, 3),
                               edge_prob=rng.choice((0.15, 0.3)),
                               planted=i % 4 != 3, self_loops=i % 5 == 0,
                               directed=i % 2 == 0)
            nt = p.template.vertex_count
            tnbrs = _support_masks(p.template, p.world)[0]
            csets = init_candidates(p)
            jc, order = _domains(csets), list(range(nt))
            rng.shuffle(order)
            _propagate(tnbrs, jc, order)
            want = arc_consistent(p, csets)
            assert [set(_bits(d)) for d in jc] == want, i
            compared += 1
            if not all(want):
                continue
            for _ in range(3):
                below, cut = list(jc), rng.sample(order, rng.randint(1, 2))
                for u in cut:
                    keep = rng.sample(sorted(want[u]),
                                      rng.randint(1, len(want[u])))
                    below[u] = sum(1 << c for c in keep)
                start = [set(_bits(d)) for d in below]
                _propagate(tnbrs, below, cut)
                assert [set(_bits(d)) for d in below] == arc_consistent(
                    p, start), i
                narrowed += 1
        assert compared == 90 and narrowed >= 150

    def test_apply_filters_matches_set_reference(self, rng):
        # A match fixed by hand (a prefix of a solution, or drawn at
        # random), then the reference closure, then the used images taken
        # from the unmatched domains.
        checked = 0
        for i in range(90):
            p = random_problem(rng, template_size=(3, 6),
                               world_size=(8, 16),
                               channels=(1,) if i % 3 else (2, 3),
                               self_loops=i % 5 == 0, directed=i % 2 == 0)
            nt, nw = p.template.vertex_count, p.world.vertex_count
            csets = init_candidates(p)
            matched = rng.sample(range(nt), rng.randint(0, nt - 1))
            match = list(zip(matched, rng.sample(range(nw), len(matched))))
            found = solve(p, Mode.NE, max_solutions=1)[1]
            if i % 2 and found:
                match = [(u, found[0].mapping()[u]) for u in matched]
            start = [set(cs) for cs in csets]
            for u, c in match:
                start[u] = {c}
            used = {c for _, c in match}
            want = [d if u in matched else d - used
                    for u, d in enumerate(arc_consistent(p, start))]
            assert apply_filters(match, csets, p) == want, i
            checked += all(want) and bool(match)
        assert checked >= 30

    def test_long_path_root_closes_narrowest_first(self):
        # An unlabelled path in itself: each end narrows its neighbour by
        # one value per revision. Popping the narrowest domain first runs
        # those waves from the ends; last-in first out re-unions
        # world-wide domains and takes over 30 s here.
        path = Graph(1000)
        for v in range(999):
            path.add_edge(v, v + 1)
        report, _ = solve(Problem(path, path), Mode.NE, timeout=10,
                          collect=False)
        assert (report.status, report.total) == ("completed", 1)

    def test_static_modes_read_rows_like_ne(self, monkeypatch):
        # After the sibling prune a child pops its branching vertex, whose
        # domain is one image, before its template siblings, so TE and TEWE union about as many rows
        # as NE; popping a sibling first reads 17-129x NE's here.
        rng = random.Random(1000)
        world = Graph(1000)
        for _ in range(3000):
            a, b = rng.sample(range(1000), 2)
            world.add_edge(a, b)
            world.add_edge(b, a)
        rows = [0]
        union = search._Masks.union
        def counted(self, i, cs, deadline=math.inf):
            rows[0] += len(cs)
            return union(self, i, cs, deadline)
        monkeypatch.setattr(search._Masks, "union", counted)
        for cycle in (3, 4):
            t = Graph(cycle)
            for v in range(cycle):
                t.add_edge(v, (v + 1) % cycle)
                t.add_edge((v + 1) % cycle, v)
            read, totals = {}, set()
            for mode in (Mode.NE, Mode.TE, Mode.TEWE):
                rows[0] = 0
                report, _ = solve(Problem(t, world, directed=False), mode,
                                  collect=False)
                assert report.status == "completed", (cycle, mode)
                read[mode] = rows[0]
                totals.add(report.total)
            assert len(totals) == 1 and totals != {0}, cycle
            assert read[Mode.TE] <= 2 * read[Mode.NE], (cycle, read)
            assert read[Mode.TEWE] <= 2 * read[Mode.NE], (cycle, read)


def check_expansions(p, mode, total):
    """Every class expands to exactly its count of distinct verified maps,
    disjoint from the other classes', ``total`` in all."""
    _, classes = solve(p, mode)
    seen = set()
    for sc in classes:
        assert expansion_count_of(sc) == sc.count
        expanded = 0
        for f in expand_solution_class(sc):
            expanded += 1
            key = tuple(sorted(f.items()))
            assert key not in seen
            seen.add(key)
            assert verify_mapping(p, f)
        assert expanded == sc.count
    assert len(seen) == total


class TestExpansion:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_toy_expansions_exact_disjoint_verified(self, mode):
        check_expansions(toy_problem(), mode, 18)

    # CE's fallback cells here hold world vertices that later cells list
    # too, so an expansion has to follow the swaps it makes.
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_cover_expansions_exact_disjoint_verified(self, mode):
        check_expansions(cover_problem(), mode, 32)

    def test_randomized_expansions(self, rng):
        for _ in range(25):
            p = random_problem(rng, template_size=(3, 4), world_size=(5, 8))
            expect = {tuple(sorted(f.items()))
                      for f in brute_force_solutions(p)}
            if len(expect) > 400:
                continue
            for mode in ALL_MODES:
                _, classes = solve(p, mode)
                seen = set()
                for sc in classes:
                    assert expansion_count_of(sc) == sc.count, mode
                    for f in expand_solution_class(sc):
                        key = tuple(sorted(f.items()))
                        assert key not in seen, mode
                        seen.add(key)
                        assert verify_mapping(p, f)
                assert seen == expect, mode


def directed_path(n):
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def clique(n):
    g = Graph(n)
    for a in range(n):
        for b in range(n):
            if a != b:
                g.add_edge(a, b)
    return g


def undirected(n, pairs):
    g = Graph(n)
    for a, b in pairs:
        g.add_edge(a, b)
        g.add_edge(b, a)
    return g


class TestClosedForms:
    """Exact totals beyond the brute-force oracle's reach. FE, NC and TE do
    not compress cliques, and TE and NE list the star's maps one by one."""

    CASES = [
        ("path-20-in-200", lambda: Problem(directed_path(20),
                                           directed_path(200)),
         181, ALL_MODES),
        ("star-8-in-30", lambda: star_problem(8, 30),
         factorial(30) // factorial(22),
         (Mode.WE, Mode.TEWE, Mode.CE, Mode.FE, Mode.NC)),
        ("K6-in-K40", lambda: Problem(clique(6), clique(40)),
         factorial(40) // factorial(34), (Mode.WE, Mode.TEWE, Mode.CE)),
    ]

    @pytest.mark.parametrize("name, problem, total, modes", CASES,
                             ids=[c[0] for c in CASES])
    def test_total_and_expansions(self, name, problem, total, modes):
        p = problem()
        for mode in modes:
            report, classes = solve(p, mode, timeout=60)
            assert report.status == "completed", mode
            assert report.total == total, mode
            for sc in classes:
                if sc.count <= 256:
                    maps = {tuple(sorted(f.items()))
                            for f in expand_solution_class(sc)}
                    assert len(maps) == sc.count, mode
                    assert all(verify_mapping(p, dict(f)) for f in maps)


def connected_template(rng, n, extra_prob, directed):
    """A random spanning tree on ``n`` vertices plus random extra edges,
    each edge oriented at random (both ways when undirected)."""
    g = Graph(n)

    def add(u, v):
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        g.add_edge(a, b)
        if not directed:
            g.add_edge(b, a)

    for v in range(1, n):
        add(rng.randrange(v), v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_prob:
                add(u, v)
    return g


class TestNetworkxCrossCheck:
    """Totals in 50-150-vertex worlds against networkx's VF2 monomorphism
    count, far beyond the brute-force oracle's reach."""

    def test_totals_match_vf2(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import DiGraphMatcher

        def digraph(g):
            d = nx.DiGraph()
            d.add_nodes_from(range(g.vertex_count))
            d.add_edges_from((u, v) for u in range(g.vertex_count)
                             for v in g.out[u])
            return d

        rng = random.Random(0x4E)
        for i in range(8):
            directed = i % 2 == 0
            nw = rng.randint(50, 150)
            t = connected_template(rng, rng.randint(4, 6), 0.3, directed)
            w = random_multiplex_graph(rng, nw, 1, 2.5 / nw,
                                       max_multiplicity=1, directed=directed)
            for _ in range(3):
                plant(rng, t, w)
            p = Problem(t, w, directed=directed)
            want = sum(1 for _ in DiGraphMatcher(digraph(w), digraph(t))
                       .subgraph_monomorphisms_iter())
            assert want >= 1
            for mode in ALL_MODES:
                report, _ = solve(p, mode, timeout=30, collect=False)
                assert report.status == "completed", (i, mode)
                assert report.total == want, (i, mode)


def node_domains(searcher, p, prefix):
    """The searcher's domains at the node of ``prefix`` (used world vertices
    stay listed), with its matched state set; ``None`` if one is empty."""
    jc = _domains(init_candidates(p))
    for u, c in prefix:
        jc[u] = 1 << c
    _propagate(searcher.tnbrs, jc, range(len(jc)))
    searcher.assigned = dict(prefix)
    searcher.used = 0
    for _, c in prefix:
        searcher.used |= 1 << c
    return jc if all(jc) else None


def builder_problems(rng):
    """40 random problems, some with self-loops, some undirected."""
    for i in range(40):
        yield random_problem(rng, template_size=(3, 5), world_size=(6, 10),
                             channels=(1, 2, 3),
                             edge_prob=rng.choice([0.3, 0.5]),
                             self_loops=i % 3 == 0, directed=i % 2 == 0)


def builder_nodes(problems, modes):
    """``(i, p, mode, searcher, prefix, jc)`` for each problem, at the root
    and below one or two assignments of each mode's first three classes,
    with the searcher's matched state set to the node's."""
    for i, p in enumerate(problems):
        for mode in modes:
            searcher = _Searcher(p, mode, time.monotonic() + 30)
            _, classes = solve(p, mode, max_solutions=3)
            prefixes = {tuple((s.template_vertex, s.world_vertex)
                              for s in sc.slots[:k])
                        for sc in classes for k in range(3)} | {()}
            for prefix in sorted(prefixes):
                jc = node_domains(searcher, p, prefix)
                if jc is not None:
                    yield i, p, mode, searcher, prefix, jc


class TestCellPartitions:
    def test_builders_match_reference(self, rng):
        # Every unmatched vertex's cells equal the per-candidate grouping,
        # as sets of sets. In a 4-cycle in K3,3 and K3,4, the open twins 0
        # and 2 keep unmatched neighbours and equal domains, so the
        # refinement by one repeats the other's. FE skips the split by an
        # unmatched domain that holds all of the branching domain (its rows
        # still refine) or none of it: both cases are reached.
        cycle = undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        problems = [*builder_problems(rng), *(
            Problem(cycle, undirected(3 + k, [(a, b) for a in range(3)
                                              for b in range(3, 3 + k)]))
            for k in (3, 4))]
        split = held = missed = 0
        for i, _, mode, searcher, prefix, jc in builder_nodes(
                problems, (Mode.FE, Mode.NC, Mode.CE)):
            domains = [set(_bits(d)) for d in jc]
            unmatched = [v for v in range(len(jc)) if v not in dict(prefix)]
            for u in unmatched:
                got = {frozenset(_bits(cell))
                       for cell in searcher.cells(searcher, u, jc)}
                assert got == reference_cells(
                    searcher, mode, u, domains, unmatched), \
                    (i, mode, prefix, u)
                split += len(domains[u]) - len(got)
                if mode is Mode.FE:
                    for v in unmatched:
                        if v != u:
                            held += domains[u] <= domains[v]
                            missed += not domains[u] & domains[v]
        assert split > 0 and held > 0 and missed > 0

    @pytest.mark.parametrize("mode", [Mode.FE, Mode.NC])
    def test_wide_cell_decoded_once_per_path(self, mode):
        # Every leaf of the template star branches on the one cell of the
        # 30 world leaves, more than 16 free members at every level: the
        # cell is decoded once per search path, so the eight leaf slots of
        # a class hold one members tuple.
        _, classes = solve(star_problem(8, 30), mode)
        assert classes
        for sc in classes:
            leaves = [s.members for s in sc.slots if len(s.members) == 30]
            assert len(leaves) == 8
            assert all(members is leaves[0] for members in leaves)

    def test_nc_reads_no_row_once_cover_is_matched(self, monkeypatch):
        # A vertex outside the node cover has only cover neighbours and no
        # self-loop, so once the cover is matched NC splits its cells by
        # domains alone: its refinement reads no support row. Only the
        # refinement's reads of a memo entry are counted, not the
        # revisions'.
        reads, after, refining = [0], [], [False]
        getitem, fe_cells = search._Masks.__getitem__, _Searcher._fe_cells

        def counted(self, c):
            reads[0] += refining[0]
            return getitem(self, c)

        def refined(self, u, jc, vertices=None):
            before, refining[0] = reads[0], True
            try:
                cells = fe_cells(self, u, jc, vertices)
            finally:
                refining[0] = False
            if self.cover <= self.assigned.keys():
                after.append(reads[0] - before)
            return cells

        monkeypatch.setattr(search._Masks, "__getitem__", counted)
        monkeypatch.setattr(_Searcher, "_fe_cells", refined)
        p = cover_problem()
        report, _ = solve(p, Mode.NC)
        assert report.total == brute_force_count(p)
        assert reads[0] > 0 and after and not any(after)

    def test_static_grouping_matches_reference(self, rng):
        # Without a builder, the entries are the classes of the static
        # partition (singletons under NE and TE) that meet the free
        # candidates: each as (lowest free candidate, the whole class, its
        # unused members), by ascending representative. The random worlds
        # seldom hold twins; the toy and star worlds do.
        grouped = 0
        problems = [*builder_problems(rng), toy_problem(), star_problem(3, 6)]
        for i, p, mode, searcher, prefix, jc in builder_nodes(
                problems, (Mode.NE, Mode.TE, Mode.WE, Mode.TEWE)):
            classes = ([tuple(sorted(c))
                        for c in naive_structural_partition(p.world)]
                       if mode in (Mode.WE, Mode.TEWE)
                       else [(c,) for c in range(p.world.vertex_count)])
            used = set(dict(prefix).values())
            for u in range(len(jc)):
                if u in dict(prefix):
                    continue
                free = set(_bits(jc[u])) - used
                want = sorted((min(free & set(c)), c, len(set(c) - used))
                              for c in classes if free & set(c))
                assert searcher._generate(u, jc) == want, (i, mode, prefix, u)
                grouped += sum(len(c) > n for _, c, n in want)
        assert grouped > 0


def reference_cells(searcher, mode, u, domains, unmatched):
    if mode is Mode.NC and searcher.cover <= set(searcher.assigned):
        return nc_cells(domains[u],
                        [v for v in unmatched if v not in searcher.cover],
                        domains)
    structure = build_candidate_structure(searcher.problem, domains)

    def labels_wrt(v, inside):
        """Each candidate of ``inside`` labelled by the lowest one that is
        candidate equivalent to it with respect to ``v``: structural
        equivalence of pair nodes in the materialized pair graph."""
        return {c: min(c2 for c2 in inside
                       if structure.candidate_equivalent(v, c, c2))
                for c in inside}

    if mode is Mode.FE:
        return fe_cells(domains[u], unmatched, domains, labels_wrt)
    others = set().union(*(domains[v] for v in unmatched if v != u))
    return ce_cells(domains[u], labels_wrt(u, sorted(domains[u])), others,
                    searcher.wp.class_of)


class TestDegenerateInputs:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_empty_template(self, mode):
        report, classes = solve(Problem(Graph(0), Graph(3)), mode)
        assert report.representatives == 1
        assert report.total == 1
        assert classes[0].mapping() == {}

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_template_larger_than_world(self, mode):
        report, _ = solve(Problem(Graph(4), Graph(2)), mode)
        assert report.total == 0
        assert report.status == "completed"

    def test_unsatisfiable_completes_with_zero(self):
        t = Graph(2)
        t.add_edge(0, 1)
        report, classes = solve(Problem(t, Graph(5)), Mode.NE)
        assert (report.representatives, report.total) == (0, 0)
        assert report.status == "completed"
        assert classes == []

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_root_wipe_out_completes_with_zero(self, mode, monkeypatch):
        # A label the world lacks leaves its vertex no candidate: the root's
        # one propagation fails at once and the search backs out.
        p = toy_problem()
        p.template.labels = ["x"] + [None] * (p.template.vertex_count - 1)
        assert not init_candidates(p)[0]
        verdicts = []
        propagate = search._propagate
        def spy(*args):
            verdicts.append(propagate(*args))
            return verdicts[-1]
        monkeypatch.setattr(search, "_propagate", spy)
        report, classes = solve(p, mode)
        assert (report.status, report.total, report.representatives) == (
            "completed", 0, 0)
        assert classes == [] and verdicts == [False]

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            solve(toy_problem(), Mode.NE, timeout=0)

    def test_nan_timeout_is_rejected(self):
        # NaN fails every comparison: a ``timeout <= 0`` test would let it
        # through, and a NaN deadline never passes.
        with pytest.raises(ValueError, match="timeout must be positive"):
            solve(huge_count_problem(), Mode.NE, timeout=float("nan"),
                  max_solutions=200000)

    def test_infinite_timeout_is_allowed(self):
        report, _ = solve(toy_problem(), Mode.NE, timeout=float("inf"))
        assert (report.status, report.total) == ("completed", 18)


CELL_PEAK = """
import json, random, sys, tracemalloc
from eqmatch.graphs import Graph, Problem
from eqmatch.search import solve

def undirected(n, pairs):
    g = Graph(n)
    for a, b in pairs:
        g.add_edge(a, b)
        g.add_edge(b, a)
    return g

rng, n = random.Random(5000), 5000
world = undirected(n, [rng.sample(range(n), 2) for _ in range(3 * n)])
problem = Problem(undirected(3, [(0, 1), (1, 2), (0, 2)]), world)
tracemalloc.start()
report, _ = solve(problem, sys.argv[1], collect=False)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([peak, report.status, report.total]))
"""  # one mode's traced peak, status and total, in its own interpreter


class TestLimits:
    def test_timeout_is_honored(self):
        p = star_problem(8, 22)
        start = time.monotonic()
        report, _ = solve(p, Mode.NE, timeout=0.3, collect=False)
        elapsed = time.monotonic() - start
        assert report.status == "timed_out"
        assert elapsed < 0.3 + 0.5
        full, _ = solve(p, Mode.FE, collect=False)
        assert report.total <= full.total
        assert report.representatives <= full.total

    def test_timeout_inside_one_node(self):
        # The root's arc consistency on a long path is one expensive node.
        path = Graph(3000)
        for v in range(2999):
            path.add_edge(v, v + 1)
        start = time.monotonic()
        report, _ = solve(Problem(path, path), Mode.NE, timeout=0.5,
                          collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 1.0

    def test_timeout_before_first_node(self):
        # The unary tests run once per profile: a path has three.
        path = Graph(4000)
        for v in range(3999):
            path.add_edge(v, v + 1)
        start = time.monotonic()
        report, _ = solve(Problem(path, path), Mode.NE, timeout=1,
                          collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 1.5

    def test_timeout_with_distinct_labels(self):
        # Every template vertex has its own unary profile.
        n = 5000
        path = Graph(n, labels=[str(v) for v in range(n)])
        for v in range(n - 1):
            path.add_edge(v, v + 1)
        start = time.monotonic()
        report, _ = solve(Problem(path, path), Mode.NE, timeout=0.2,
                          collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 0.2 + 0.5

    def test_streamed_memory_bounded(self):
        # One candidate set per unary profile, not per template vertex.
        path = Graph(2000)
        for v in range(1999):
            path.add_edge(v, v + 1)
        tracemalloc.start()
        try:
            report, _ = solve(Problem(path, path), Mode.NE, timeout=1,
                              collect=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "timed_out"
        assert peak < 32 * 2 ** 20

    def test_large_sparse_world_bounded(self, rng):
        # A support mask is as wide as the world: a triangle in a sparse
        # 20000-vertex world must not build one for every world vertex
        # before the first deadline check, nor keep them all.
        problem = sparse_triangle_problem(rng, 20000)
        start = time.monotonic()
        report, _ = solve(problem, Mode.NE, timeout=0.1, collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 0.1 + 0.5
        tracemalloc.start()
        try:
            solve(problem, Mode.NE, timeout=0.1, collect=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_cell_memory_near_ne(self):
        # FE, CE and NC refine a cell by one support row at a time, so a
        # triangle in a sparse undirected 5000-vertex world, run to
        # completion, peaks within twice NE's traced allocations. Each
        # mode runs in a fresh interpreter, so that no allocation left by
        # an earlier test or mode moves its peak.
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            search.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        peaks, totals = {}, set()
        for mode in (Mode.NE, Mode.FE, Mode.CE, Mode.NC):
            run = subprocess.run([sys.executable, "-c", CELL_PEAK, mode.value],
                                 env=env, capture_output=True, text=True,
                                 timeout=300)
            assert run.returncode == 0, run.stderr
            peaks[mode], status, total = json.loads(run.stdout)
            assert status == "completed", mode
            totals.add(total)
        assert len(totals) == 1
        assert all(peaks[m] <= 2 * peaks[Mode.NE]
                   for m in (Mode.FE, Mode.CE, Mode.NC)), peaks

    def test_world_partition_within_deadline(self, rng):
        # Partitioning a 40000-vertex world takes longer than the timeout.
        problem = sparse_triangle_problem(rng, 40000)
        for mode in (Mode.WE, Mode.TEWE, Mode.CE):
            start = time.monotonic()
            report, _ = solve(problem, mode, timeout=0.2, collect=False)
            assert report.status == "timed_out", mode
            assert time.monotonic() - start <= 0.2 + 0.5, mode

    @pytest.mark.parametrize("mode", [Mode.NE, Mode.FE])
    def test_template_deeper_than_recursion_limit(self, mode):
        # One search level per vertex of a labelled path, and one
        # expansion level per slot.
        n = 1500
        path = Graph(n, labels=[str(v) for v in range(n)])
        for v in range(n - 1):
            path.add_edge(v, v + 1)
        report, classes = solve(Problem(path, path), mode, timeout=30)
        assert report.status == "completed"
        assert report.total == 1
        assert list(expand_solution_class(classes[0])) == \
            [{v: v for v in range(n)}]

    def test_deadline_and_stop_inside_the_last_level(self):
        # A one-vertex template in a 3000-vertex world is one level of 3000
        # entries, each a class: both stops must act between its classes.
        problem = Problem(Graph(1), Graph(3000))

        def slow(sc):
            time.sleep(0.001)

        start = time.monotonic()
        report, _ = solve(problem, Mode.NE, timeout=0.3, on_class=slow,
                          collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 0.3 + 0.5
        assert 0 < report.representatives < 3000
        report, classes = solve(problem, Mode.NE, timeout=30,
                                max_solutions=5, on_class=slow)
        assert report.status == "truncated"
        assert len(classes) == report.representatives == 5
        assert [sc.mapping() for sc in classes] == [{0: c} for c in range(5)]

    def test_partial_counts_monotone_in_timeout(self):
        p = star_problem(7, 18)
        totals = [solve(p, Mode.NE, timeout=t, collect=False)[0].total
                  for t in (0.05, 0.2, 0.8)]
        assert totals == sorted(totals)

    def test_max_solutions_truncates(self):
        report, classes = solve(toy_problem(), Mode.NE, max_solutions=5)
        assert len(classes) == 5
        assert report.status == "truncated"

    @pytest.mark.parametrize("cap", [0, -3])
    def test_max_solutions_below_one_rejected(self, cap):
        with pytest.raises(ValueError):
            solve(toy_problem(), Mode.NE, max_solutions=cap)

    def test_nan_max_solutions_rejected(self):
        # NaN fails every comparison: a ``max_solutions < 1`` test would let
        # it through, and a NaN cap never truncates.
        with pytest.raises(ValueError, match="max_solutions must be positive"):
            solve(toy_problem(), Mode.NE, max_solutions=float("nan"))

    def test_streaming_callback(self):
        got = []
        report, classes = solve(toy_problem(), Mode.FE,
                                on_class=got.append, collect=False)
        assert classes == []
        assert len(got) == report.representatives == 2


class TestDeadlineInLargeWorld:
    """The deadline holds inside the first unions of a world far past the
    memo budget: the triangle and the 3-star in a seeded sparse undirected
    100,000-vertex world (3n drawn edges), whose root domains cover nearly
    every vertex. Building the world is not timed."""

    @pytest.fixture(scope="class")
    def world(self):
        w = sparse_multiplex_graph(random.Random(100000), 100000, 300000)
        # The collector's first full pass over the new world (0.36 s on 2
        # vCPUs) is owed by the build; unpaid, it lands in the first solve.
        gc.collect()
        return w

    @pytest.mark.parametrize("mode", [Mode.NE, Mode.FE])
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (0, 2)],
                                       [(0, 1), (0, 2), (0, 3)]],
                             ids=["triangle", "3-star"])
    def test_returns_within_half_a_second_of_timeout(self, world, mode,
                                                     edges):
        t = Graph(1 + max(map(max, edges)))
        for a, b in edges:
            t.add_edge(a, b)
            t.add_edge(b, a)
        start = time.monotonic()
        report, _ = solve(Problem(t, world), mode, timeout=1, collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 1.5

    def test_many_profiles_return_within_half_a_second_of_timeout(self,
                                                                   world):
        # The caterpillar's 29 degree profiles are tested before the first
        # node. When each tested every world vertex, the solve returned
        # after 0.95-1.77 s.
        start = time.monotonic()
        report, _ = solve(Problem(caterpillar(30), world), Mode.NE,
                          timeout=0.1, collect=False)
        assert report.status == "timed_out"
        assert time.monotonic() - start <= 0.6

    def test_candidates_check_the_deadline(self, world):
        # The grouping pass over the world checks it, before any profile.
        edge = Graph(2)
        edge.add_edge(0, 1)
        assert world.vertex_count > _CHECK_EVERY
        for t in (Graph(0), edge):
            with pytest.raises(DeadlineExceeded):
                init_candidates(Problem(t, world), deadline=time.monotonic())


class TestWeighing:
    """TE and TEWE weigh a class by ``count_tewe`` only when a template
    class has two or more vertices; otherwise by its slot multipliers."""

    @pytest.mark.parametrize("world", [clique(5), directed_path(7)],
                             ids=["clique5", "path7"])
    def test_asymmetric_template_needs_no_count_tewe(self, world,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("count_tewe called")

        monkeypatch.setattr(search, "count_tewe", refuse)
        p = Problem(directed_path(4), world)
        for mode, twin in ((Mode.TE, Mode.NE), (Mode.TEWE, Mode.WE)):
            report, classes = solve(p, mode)
            want, twin_classes = solve(p, twin)
            assert report.status == "completed"
            assert report.total == want.total == brute_force_count(p)
            assert [sc[1:] for sc in classes] == \
                [sc[1:] for sc in twin_classes]

    @pytest.mark.parametrize("mode", [Mode.TE, Mode.TEWE])
    def test_symmetric_template_weighs_by_count_tewe(self, mode,
                                                     monkeypatch):
        calls = []
        real = search.count_tewe

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(search, "count_tewe", counted)
        report, classes = solve(star_problem(3, 6), mode)
        assert report.total == 6 * 5 * 4  # the hub maps to the hub
        assert len(calls) == len(classes) == report.representatives
        assert calls == [sc.mapping() for sc in classes]


class TestPairEquivalence:
    def test_labels_match_candidate_structure(self, rng):
        # Dense self-loops make the own layer decide: open and closed twins.
        # Below one assignment the matched vertex's rows are skipped.
        groups = 0
        for i in range(60):
            p = random_problem(rng, template_size=(2, 4), world_size=(5, 7),
                               channels=(1, 2), edge_prob=0.6,
                               self_loops=True, directed=i % 2 == 0)
            searcher = _Searcher(p, Mode.FE, time.monotonic() + 30)
            _, classes = solve(p, Mode.NE, max_solutions=2)
            prefixes = [[]] + [[(s.template_vertex, s.world_vertex)
                                for s in sc.slots[:1]] for sc in classes]
            for prefix in prefixes:
                cs = apply_filters(prefix, init_candidates(p), p)
                structure = build_candidate_structure(p, cs)
                jc = _domains(cs)
                searcher.assigned = dict(prefix)
                for u in range(p.template.vertex_count):
                    if p.template.edge(u, u) is None or u in dict(prefix):
                        continue
                    cells = searcher._fe_cells(u, jc, (u,))
                    cell_of = {c: k for k, cell in enumerate(cells)
                               for c in _bits(cell)}
                    assert sorted(cell_of) == sorted(cs[u])
                    groups += len(cs[u]) - len(cells)
                    for c1 in cs[u]:
                        for c2 in cs[u]:
                            assert (cell_of[c1] == cell_of[c2]) == \
                                structure.candidate_equivalent(u, c1, c2)
        assert groups > 0


class TestNextTemplateVertex:
    def test_toy_picks_smallest_candidate_set(self):
        p = toy_problem()
        assert next_template_vertex(p, init_candidates(p), []) == 0

    def test_ties_break_by_degree_then_index(self):
        t = Graph(3)
        t.add_edge(0, 1)
        t.add_edge(1, 2)
        p = Problem(t, Graph(4))
        cs = [{0, 1}, {0, 1}, {0, 1}]
        assert next_template_vertex(p, cs, []) == 1  # highest degree
        assert next_template_vertex(p, cs, [1]) == 0  # lowest index

    def test_nc_cover_tier_first(self):
        p = toy_problem()
        cs = [{0, 3}, {1}, {2}]
        # Vertex 0 is the cover; it precedes the singleton-set leaves.
        assert next_template_vertex(p, cs, [], cover=(0,)) == 0

    # Modes with a trivial template partition: each node's candidate sets
    # are the fixpoint of its prefix, so a missed propagation seed would
    # show up as a different branching vertex.
    @pytest.mark.parametrize("mode", [Mode.NE, Mode.WE, Mode.CE, Mode.FE,
                                      Mode.NC])
    def test_search_branches_in_this_order(self, rng, mode):
        for _ in range(40):
            p = random_problem(rng, template_size=(3, 5), world_size=(5, 9))
            cover = greedy_node_cover(p.template) if mode is Mode.NC else ()
            _, classes = solve(p, mode, max_solutions=20)
            for sc in classes:
                prefix = [(s.template_vertex, s.world_vertex) for s in sc.slots]
                for k, slot in enumerate(sc.slots):
                    cs = apply_filters(prefix[:k], init_candidates(p), p)
                    matched = [v for v, _ in prefix[:k]]
                    assert slot.template_vertex == \
                        next_template_vertex(p, cs, matched, cover)

    def test_requires_unmatched_vertex(self):
        p = toy_problem()
        with pytest.raises(ValueError):
            next_template_vertex(p, init_candidates(p), [0, 1, 2])


def _naive_bits(d: int) -> list[int]:
    out, i = [], 0
    while d:
        if d & 1:
            out.append(i)
        d >>= 1
        i += 1
    return out


_BITSETS = st.one_of(
    st.just(0),
    # 16 bits or fewer, anywhere in a 20000-bit width: peeled.
    st.sets(st.integers(0, 19_999), max_size=16).map(
        lambda cs: sum(1 << c for c in cs)),
    # Dense: random bytes set about half of the bits.
    st.binary(min_size=3, max_size=2_500).map(
        lambda b: int.from_bytes(b, "little")),
    # Sparse: more than 16 bits, density about 1/100 of the width.
    st.sets(st.integers(0, 19_999), min_size=17, max_size=200).map(
        lambda cs: sum(1 << c for c in cs)))


class TestBits:
    @settings(max_examples=200, deadline=None)
    @given(_BITSETS)
    def test_matches_a_shift_loop(self, d):
        assert _bits(d) == _naive_bits(d)


class TestClassTuples:
    """Classes and slots are named tuples: immutable, read by name or by
    position, with an unchanged JSON form and repr."""

    def classes(self):
        return solve(toy_problem(), Mode.FE)[1] + solve(toy_problem(),
                                                        Mode.TEWE)[1]

    def test_fields_by_name_and_position(self):
        for sc in self.classes():
            assert sc == (sc.mode, sc.slots, sc.count)
            assert isinstance(sc.count, int)  # shadows tuple.count
            for slot in sc.slots:
                assert slot == (slot.template_vertex, slot.template_class,
                                slot.world_vertex, slot.members,
                                slot.multiplier)
                assert sc.mapping()[slot[0]] == slot[2]
        assert SolutionClass._fields == ("mode", "slots", "count")
        assert Slot._fields == ("template_vertex", "template_class",
                                "world_vertex", "members", "multiplier")

    def test_fields_cannot_be_set(self):
        sc = self.classes()[0]
        for obj, field in ((sc, "count"), (sc, "slots"),
                           (sc.slots[0], "multiplier"),
                           (sc.slots[0], "world_vertex")):
            with pytest.raises(AttributeError):
                setattr(obj, field, 0)

    def test_json_pickle_and_repr(self):
        for sc in self.classes():
            data = sc.to_json()
            assert json.loads(json.dumps(data)) == data
            assert data["count"] == str(sc.count)
            back = pickle.loads(pickle.dumps(sc))
            assert back == sc and type(back) is SolutionClass
            assert type(back.slots[0]) is Slot
            assert back.to_json() == data
        slot = Slot(0, (0,), 3, (3, 4), 2)
        assert repr(slot) == ("Slot(template_vertex=0, template_class=(0,), "
                              "world_vertex=3, members=(3, 4), multiplier=2)")
        assert repr(SolutionClass(Mode.NE, (slot,), 2)) == (
            f"SolutionClass(mode={Mode.NE!r}, slots=({slot!r},), count=2)")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_search_builds_what_the_constructors_build(self, mode):
        # The search builds slots and classes by ``tuple.__new__``, with no
        # call of the named tuples' own constructors.
        for problem in (toy_problem(), cover_problem(), star_problem(5, 9)):
            classes = solve(problem, mode)[1]
            assert classes
            for sc in classes:
                assert type(sc) is SolutionClass
                assert all(type(s) is Slot for s in sc.slots)
                assert sc == SolutionClass(*sc)
                assert sc.slots == tuple(Slot(*s) for s in sc.slots)
                assert sc._asdict() == {"mode": sc.mode, "slots": sc.slots,
                                        "count": sc.count}
                assert [s._asdict()["members"] for s in sc.slots] == [
                    s.members for s in sc.slots]
                assert sc.to_json() == {
                    "assignments": [[s.template_vertex, list(s.members)]
                                    for s in sc.slots],
                    "count": str(sc.count)}


class TestReportFields:
    def test_compression_rate(self):
        report, _ = solve(toy_problem(), Mode.FE)
        assert report.compression_rate is not None
        assert float(report.compression_rate) == pytest.approx(2 / 18)
        empty, _ = solve(Problem(Graph(1), Graph(0)), Mode.NE)
        assert empty.compression_rate is None

    def test_to_json_serializes_decimal_total(self):
        report, _ = solve(toy_problem(), Mode.NE)
        payload = report.to_json()
        assert payload["total"] == "18"
        assert payload["status"] == "completed"
