"""Solution-induced subgraphs, supernode compression, Venn summaries, DOT."""

import random

import pytest

from eqmatch.candidates import init_candidates
from eqmatch.graphs import Graph, Problem
from eqmatch.reporting import (ColoredSubgraph, compress, export_dot,
                               induce_subgraph, venn_summary)
from eqmatch.search import (ALL_MODES, Mode, apply_filters,
                            expand_solution_class, solve)
from eqmatch.synth import cover_problem, random_problem, toy_problem

from oracles import expand_reference, induced_subgraph_fields


def toy_ce_class():
    _, classes = solve(toy_problem(), Mode.CE)
    return next(sc for sc in classes if sc.count == 6)


class TestInduceSubgraph:
    def test_toy_ce_class_participants(self):
        p = toy_problem()
        csg = induce_subgraph(p.world, toy_ce_class(), p.template)
        assert csg.vertices == (0, 1, 2, 3, 4)  # 5 and 6 dropped
        assert csg.edges == ((0, 1), (0, 2), (0, 3), (0, 4))

    def test_colors_follow_first_serving_slot(self):
        p = toy_problem()
        csg = induce_subgraph(p.world, toy_ce_class(), p.template)
        assert csg.color_of[0] == 0
        assert csg.color_of[1] == csg.color_of[2] == 1
        assert csg.color_of[3] == csg.color_of[4] == 2

    def test_merge_log_records_shared_membership(self):
        p = toy_problem()
        csg = induce_subgraph(p.world, toy_ce_class(), p.template)
        # 1 and 2 belong to both the second and third slot's classes.
        assert csg.merge_log[1] == (1, 2)
        assert csg.merge_log[3] == (2,)

    def test_singleton_ne_solution(self):
        p = toy_problem()
        _, classes = solve(p, Mode.NE)
        sc = classes[0]
        csg = induce_subgraph(p.world, sc, p.template)
        assert set(csg.vertices) == set(sc.mapping().values())
        assert len(csg.edges) == 2

    def test_without_template_keeps_all_participant_edges(self):
        p = toy_problem()
        csg = induce_subgraph(p.world, toy_ce_class())
        assert (3, 4) in csg.edges


class TestInduceSubgraphReference:
    """``induce_subgraph`` against the per-arc rule in ``oracles``."""

    @staticmethod
    def problems():
        rng = random.Random(0x5E)
        for i in range(40):
            yield random_problem(
                rng, template_size=(3, 5), world_size=(6, 10),
                channels=(1, 2, 3), edge_prob=rng.choice([0.3, 0.45]),
                self_loops=i % 3 == 0, directed=i % 2 == 0)

    def test_matches_per_arc_rule_in_every_mode(self):
        classes = dropped = 0
        for p in self.problems():
            for mode in ALL_MODES:
                _, found = solve(p, mode, timeout=30)
                for sc in found:
                    classes += 1
                    for template in (p.template, None):
                        want = induced_subgraph_fields(p.world, sc.slots,
                                                       template)
                        dropped += want["dropped"]
                        got = induce_subgraph(p.world, sc, template)
                        assert got.vertices == want["vertices"]
                        assert got.color_of == want["color_of"]
                        assert got.edges == want["edges"]
                        assert got.merge_log == want["merge_log"]
                        ref = ColoredSubgraph(want["vertices"],
                                              want["color_of"],
                                              got.color_labels,
                                              want["edges"],
                                              want["merge_log"])
                        assert export_dot(compress(got)) == \
                            export_dot(compress(ref))
        assert classes > 1000
        assert dropped > 0  # multiplicity dominance decided some arcs

    def test_labelled_path_2000_is_one_class(self):
        n = 2000
        path = Graph(n, labels=[str(v) for v in range(n)])
        for v in range(n - 1):
            path.add_edge(v, v + 1)
        report, classes = solve(Problem(path, path), Mode.NE, timeout=30)
        assert report.status == "completed"
        assert len(classes) == 1
        csg = induce_subgraph(path, classes[0], path)
        assert csg.vertices == tuple(range(n))
        assert csg.edges == tuple((v, v + 1) for v in range(n - 1))


class TestExpansionOrder:
    """``expand_solution_class`` yields the reference expander's maps in the
    reference's order, on the classes that the report is checked on."""

    def test_same_maps_in_the_same_order_in_every_mode(self):
        classes = 0
        for p in TestInduceSubgraphReference.problems():
            for mode in ALL_MODES:
                for sc in solve(p, mode, timeout=30)[1]:
                    classes += 1
                    assert list(expand_solution_class(sc)) == \
                        list(expand_reference(sc)), mode
        assert classes > 1000

    @pytest.mark.parametrize("mode", [Mode.WE, Mode.TEWE, Mode.FE])
    def test_one_slot_class_of_several_members(self, mode):
        # One isolated template vertex in four isolated world vertices: the
        # class's one slot is its whole cell.
        (sc,) = solve(Problem(Graph(1), Graph(4)), mode)[1]
        assert len(sc.slots) == 1 and len(sc.slots[0].members) == 4
        maps = list(expand_solution_class(sc))
        assert maps == list(expand_reference(sc))
        assert maps == [{0: c} for c in range(4)]


class TestCompress:
    def test_toy_ce_class_supernodes(self):
        p = toy_problem()
        cg = compress(induce_subgraph(p.world, toy_ce_class(), p.template))
        assert [(lbl, size) for _, lbl, size in cg.supernodes] == \
            [("0", 1), ("1", 2), ("2", 2)]
        assert cg.edges == ((0, 1), (0, 2))

    def test_sizes_sum_to_participants(self):
        p = toy_problem()
        for mode in (Mode.FE, Mode.CE, Mode.NC):
            _, classes = solve(p, mode)
            for sc in classes:
                csg = induce_subgraph(p.world, sc, p.template)
                cg = compress(csg)
                assert sum(s for _, _, s in cg.supernodes) == len(csg.vertices)

    def test_idempotent_on_singleton_colors(self):
        p = toy_problem()
        _, classes = solve(p, Mode.NE)
        csg = induce_subgraph(p.world, classes[0], p.template)
        cg = compress(csg)
        assert all(size == 1 for _, _, size in cg.supernodes)
        assert len(cg.supernodes) == len(csg.vertices)
        assert len(cg.edges) == len(csg.edges)


class TestVennSummary:
    def test_cover_fixture_regions(self):
        p = cover_problem()
        match = [(1, 1), (3, 4)]
        cs = apply_filters(match, init_candidates(p), p)
        vs = venn_summary(cs, (1, 3), match)
        region_of = {ms: sz for ms, sz in vs.regions}
        assert len(vs.regions) >= 2
        total = sum(region_of.values())
        universe = cs[0] | cs[2] | cs[4]
        assert total == len(universe)

    def test_disjoint_sets_one_region_each(self):
        vs = venn_summary([{0, 1}, {2}], (), [])
        assert vs.regions == (((0,), 2), ((1,), 1))

    def test_identical_sets_share_a_region(self):
        vs = venn_summary([{3, 4}, {3, 4}], (), [])
        assert vs.regions == (((0, 1), 2),)

    def test_unmatched_cover_is_contract_error(self):
        with pytest.raises(ValueError, match="not matched"):
            venn_summary([{0}, {1}], (0,), [])

    def test_to_json(self):
        vs = venn_summary([{0}, {0}], (), [])
        assert vs.to_json() == [{"members": [0, 1], "size": 1}]


class TestExportDot:
    def test_empty_graph(self):
        empty = ColoredSubgraph((), {}, {}, (), {})
        assert export_dot(empty) == "digraph G { }"
        assert export_dot(compress(empty)) == "digraph G { }"

    def test_single_supernode_label(self):
        csg = ColoredSubgraph((0, 1, 2), {0: 0, 1: 0, 2: 0}, {0: "0"}, (), {})
        out = export_dot(compress(csg))
        assert out.count("[label=") == 1
        assert 'label="3"' in out

    def test_toy_compressed_golden(self):
        p = toy_problem()
        out = export_dot(compress(induce_subgraph(p.world, toy_ce_class(),
                                                  p.template)))
        assert out == (
            "digraph G {\n"
            '  s0 [label="1", style=filled, fillcolor=lightblue];\n'
            '  s1 [label="2", style=filled, fillcolor=lightsalmon];\n'
            '  s2 [label="2", style=filled, fillcolor=palegreen];\n'
            "  s0 -> s1;\n"
            "  s0 -> s2;\n"
            "}\n")
