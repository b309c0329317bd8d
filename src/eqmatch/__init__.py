"""Exact subgraph-isomorphism enumeration with equivalence-compressed
solution classes: seven vertex-equivalence modes, arbitrary-precision
counting, and multiplex multigraph support."""

from .graphs import (Graph, MultiplexGraph, ParseError, Problem,
                     degree_vector, dominates, is_subgraph_isomorphism,
                     parse_lad, parse_multiplex_edgelist, serialize_lad,
                     serialize_multiplex_edgelist)
from .equivalence import (Partition, count_factorial_lower_bound, count_tewe,
                          find_equivalence_classes, structurally_equivalent)
from .candidates import (CandidateStructure, build_candidate_structure,
                         greedy_node_cover, init_candidates, is_node_cover,
                         node_cover_equivalent)
from .search import (ALL_MODES, Mode, SearchReport, Slot, SolutionClass,
                     apply_filters, expand_solution_class, expansion_count_of,
                     next_template_vertex, solve)
from .reporting import (ColoredSubgraph, CompressedSubgraph, VennSummary,
                        compress, export_dot, induce_subgraph, venn_summary)

__version__ = "0.1.0"

__all__ = [
    "Graph", "MultiplexGraph", "ParseError", "Problem", "degree_vector",
    "dominates", "is_subgraph_isomorphism", "parse_lad",
    "parse_multiplex_edgelist", "serialize_lad",
    "serialize_multiplex_edgelist",
    "Partition", "count_factorial_lower_bound", "count_tewe",
    "find_equivalence_classes", "structurally_equivalent",
    "CandidateStructure", "build_candidate_structure", "greedy_node_cover",
    "init_candidates", "is_node_cover", "node_cover_equivalent",
    "ALL_MODES", "Mode", "SearchReport", "Slot", "SolutionClass",
    "apply_filters", "expand_solution_class", "expansion_count_of",
    "next_template_vertex", "solve",
    "ColoredSubgraph", "CompressedSubgraph", "VennSummary", "compress",
    "export_dot", "induce_subgraph", "venn_summary",
]
