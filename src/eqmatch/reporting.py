"""Compact solution-class reporting.

Transforms a :class:`~eqmatch.search.SolutionClass` into the world subgraph
its expansions inhabit (``induce_subgraph``), collapses like-colored
vertices into supernodes (``compress``), summarizes candidate-set
intersections after a node cover is matched (``venn_summary``), and exports
either subgraph as DOT digraph text. Every graph is arcs (an undirected
one holds both), so every edge is an ordered pair.

A world vertex can appear in several slots' interchange classes; it is
colored by the first such slot, and the full slot list is kept as a merge
log so no membership information is lost.

A class report costs in proportion to what it outputs. Slots that share
a cell (an equal members tuple) are grouped, and each distinct cell's
vertices are colored, logged and recorded per color by dict operations
that run in C; only a vertex that two distinct cells list is handled one
at a time. With a template, each template arc from slot ``i``'s vertex to
slot ``j``'s intersects the color-``j`` vertices with the out-arcs of each
color-``i`` vertex (two dict views, which iterate the smaller side), so
the arcs read are those between the two colors, not every participant's.
``dominates`` runs once per distinct (world edge, requirement) pair within
the call. Without a template every participant's out-arcs are read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .candidates import _noncover
from .graphs import MultiplexGraph, dominates
from .search import SolutionClass

_PALETTE = ("lightblue", "lightsalmon", "palegreen", "gold", "plum",
            "lightgray", "khaki", "lightpink", "aquamarine", "wheat")


@dataclass(frozen=True)
class ColoredSubgraph:
    """Solution-induced world subgraph; color = index of the serving slot."""

    vertices: tuple[int, ...]
    color_of: dict[int, int]
    color_labels: dict[int, str]
    edges: tuple[tuple[int, int], ...]
    merge_log: dict[int, tuple[int, ...]]  # vertex -> all slots listing it

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "colors": {str(v): self.color_of[v] for v in self.vertices},
            "color_labels": {str(k): v for k, v in self.color_labels.items()},
            "edges": [list(e) for e in self.edges],
            "merge_log": {str(v): list(s) for v, s in self.merge_log.items()},
        }


@dataclass(frozen=True)
class CompressedSubgraph:
    """One supernode per color, labeled with the number of joined vertices."""

    supernodes: tuple[tuple[int, str, int], ...]  # (color id, label, size)
    edges: tuple[tuple[int, int], ...]            # color-id pairs, deduplicated

    def to_json(self) -> dict:
        return {
            "supernodes": [{"color": c, "label": lbl, "size": sz}
                           for c, lbl, sz in self.supernodes],
            "edges": [list(e) for e in self.edges],
        }


@dataclass(frozen=True)
class VennSummary:
    """Sizes of the nonempty candidate-membership regions (Def-style node
    cover equivalence classes) across non-cover template vertices."""

    regions: tuple[tuple[tuple[int, ...], int], ...]  # (template vertices, size)

    def to_json(self) -> list[dict]:
        return [{"members": list(ms), "size": sz} for ms, sz in self.regions]


def induce_subgraph(world: MultiplexGraph, sc: SolutionClass,
                    template: MultiplexGraph | None = None) -> ColoredSubgraph:
    """World subgraph spanned by all expansions of ``sc``.

    Participants are the union of slot members. An edge participates when
    both endpoints do and the template has a matching (dominated) edge
    between the endpoints' colors; without the template every edge among
    participants is kept.
    """
    slots = sc.slots
    listing: dict[tuple[int, ...], list[int]] = {}  # members -> their slots
    for i, slot in enumerate(slots):
        listing.setdefault(slot.members, []).append(i)
    # Cells in the order of their first slot, which colors their vertices
    # that no earlier cell holds.
    color_of: dict[int, int] = {}
    merge: dict[int, tuple[int, ...]] = {}
    colored: list = [()] * len(slots)  # the vertices of each color
    for members, log in listing.items():
        log = tuple(log)
        fresh = dict.fromkeys(members, log)
        for c in merge.keys() & fresh.keys():
            del fresh[c]
            merge[c] = tuple(sorted(merge[c] + log))
        merge.update(fresh)
        color_of.update(dict.fromkeys(fresh, log[0]))
        colored[log[0]] = fresh.keys()
    labels = {i: str(slot.template_vertex) for i, slot in enumerate(slots)}
    vertices = tuple(sorted(color_of))
    edges: list[tuple[int, int]] = []
    out = world.out
    if template is None:
        for a in vertices:
            edges.extend((a, b) for b in out[a] if b in color_of)
    else:
        # Each template arc from slot i's vertex to slot j's keeps, for
        # every vertex of color i, its out-neighbours of color j whose world
        # edge dominates the arc's requirement.
        slot_of = {slot.template_vertex: i for i, slot in enumerate(slots)}
        supports: dict[tuple, bool] = {}  # (world edge, requirement) -> dominates
        for i, slot in enumerate(slots):
            if not colored[i]:
                continue
            for v, req in template.out[slot.template_vertex].items():
                j = slot_of.get(v)
                if j is None or not colored[j]:
                    continue
                heads = colored[j]
                for a in colored[i]:
                    arcs = out[a]
                    for b in heads & arcs.keys():
                        key = (arcs[b], req)
                        ok = supports.get(key)
                        if ok is None:
                            ok = supports[key] = dominates(*key)
                        if ok:
                            edges.append((a, b))
    return ColoredSubgraph(vertices, color_of, labels, tuple(sorted(edges)),
                           merge)


def compress(csg: ColoredSubgraph) -> CompressedSubgraph:
    """Join like-colored vertices into supernodes with size labels."""
    sizes = Counter(map(csg.color_of.__getitem__, csg.vertices))
    supernodes = tuple((c, csg.color_labels.get(c, str(c)), sizes[c])
                       for c in sorted(sizes))
    color = csg.color_of
    edges = {(color[a], color[b]) for a, b in csg.edges}
    return CompressedSubgraph(supernodes, tuple(sorted(edges)))


def venn_summary(csets: list[set[int]], cover, match) -> VennSummary:
    """Group candidate world vertices by their membership pattern across
    non-cover template vertices.

    ``csets`` must be derived with :func:`~eqmatch.search.apply_filters`
    from ``match``, and ``match`` must assign every cover vertex (contract
    error otherwise).
    """
    noncover = _noncover(len(csets), cover, match)
    regions: dict[tuple[int, ...], int] = {}
    universe = set().union(*(csets[u] for u in noncover)) if noncover else set()
    for c in sorted(universe):
        pattern = tuple(u for u in noncover if c in csets[u])
        regions[pattern] = regions.get(pattern, 0) + 1
    return VennSummary(tuple(sorted(regions.items())))


def _dot(nodes, edges) -> str:
    """DOT digraph text of ``nodes``, ``(name, attributes)`` pairs, and
    ``edges``, ``(name, name)`` pairs; an empty graph is one line with no
    newline."""
    lines = [f"  {v} [{attrs}];" for v, attrs in nodes]
    lines += [f"  {a} -> {b};" for a, b in edges]
    if not lines:
        return "digraph G { }"
    return "digraph G {\n" + "\n".join(lines) + "\n}\n"


def export_dot(g: ColoredSubgraph | CompressedSubgraph) -> str:
    """Render either subgraph as DOT; colors become fill attributes and
    supernode sizes become labels."""
    if isinstance(g, ColoredSubgraph):
        nodes = [(v, f'label="{v}", style=filled, fillcolor='
                     f'{_PALETTE[g.color_of[v] % len(_PALETTE)]}')
                 for v in g.vertices]
        return _dot(nodes, g.edges)
    nodes = [(f"s{c}", f'label="{size}", style=filled, fillcolor='
                       f'{_PALETTE[c % len(_PALETTE)]}')
             for c, _, size in g.supernodes]
    return _dot(nodes, [(f"s{a}", f"s{b}") for a, b in g.edges])
