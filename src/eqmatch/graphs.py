"""Directed (multiplex multi)graph containers and text-format parsers.

A single-channel directed graph is stored as a multiplex graph with one
channel and multiplicities in {0, 1}, so the matching core is written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ParseError(ValueError):
    """Raised for malformed graph files; the message names the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MultiplexGraph:
    """Directed multigraph with ``channels`` edge-multiplicity functions.

    Edges are stored sparsely: ``out[v]`` maps a successor ``w`` to a
    length-``channels`` tuple of multiplicities, every stored tuple having at
    least one positive entry. Instances are immutable by convention once
    built; nothing mutates them after construction.
    """

    __slots__ = ("vertex_count", "channels", "out", "inn", "labels")

    def __init__(self, vertex_count: int, channels: int = 1,
                 labels: list[str | None] | None = None):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if channels < 1:
            raise ValueError("channels must be positive")
        self.vertex_count = vertex_count
        self.channels = channels
        self.out: list[dict[int, tuple[int, ...]]] = [{} for _ in range(vertex_count)]
        self.inn: list[dict[int, tuple[int, ...]]] = [{} for _ in range(vertex_count)]
        if labels is not None and len(labels) != vertex_count:
            raise ValueError("labels must have one entry per vertex")
        self.labels = labels

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range [0, {self.vertex_count})")

    def add_edge(self, u: int, v: int, channel: int = 1, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` parallel edges u->v in ``channel`` (1-based)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if not 1 <= channel <= self.channels:
            raise ValueError(f"channel {channel} out of range 1..{self.channels}")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        old = self.out[u].get(v, (0,) * self.channels)
        new = list(old)
        new[channel - 1] += multiplicity
        t = tuple(new)
        self.out[u][v] = t
        self.inn[v][u] = t

    def edge(self, u: int, v: int) -> tuple[int, ...] | None:
        """Per-channel multiplicities of u->v, or None if absent in all channels."""
        return self.out[u].get(v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out[u]

    def label(self, v: int) -> str | None:
        return None if self.labels is None else self.labels[v]

    def edge_count(self) -> int:
        """Total number of edges, counting multiplicity over all channels."""
        return sum(sum(t) for nbrs in self.out for t in nbrs.values())

    def degree(self, v: int) -> int:
        """Total in+out multiplicity over all channels (self-loops count twice)."""
        return (sum(sum(t) for t in self.out[v].values())
                + sum(sum(t) for t in self.inn[v].values()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiplexGraph)
                and self.vertex_count == other.vertex_count
                and self.channels == other.channels
                and self.out == other.out
                and self.labels == other.labels)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.vertex_count}, "
                f"K={self.channels}, edges={self.edge_count()})")


class Graph(MultiplexGraph):
    """Single-channel directed graph (multiplicities restricted to {0, 1})."""

    def __init__(self, vertex_count: int, labels: list[str | None] | None = None):
        super().__init__(vertex_count, channels=1, labels=labels)

    def add_edge(self, u: int, v: int, channel: int = 1, multiplicity: int = 1) -> None:
        # Presence semantics: re-adding an existing edge is a no-op.
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self.out[u]:
            super().add_edge(u, v, channel, 1)


def dominates(world_edge: tuple[int, ...] | None, template_edge: tuple[int, ...]) -> bool:
    """True if the world edge supports the template edge in every channel.

    ``template_edge`` must have at least one positive channel; the world edge
    needs at least that multiplicity wherever the template demands one.
    """
    if world_edge is None:
        return False
    return all(w >= t for w, t in zip(world_edge, template_edge) if t > 0)


@dataclass(frozen=True)
class Problem:
    """A template-in-world matching instance (same kind, same channel count)."""

    template: MultiplexGraph
    world: MultiplexGraph
    directed: bool = True

    def __post_init__(self):
        if self.template.channels != self.world.channels:
            raise ValueError("template and world must have the same channel count")


def parse_lad(text: str, directed: bool = True) -> Graph:
    """Parse a LAD-format graph: vertex count, then one adjacency line per vertex.

    Line ``v`` holds the out-degree of ``v`` followed by that many neighbor
    indices in ``[0, n)``. For undirected inputs each listed edge also
    inserts its reverse.
    """
    tokens: list[tuple[int, str]] = []  # (line number, token)
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            tokens.append((lineno, tok))
    pos = 0

    def next_int(what: str) -> tuple[int, int]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][0] if tokens else 1
            raise ParseError(last, f"truncated file: expected {what}")
        lineno, tok = tokens[pos]
        pos += 1
        try:
            return lineno, int(tok)
        except ValueError:
            raise ParseError(lineno, f"malformed token {tok!r}: expected {what}") from None

    _, n = next_int("vertex count")
    if n < 0:
        raise ParseError(tokens[0][0], f"negative vertex count {n}")
    g = Graph(n)
    for v in range(n):
        lineno, deg = next_int(f"out-degree of vertex {v}")
        if deg < 0:
            raise ParseError(lineno, f"negative out-degree {deg} for vertex {v}")
        for _ in range(deg):
            lineno, w = next_int(f"neighbor of vertex {v}")
            if not 0 <= w < n:
                raise ParseError(lineno, f"neighbor index {w} out of range [0, {n})")
            g.add_edge(v, w)
            if not directed:
                g.add_edge(w, v)
    if pos < len(tokens):
        raise ParseError(tokens[pos][0], f"unexpected trailing token {tokens[pos][1]!r}")
    return g


def serialize_lad(g: MultiplexGraph, directed: bool = True) -> str:
    """Canonical LAD text for a single-channel graph (neighbors sorted).

    For ``directed=False`` each undirected edge is listed once, from its
    lower endpoint (self-loops from their own vertex).
    """
    if g.channels != 1:
        raise ValueError("LAD serialization requires a single-channel graph")
    lines = [str(g.vertex_count)]
    for v in range(g.vertex_count):
        if directed:
            nbrs = sorted(g.out[v])
        else:
            nbrs = sorted(w for w in g.out[v] if w >= v)
        lines.append(" ".join([str(len(nbrs))] + [str(w) for w in nbrs]))
    return "\n".join(lines) + "\n"


def parse_multiplex_edgelist(text: str) -> MultiplexGraph:
    """Parse the multiplex quadruple edge-list format.

    Header ``n K``; then lines ``src dst channel multiplicity`` with
    multiplicity >= 1 and channel in 1..K. Duplicate (src, dst, channel)
    lines sum their multiplicities.
    """
    lines = text.splitlines()
    header_line = 0
    header: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if line.split():
            header_line, header = lineno, line.split()
            break
    if not header:
        raise ParseError(1, "truncated file: expected header 'n K'")
    if len(header) != 2:
        raise ParseError(header_line, f"malformed header {' '.join(header)!r}: expected 'n K'")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(header_line, f"malformed header token: expected integers 'n K'") from None
    if n < 0:
        raise ParseError(header_line, f"negative vertex count {n}")
    if k < 1:
        raise ParseError(header_line, f"channel count {k} must be positive")
    g = MultiplexGraph(n, channels=k)
    for lineno in range(header_line + 1, len(lines) + 1):
        parts = lines[lineno - 1].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(lineno, "expected 'src dst channel multiplicity'")
        try:
            src, dst, channel, mult = (int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"malformed token in {' '.join(parts)!r}") from None
        if not 0 <= src < n:
            raise ParseError(lineno, f"vertex {src} out of range [0, {n})")
        if not 0 <= dst < n:
            raise ParseError(lineno, f"vertex {dst} out of range [0, {n})")
        if not 1 <= channel <= k:
            raise ParseError(lineno, f"channel {channel} out of range 1..{k}")
        if mult < 1:
            raise ParseError(lineno, f"multiplicity {mult} must be >= 1")
        g.add_edge(src, dst, channel, mult)
    return g


def serialize_multiplex_edgelist(g: MultiplexGraph) -> str:
    """Canonical multiplex edge-list text (edges sorted, one line per channel)."""
    lines = [f"{g.vertex_count} {g.channels}"]
    for u in range(g.vertex_count):
        for v in sorted(g.out[u]):
            mults = g.out[u][v]
            for ch, m in enumerate(mults, start=1):
                if m > 0:
                    lines.append(f"{u} {v} {ch} {m}")
    return "\n".join(lines) + "\n"


def degree_vector(g: MultiplexGraph, v: int) -> list[tuple[int, int]]:
    """Per-channel (in-degree, out-degree) pairs for ``v``, counting
    multiplicity; a self-loop counts in both. Each channel is summed in C,
    by ``map(sum, ...)`` over the columns of v's edge tuples (a column of
    zeros gives an isolated vertex ``(0, 0)`` per channel)."""
    g._check_vertex(v)
    zero = (0,) * g.channels
    return list(zip(map(sum, zip(zero, *g.inn[v].values())),
                    map(sum, zip(zero, *g.out[v].values()))))


def is_subgraph_isomorphism(problem: Problem, mapping: dict[int, int]) -> bool:
    """Check that ``mapping`` is injective, total, and edge-preserving.

    Multiplex edges require per-channel multiplicity dominance. Each
    template arc costs one dict lookup in the world; ``dominates`` runs
    only when the world tuple differs from the template's, since an equal
    tuple always dominates. A key outside the template's vertices makes
    the map not total.
    """
    t, w = problem.template, problem.world
    if len(mapping) != t.vertex_count:
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    nw, wout, tlabels, wlabels = w.vertex_count, w.out, t.labels, w.labels
    image = mapping.get  # None for a template vertex the map lacks
    for u, arcs in enumerate(t.out):
        img = image(u)
        if img is None or not 0 <= img < nw:
            return False
        if (tlabels is not None and tlabels[u] is not None
                and (wlabels is None or wlabels[img] != tlabels[u])):
            return False
        reached = wout[img]
        for v, req in arcs.items():
            edge = reached.get(image(v))
            if edge != req and not dominates(edge, req):
                return False
    return True
