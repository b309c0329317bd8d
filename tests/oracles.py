"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code with the search
engine: a recursive brute-force enumerator over all injective assignments,
a from-the-definition structural-equivalence partitioner, a swap-orbit
enumerator for interchange counting, a standalone isomorphism verifier,
per-candidate groupings of the FE, NC and CE cells (given the pair
labels, which the caller supplies), a per-arc rule for the
solution-induced subgraph of a class, a reference class expander whose
map order the engine's must keep, a per-arc isomorphism checker,
an interchange count that treats singleton classes like any other,
the unary tests (label, degrees, self-loop) read one arc at a time and
again per world vertex as ``init_candidates`` once ran them, the world
partition by the exact-signature pass and clique scan it once used, an
arc-consistent closure over sets, swept one template arc at a time, and
reference LAD and multiplex parsers that read one token (or one line) at
a time and insert each arc through ``add_edge``.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod

from eqmatch.graphs import Graph, MultiplexGraph, ParseError, Problem


def edge_ok(world_edge, template_edge) -> bool:
    if template_edge is None:
        return True
    if world_edge is None:
        return False
    return all(w >= t for w, t in zip(world_edge, template_edge) if t > 0)


def verify_mapping(problem: Problem, mapping: dict[int, int]) -> bool:
    """Standalone isomorphism check (injective, total, edge-dominant)."""
    t, w = problem.template, problem.world
    if sorted(mapping) != list(range(t.vertex_count)):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    if any(not 0 <= c < w.vertex_count for c in mapping.values()):
        return False
    for u in range(t.vertex_count):
        lbl = t.label(u)
        if lbl is not None and w.label(mapping[u]) != lbl:
            return False
        for v in range(t.vertex_count):
            if not edge_ok(w.edge(mapping[u], mapping[v]), t.edge(u, v)):
                return False
    return True


def iso_per_arc(problem: Problem, mapping: dict) -> bool:
    """Subgraph isomorphism, one template arc at a time: the keys are
    exactly the template's vertices, the images are distinct world
    vertices, labels agree, and each template arc's world arc carries at
    least its multiplicity in every channel (compared through ``zip``; a
    missing world arc carries zero)."""
    t, w = problem.template, problem.world
    if set(mapping) != set(range(t.vertex_count)):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if not all(0 <= c < w.vertex_count for c in images):
        return False
    if any(t.label(u) is not None and w.label(c) != t.label(u)
           for u, c in mapping.items()):
        return False
    for u in range(t.vertex_count):
        for v, req in t.out[u].items():
            have = w.out[mapping[u]].get(mapping[v], (0,) * t.channels)
            if any(h < r for h, r in zip(have, req)):
                return False
    return True


def degrees_per_arc(g: MultiplexGraph) -> list[list[tuple[int, int]]]:
    """Per vertex, per channel (in-degree, out-degree) with multiplicity,
    from one walk over the arcs: an arc ``a -> b`` adds its multiplicities
    to a's out-degrees and b's in-degrees, so a self-loop counts in both.
    An isolated vertex has ``(0, 0)`` in every channel."""
    ins = [[0] * g.channels for _ in range(g.vertex_count)]
    outs = [[0] * g.channels for _ in range(g.vertex_count)]
    for a in range(g.vertex_count):
        for b, mult in g.out[a].items():
            for ch, m in enumerate(mult):
                outs[a][ch] += m
                ins[b][ch] += m
    return [list(zip(i, o)) for i, o in zip(ins, outs)]


def unary_candidates(problem: Problem) -> list[set[int]]:
    """Per template vertex ``u``, the world vertices that pass the unary
    tests: u's label when it has one, at least u's in- and out-degree in
    every channel, and a self-loop dominating u's when u has one."""
    t, w = problem.template, problem.world
    tdeg, wdeg = degrees_per_arc(t), degrees_per_arc(w)
    return [{c for c in range(w.vertex_count)
             if (t.label(u) is None or w.label(c) == t.label(u))
             and all(wi >= ti and wo >= to
                     for (wi, wo), (ti, to) in zip(wdeg[c], tdeg[u]))
             and edge_ok(w.edge(c, c), t.edge(u, u))}
            for u in range(t.vertex_count)]


def candidates_per_vertex(problem: Problem) -> list[frozenset[int]]:
    """The unary tests as ``init_candidates`` ran them before it grouped
    the world: one degree tuple per world vertex, over the channels where
    the template has an arc, then per distinct (label, degrees, self-loop)
    profile of the template a test of every world vertex of its label.
    Template vertices of one profile share one set."""
    t, w = problem.template, problem.world
    chans = sorted({i for arcs in t.out for e in arcs.values()
                    for i, m in enumerate(e) if m}) or [0]

    def degrees(g: MultiplexGraph, v: int) -> tuple[int, ...]:
        return (*(sum(e[i] for e in g.inn[v].values()) for i in chans),
                *(sum(e[i] for e in g.out[v].values()) for i in chans))

    wdegs = [degrees(w, c) for c in range(w.vertex_count)]
    by_profile: dict[tuple, frozenset[int]] = {}
    csets = []
    for u in range(t.vertex_count):
        profile = (t.label(u), degrees(t, u), t.edge(u, u))
        if profile not in by_profile:
            lbl, tdeg, selfreq = profile
            by_profile[profile] = frozenset(
                c for c in range(w.vertex_count)
                if (lbl is None or w.label(c) == lbl)
                and all(a >= b for a, b in zip(wdegs[c], tdeg))
                and (selfreq is None or edge_ok(w.edge(c, c), selfreq)))
        csets.append(by_profile[profile])
    return csets


def arc_consistent(problem: Problem, domains: list[set[int]]
                   ) -> list[set[int]]:
    """The arc-consistent closure of ``domains``, as sets: every template
    arc ``u -> v`` (``u != v``) is swept until a whole pass changes
    nothing. A candidate ``c`` of ``u`` stays if some candidate ``c2`` of
    ``v`` has a world arc ``c -> c2`` dominating the template arc, and a
    candidate of ``v`` likewise. Injectivity is not enforced."""
    t, w = problem.template, problem.world
    domains = [set(d) for d in domains]
    arcs = [(u, v, req) for u in range(t.vertex_count)
            for v, req in t.out[u].items() if u != v]
    changed = True
    while changed:
        changed = False
        for u, v, req in arcs:
            sources = {c for c in domains[u]
                       if any(edge_ok(w.edge(c, c2), req) for c2 in domains[v])}
            targets = {c2 for c2 in domains[v]
                       if any(edge_ok(w.edge(c, c2), req) for c in sources)}
            if (sources, targets) != (domains[u], domains[v]):
                domains[u], domains[v] = sources, targets
                changed = True
    return domains


def interchange_reference(pairs) -> int:
    """The interchange count of one (template class, world class) pair per
    template vertex, every pair weighed alike: ``prod_i |C_i|!`` times, for
    each world class ``D``, the ways to give the template classes disjoint
    member sets of the sizes ``k_i`` they occupy in it,
    ``|D|! / ((|D| - sum_i k_i)! prod_i k_i!)``."""
    incidence = Counter(pairs)
    result = prod(factorial(len(tcls)) for tcls in {t for t, _ in incidence})
    sizes: dict[tuple, list[int]] = {}
    for (_, dcls), k in incidence.items():
        sizes.setdefault(dcls, []).append(k)
    for dcls, ks in sizes.items():
        rest = len(dcls) - sum(ks)
        if rest < 0:
            return 0
        result *= factorial(len(dcls)) // (
            factorial(rest) * prod(factorial(k) for k in ks))
    return result


def brute_force_solutions(problem: Problem) -> list[dict[int, int]]:
    """All subgraph isomorphisms by plain backtracking in vertex order 0..n-1
    (no candidate sets, no equivalence machinery); every complete assignment
    is re-verified from scratch before being emitted."""
    t, w = problem.template, problem.world
    nt, nw = t.vertex_count, w.vertex_count
    out: list[dict[int, int]] = []
    if nt == 0:
        return [{}]
    if nt > nw:
        return []
    mapping: dict[int, int] = {}

    def extend(u: int) -> None:
        if u == nt:
            assert verify_mapping(problem, mapping)
            out.append(dict(mapping))
            return
        for c in range(nw):
            if c in mapping.values():
                continue
            ok = True
            for v, img in mapping.items():
                if not edge_ok(w.edge(img, c), t.edge(v, u)) or \
                   not edge_ok(w.edge(c, img), t.edge(u, v)):
                    ok = False
                    break
            if ok and edge_ok(w.edge(c, c), t.edge(u, u)):
                lbl = t.label(u)
                if lbl is None or w.label(c) == lbl:
                    mapping[u] = c
                    extend(u + 1)
                    del mapping[u]

    extend(0)
    return out


def brute_force_count(problem: Problem) -> int:
    return len(brute_force_solutions(problem))


def naive_structural_partition(g: MultiplexGraph) -> list[list[int]]:
    """All-pairs structural-equivalence grouping straight from the definition:
    swapping the two vertices leaves every edge multiplicity unchanged.

    Only positions with ``v`` or ``w`` as an endpoint can change under the
    swap, so only those are compared (against every position where either
    the original or the swapped graph has an edge)."""

    def swap(x: int, v: int, w: int) -> int:
        return v if x == w else (w if x == v else x)

    def equivalent(v: int, w: int) -> bool:
        if g.label(v) != g.label(w):
            return False
        positions = set()
        for x in (v, w):
            for b in list(g.out[x]) + list(g.out[swap(x, v, w)]):
                positions.add((x, b))
                positions.add((x, swap(b, v, w)))
            for a in list(g.inn[x]) + list(g.inn[swap(x, v, w)]):
                positions.add((a, x))
                positions.add((swap(a, v, w), x))
        return all(g.edge(a, b) == g.edge(swap(a, v, w), swap(b, v, w))
                   for a, b in positions)

    groups: list[list[int]] = []
    for v in range(g.vertex_count):
        for grp in groups:
            if equivalent(grp[0], v):
                grp.append(v)
                break
        else:
            groups.append([v])
    return groups


def partition_three_pass(g: MultiplexGraph) -> list[tuple[int, ...]]:
    """The classes of the world partition as ``find_equivalence_classes``
    found them before it keyed vertices by aggregates, sorted by smallest
    member: a pass that groups the vertices by their exact open signature
    (label, self-loop, out-arcs and in-arcs without it), then a scan in
    vertex order that starts a clique at each vertex not yet placed, whose
    other members are its higher out-neighbours not yet placed with equal
    neighbour counts that pass the swap test."""
    out, inn = g.out, g.inn

    def signature(v: int):
        own = {(v, out[v][v])} if v in out[v] else set()
        return (g.label(v), out[v].get(v), frozenset(out[v].items()) - own,
                frozenset(inn[v].items()) - own)

    def swappable(v: int, w: int) -> bool:
        pair = {v, w}
        return (g.label(v) == g.label(w)
                and out[v].get(v) == out[w].get(w)
                and out[v].get(w) == out[w].get(v)
                and {u for u, _ in out[v].items() ^ out[w].items()} <= pair
                and {u for u, _ in inn[v].items() ^ inn[w].items()} <= pair)

    n = g.vertex_count
    by_sig: dict[object, list[int]] = {}
    for v in range(n):
        by_sig.setdefault(signature(v), []).append(v)
    groups = [grp for grp in by_sig.values() if len(grp) > 1]
    placed = {v for grp in groups for v in grp}
    for v in range(n):
        if v in placed:
            continue
        clique = [v] + [w for w in out[v] if w > v and w not in placed
                        and len(out[w]) == len(out[v])
                        and len(inn[w]) == len(inn[v]) and swappable(v, w)]
        placed.update(clique)
        groups.append(clique)
    return sorted(tuple(sorted(grp)) for grp in groups)


def orbit_count(problem: Problem, mapping: dict[int, int],
                template_groups: list[list[int]],
                world_groups: list[list[int]]) -> int:
    """Size of the interchange orbit of ``mapping``: the number of verified
    isomorphisms whose per (template class, world class) incidence counts
    match the mapping's. Exhaustive, for small instances only."""
    tclass = {}
    for i, grp in enumerate(template_groups):
        for v in grp:
            tclass[v] = i
    wclass = {}
    for j, grp in enumerate(world_groups):
        for c in grp:
            wclass[c] = j

    def incidence(f: dict[int, int]):
        counts: dict[tuple[int, int], int] = {}
        for v, c in f.items():
            key = (tclass[v], wclass[c])
            counts[key] = counts.get(key, 0) + 1
        return sorted(counts.items())

    target = incidence(mapping)
    return sum(1 for f in brute_force_solutions(problem)
               if incidence(f) == target)


def _grouped(items, key) -> set[frozenset[int]]:
    groups: dict[object, set[int]] = {}
    for c in items:
        groups.setdefault(key(c), set()).add(c)
    return {frozenset(g) for g in groups.values()}


def fe_cells(domain: set[int], unmatched, domains: list[set[int]],
             labels_wrt) -> set[frozenset[int]]:
    """Full candidate equivalence from its definition: the candidates in
    ``domain`` grouped by the tuple of their labels with respect to every
    unmatched vertex ``v``. ``labels_wrt(v, inside)`` labels the candidates
    ``inside`` (those of ``domain`` in ``domains[v]``); a candidate outside
    ``domains[v]`` gets a sentinel instead."""
    outside = object()
    labels = {v: labels_wrt(v, sorted(domain & domains[v])) for v in unmatched}
    return _grouped(domain, lambda c: tuple(labels[v].get(c, outside)
                                            for v in unmatched))


def nc_cells(domain: set[int], noncover, domains: list[set[int]]
             ) -> set[frozenset[int]]:
    """The candidates in ``domain`` grouped by their membership vector over
    the domains of the unmatched non-cover vertices."""
    return _grouped(domain, lambda c: tuple(c in domains[v] for v in noncover))


def ce_cells(domain: set[int], labels: dict[int, object], others: set[int],
             world_class) -> set[frozenset[int]]:
    """The candidates in ``domain`` grouped by dynamic label; a group that
    shares a candidate with ``others`` (the other unmatched vertices'
    domains) is blocked, and the blocked candidates are grouped by world
    class (``world_class[c]``) instead."""
    cells, blocked = set(), set()
    for group in _grouped(domain, labels.__getitem__):
        if group & others:
            blocked |= group
        else:
            cells.add(group)
    return cells | _grouped(blocked, world_class.__getitem__)


def induced_subgraph_fields(world: MultiplexGraph, slots,
                            template: MultiplexGraph | None = None) -> dict:
    """The solution-induced subgraph of a class, one world arc at a time.

    A vertex participates when some slot lists it, and its colour is the
    first such slot; its merge log lists every such slot. An arc between
    participants is kept when there is no template, or when the world edge
    dominates the template edge between the template vertices of the two
    colours. ``dropped`` counts the arcs lost to dominance alone (the
    template has an edge, but a smaller one than required)."""
    members = [set(s.members) for s in slots]
    merge_log = {c: tuple(i for i, ms in enumerate(members) if c in ms)
                 for c in range(world.vertex_count)}
    merge_log = {c: log for c, log in merge_log.items() if log}
    color_of = {c: log[0] for c, log in merge_log.items()}
    edges, dropped = [], 0
    for a in sorted(color_of):
        for b in sorted(color_of):
            have = world.edge(a, b)
            if have is None:
                continue
            if template is not None:
                need = template.edge(slots[color_of[a]].template_vertex,
                                     slots[color_of[b]].template_vertex)
                if need is None:
                    continue
                if not edge_ok(have, need):
                    dropped += 1
                    continue
            edges.append((a, b))
    return {"vertices": tuple(sorted(color_of)), "color_of": color_of,
            "edges": tuple(edges), "merge_log": merge_log, "dropped": dropped}


def expand_reference(sc):
    """Every map of the class ``sc``, in the order the engine's expander
    must keep: one choice iterator per filled slot, including the last,
    and every map passed up through the stack loop.

    The slots are filled in order. A template vertex takes an unused member
    of any cell that its template class maps into, each cell as often as
    the representative fills it from that class (its quota). Taking ``c``
    from the vertex's own cell composes the world swap ``(r c)``, and later
    cells are read through the swaps made so far."""
    slots = sc.slots
    quota: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for s in slots:
        key = (s.template_class, s.members)
        quota[key] = quota.get(key, 0) + 1
    options = [[(key, key[1] == s.members) for key in quota
                if key[0] == s.template_class] for s in slots]
    image: dict[int, int] = {}   # representative's world -> current world
    source: dict[int, int] = {}  # the inverse; both default to the identity
    taken: set[int] = set()
    mapping: dict[int, int] = {}

    def swap(r: int, c: int) -> None:
        a, b = source.get(r, r), source.get(c, c)
        image[a], image[b] = c, r
        source[c], source[r] = a, b

    def choices(i: int):
        s = slots[i]
        if i == last:
            for key, _ in options[i]:
                if quota[key]:
                    for m in key[1]:
                        c = image.get(m, m)
                        if c not in taken:
                            mapping[s.template_vertex] = c
                            yield dict(mapping)
            return
        r = image.get(s.world_vertex, s.world_vertex)
        for key, own in options[i]:
            if not quota[key]:
                continue
            quota[key] -= 1
            for m in key[1]:
                c = image.get(m, m)
                if c in taken:
                    continue
                moved = own and c != r
                if moved:
                    swap(r, c)
                taken.add(c)
                mapping[s.template_vertex] = c
                yield True
                taken.discard(c)
                if moved:
                    swap(r, c)
            quota[key] += 1

    if not slots:
        yield {}
        return
    last = len(slots) - 1
    stack = [choices(0)]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif len(stack) == len(slots):
            yield item
        else:
            stack.append(choices(len(stack)))


def parse_lad(text: str) -> Graph:
    """Parse a LAD-format graph: vertex count, then one adjacency line per vertex.

    Line ``v`` holds the out-degree of ``v`` followed by that many neighbor
    indices in ``[0, n)``, each an arc.
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
    if pos < len(tokens):
        raise ParseError(tokens[pos][0], f"unexpected trailing token {tokens[pos][1]!r}")
    return g


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
