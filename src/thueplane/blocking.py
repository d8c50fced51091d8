"""Blocking sets of outerplane graphs and their derived blocking graphs.

A blocking set B of an outerplane graph G is a vertex set such that every
2-connected component minus B is a tree and every inner face keeps at least
one uncovered vertex.  The blocking graph joins consecutive B-vertices of
the outer facial walk; it is always a bridgeless cactus, and the
constructors here produce blocking sets whose blocking graphs have only
even cycles (or, for ``blocking_set_good_size``, a single cycle whose
length avoids the exceptional set), which is what the colouring pipelines
need.

All constructors require simple inputs; multigraphs are normalized with
``embed.simplify`` by the callers and colourings lift back.

The constructions run on block views (``_block_view``): a 2-connected
component read in place in its host, in host vertex, edge and face ids, so
no block is copied out of its host; size control drops an ear from the
view.  Each public constructor checks its input class, then views its own
graph and calls the unchecked core a pipeline calls on its blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from thueplane import embed
from thueplane.embed import ClassMismatchError
from thueplane.words import EXCEPTIONAL_CYCLE_LENGTHS


class BlockingConstructionError(RuntimeError):
    """A constructor's internal assumptions were violated (a bug)."""


@dataclass(frozen=True)
class BlockingGraph:
    graph: embed.EmbeddedGraph
    host_vertex: tuple  # blocking-graph vertex id -> host vertex id

    def to_json(self):
        doc = embed.graph_to_json(self.graph)
        doc["host_vertex"] = list(self.host_vertex)
        return doc


# -- validation ---------------------------------------------------------------


def validate_blocking_set(G, B):
    """Check the definition directly plus the derived observations.
    Returns (ok, list of violated-condition descriptions); a graph that is
    not outerplane has the one violation "graph is not outerplane"."""
    if not embed.is_outerplane(G):
        return False, ["graph is not outerplane"]
    B = set(B)
    for x in B:
        if not (0 <= x < G.n):
            return False, [f"vertex {x} out of range"]

    violations = []
    blocks, _ = embed._blocks_and_bridges(G)
    for verts, bedges in blocks:
        if len(verts) < 3:
            continue
        rest = [x for x in verts if x not in B]
        if not rest:
            violations.append(f"2-connected component {verts} fully covered")
            continue
        rest_set = set(rest)
        inside = [e for e in bedges if G.edges[e][0] in rest_set and G.edges[e][1] in rest_set]
        # connectivity over the block's surviving edges
        adj = {x: [] for x in rest}
        for e in inside:
            a, b = G.edges[e]
            adj[a].append(b)
            adj[b].append(a)
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(rest):
            violations.append(f"component {verts}: removal of B disconnects it")
        elif len(inside) != len(rest) - 1:
            violations.append(f"component {verts}: removal of B leaves a cycle")

    for f in G.inner_faces():
        verts = G.face_vertices(f)
        if all(x in B for x in verts):
            violations.append(f"inner face {f} fully covered")

    for e in embed._chords(G):
        u, v = G.edges[e]
        if u in B and v in B:
            violations.append(f"both endpoints of chord {e} in B")
    for f in G.inner_faces():
        cyc = G.face_vertices(f)
        L = len(cyc)
        flips = sum(1 for i in range(L) if (cyc[i] in B) != (cyc[(i + 1) % L] in B))
        if flips > 2:
            violations.append(f"inner face {f}: B-vertices not consecutive")

    return (not violations), violations


# -- lemma scaffolding --------------------------------------------------------


def _require_biconnected_outerplane(G):
    embed._require_simple_outerplane(G)
    if G.n < 3:
        raise ClassMismatchError("biconnected graphs have at least 3 vertices")
    # every vertex is on the outer walk, and a cut vertex or a bridge end
    # repeats on it: G is biconnected iff vertex 0's outer walk is a cycle
    # through all n vertices
    W = embed.outer_walk(G, 0)
    if len(W) != G.n or len(set(W)) != G.n:
        raise ClassMismatchError("graph is not biconnected")


class _BlockView(NamedTuple):
    """One 2-connected component of an outerplane host, read in place: every
    id is the host's.  Its inner faces are exactly host inner faces (same
    dart walks, same start dart), and the weak dual they span is the block's
    chord tree, so the constructions below need no copy of the block."""

    cycles: dict  # inner face id -> vertex cycle (tuple)
    dual: dict  # inner face id -> list of (chord edge, neighbouring face)
    outer_nb: dict  # vertex -> its two neighbours on the block's outer cycle
    edges: tuple  # the host's edges, for chord endpoints
    faces: tuple  # the host's dart walks, for face edge ids


def _block_view(G, edge_ids):
    """View of the block of the simple outerplane graph G whose edges are
    ``edge_ids`` (sorted, at least three vertices), in time proportional to
    the block.  A block edge is a chord iff both its sides are inner faces;
    every other block edge has the outer face on one side and lies on the
    block's outer cycle."""
    edges, face_of, outer_faces = G.edges, G.face_of, G.outer_faces
    dual = {}
    outer_nb = {}
    for e in edge_ids:
        f, g = face_of[2 * e], face_of[2 * e + 1]
        if f in outer_faces or g in outer_faces:
            u, w = edges[e]
            outer_nb.setdefault(u, []).append(w)
            outer_nb.setdefault(w, []).append(u)
            dual.setdefault(g if f in outer_faces else f, [])  # its inner side
        else:
            dual.setdefault(f, []).append((e, g))
            dual.setdefault(g, []).append((e, f))
    faces, origin = G.faces, G.origin
    cycles = {f: tuple(map(origin.__getitem__, faces[f])) for f in dual}
    return _BlockView(cycles, dual, outer_nb, edges, faces)


def _one_per_face(view, v, include):
    """``blocking_set_biconnected`` on a block view."""
    if not include:
        forced = min(view.outer_nb[v])
        B = _one_per_face(view, forced, True)
        if v in B:
            raise BlockingConstructionError("exclusion failed; one-per-face violated")
        return B

    cycles, dual, edges = view.cycles, view.dual, view.edges
    if len(cycles) == 1:
        return frozenset({v})

    alive_deg = {f: len(nbs) for f, nbs in dual.items()}
    dead_chords = set()
    face_alive = {f: True for f in cycles}

    def leaf_chord(f):
        for e, g in dual[f]:
            if e not in dead_chords:
                return e, g
        raise BlockingConstructionError("leaf face without a live chord")

    def valid_leaf(f):
        e, _g = leaf_chord(f)
        u, w = edges[e]
        return v not in cycles[f] or v in (u, w)

    heap = [f for f in cycles if alive_deg[f] == 1 and valid_leaf(f)]
    heapq.heapify(heap)
    peels = []
    remaining = len(cycles)
    while remaining > 1:
        if not heap:
            raise BlockingConstructionError("no valid ear available")
        f = heapq.heappop(heap)
        if not face_alive[f] or alive_deg[f] != 1:
            continue
        e, g = leaf_chord(f)
        u, w = edges[e]
        interior = tuple(x for x in cycles[f] if x != u and x != w)
        peels.append((e, interior))
        face_alive[f] = False
        dead_chords.add(e)
        remaining -= 1
        alive_deg[g] -= 1
        if alive_deg[g] == 1 and remaining > 1 and valid_leaf(g):
            heapq.heappush(heap, g)

    B = {v}
    for e, interior in reversed(peels):
        u, w = edges[e]
        if u not in B and w not in B:
            B.add(min(interior))
    return frozenset(B)


def blocking_set_biconnected(G, v, include=True):
    """Blocking set with exactly one vertex on every inner face; v is a
    member when ``include`` and excluded otherwise (exclusion forces v's
    smaller-id neighbour on the outer face instead).

    Implemented as ear peeling over the weak dual: repeatedly excise the
    smallest-id ear whose interior avoids v, then replay the peels adding
    the smallest interior vertex whenever the ear's chord is uncovered.
    """
    _require_biconnected_outerplane(G)
    if not (0 <= v < G.n):
        raise ValueError(f"vertex {v} out of range")
    return _one_per_face(_block_view(G, range(len(G.edges))), v, include)


def _b_vertex_per_face(view, B):
    """Face id -> its unique B vertex (asserts the one-per-face property)."""
    out = {}
    for f, cyc in view.cycles.items():
        hits = [x for x in cyc if x in B]
        if len(hits) != 1:
            raise BlockingConstructionError(
                f"face {f} carries {len(hits)} B-vertices; expected exactly one"
            )
        out[f] = hits[0]
    return out


def _face_neighbours_of(cyc, x):
    i = cyc.index(x)
    return cyc[i - 1], cyc[(i + 1) % len(cyc)]


def _evenize(view, B1, ref, root_face, ab_edge=None):
    """Add one vertex to an odd one-per-face blocking set so the blocking
    graph becomes an even cycle.

    ``ref`` is the vertex the case split protects (the included/excluded v,
    or the excluded endpoint a of the edge variant): the chosen vertex is
    never ref.  ``root_face`` roots the weak dual for the final case.  In
    the edge variant ``ab_edge`` is the outer edge ab, and the ears used by
    the first two cases may not carry it."""
    cycles, dual, edges = view.cycles, view.dual, view.edges

    if len(cycles) == 1:
        (u0,) = tuple(B1)
        w = min(x for x in view.outer_nb[u0] if x != ref)
        return frozenset(B1 | {w})

    bvert = _b_vertex_per_face(view, B1)

    def face_edge_ids(f):
        return {d // 2 for d in view.faces[f]}

    ears_list = sorted(f for f in cycles if len(dual[f]) == 1)

    # Case 1: an ear with four or more vertices
    for f in ears_list:
        cyc = cycles[f]
        if len(cyc) < 4:
            continue
        e, _g = dual[f][0]
        u, w = edges[e]
        if ab_edge is None:
            ok = ref not in cyc or ref in (u, w)
        else:
            ok = ab_edge not in face_edge_ids(f)
        if not ok:
            continue
        x = bvert[f]
        cands = [y for y in _face_neighbours_of(cyc, x) if y != u and y != w]
        if not cands:
            raise BlockingConstructionError("no eligible neighbour in a long ear")
        return frozenset(B1 | {min(cands)})

    # Case 2: a triangular ear with a chord endpoint already in the set
    for f in ears_list:
        cyc = cycles[f]
        if len(cyc) != 3:
            continue
        e, _g = dual[f][0]
        u, w = edges[e]
        (t,) = tuple(x for x in cyc if x != u and x != w)
        if u not in B1 and w not in B1:
            continue
        if ab_edge is None:
            if t == ref:
                continue
        elif ab_edge in face_edge_ids(f):
            continue
        return frozenset(B1 | {t})

    # Case 3: root the dual, take an internal face F whose children are all
    # deepest leaves, and pick inside the star around it
    depth = {root_face: 0}
    parent_chord = {root_face: None}
    order = [root_face]
    qi = 0
    while qi < len(order):
        f = order[qi]
        qi += 1
        for e, g in sorted(dual[f]):
            if g not in depth:
                depth[g] = depth[f] + 1
                parent_chord[g] = e
                order.append(g)
    h = max(depth.values())
    if h < 1:
        raise BlockingConstructionError("case 3 reached with a single face")
    children = {f: [g for _, g in sorted(dual[f]) if depth[g] == depth[f] + 1] for f in cycles}
    F = min(f for f in cycles if depth[f] == h - 1 and any(depth[g] == h for g in children[f]))

    if F == root_face:
        if ab_edge is not None:
            uw = ab_edge
        else:
            chords_of_F = {c for c, _g in dual[F]}
            cand_edges = []
            for e in sorted(face_edge_ids(F)):
                a, b = edges[e]
                if ref in (a, b):
                    star_faces = 1 + len(children[F]) - (1 if e in chords_of_F else 0)
                    if star_faces >= 2:
                        cand_edges.append(e)
            if not cand_edges:
                raise BlockingConstructionError("no usable edge at the root face")
            uw = min(cand_edges)
    else:
        uw = parent_chord[F]
    u, w = edges[uw]
    x = bvert[F]
    cands = [y for y in _face_neighbours_of(cycles[F], x) if y != u and y != w]
    if not cands:
        raise BlockingConstructionError("central face degenerated to a triangle")
    y = min(cands)
    if y == ref:
        raise BlockingConstructionError("case 3 picked the protected vertex")
    return frozenset(B1 | {y})


def _even_one_per_face(view, v, include):
    """``blocking_set_even_biconnected`` on a block view."""
    B1 = _one_per_face(view, v, include)
    if len(B1) % 2 == 0:
        return B1
    root = min(f for f, cyc in view.cycles.items() if v in cyc)
    return _evenize(view, B1, v, root)


def blocking_set_even_biconnected(G, v, include=True):
    """Blocking set of a biconnected outerplane graph whose blocking graph
    is a single even cycle, with v included or excluded on request."""
    _require_biconnected_outerplane(G)
    if not (0 <= v < G.n):
        raise ValueError(f"vertex {v} out of range")
    return _even_one_per_face(_block_view(G, range(len(G.edges))), v, include)


def blocking_set_even_biconnected_edge(G, a, b):
    """Even-cycle blocking set with a excluded and b included, for an edge
    ab on the outer face."""
    _require_biconnected_outerplane(G)
    eid = None
    for e, (p, q) in enumerate(G.edges):
        if {p, q} == {a, b}:
            outer = G.is_outer_face(G.face_of[2 * e]) or G.is_outer_face(G.face_of[2 * e + 1])
            if outer:
                eid = e
                break
    if eid is None:
        raise ClassMismatchError("ab must be an edge on the outer face")
    root = G.face_of[2 * eid]
    if G.is_outer_face(root):
        root = G.face_of[2 * eid + 1]
    return _even_one_per_face_edge(_block_view(G, range(len(G.edges))), a, b, eid, root)


def _even_one_per_face_edge(view, a, b, ab_edge, root):
    """``blocking_set_even_biconnected_edge`` on a block view; ``root`` is
    the inner face on the outer edge ``ab_edge``."""
    B1 = _one_per_face(view, b, True)
    if a in B1:
        raise BlockingConstructionError("exclusion of a failed")
    if len(B1) % 2 == 0:
        return B1
    B = _evenize(view, B1, a, root, ab_edge=ab_edge)
    if a in B or b not in B:
        raise BlockingConstructionError("edge-variant postcondition violated")
    return B


def _even_blocking_over_blocks(G):
    """Process the block-cut forest once: every 2-connected component gets
    an even-cycle blocking set whose shared cut class is included exactly
    when an earlier block (or bridge-tree inflation) selected it."""
    blocks, bridge_ids = embed._blocks_and_bridges(G)
    # bridge-connected vertices form one class
    find = embed._union_find(G.n, (G.edges[e] for e in bridge_ids))
    cls = [find(x) for x in range(G.n)]
    big = [(verts, es) for verts, es in blocks if len(verts) >= 3]

    class_blocks = {}
    for bid, (verts, _es) in enumerate(big):
        for x in verts:
            class_blocks.setdefault(cls[x], []).append(bid)

    selected = set()
    seen_block = [False] * len(big)
    for start in range(len(big)):
        if seen_block[start]:
            continue
        seen_block[start] = True
        queue = [(start, None)]
        qi = 0
        while qi < len(queue):
            bid, attach_class = queue[qi]
            qi += 1
            verts, bedges = big[bid]
            if attach_class is None:
                a = verts[0]
                include = True
            else:
                (a,) = [x for x in verts if cls[x] == attach_class]
                include = attach_class in selected
            for x in _even_one_per_face(_block_view(G, bedges), a, include):
                selected.add(cls[x])
            for x in verts:
                c = cls[x]
                # a class is expanded once: its first expansion marks every
                # block of it seen, so a later scan would add nothing
                for nb in class_blocks.pop(c, ()):
                    if not seen_block[nb]:
                        seen_block[nb] = True
                        queue.append((nb, c))

    return frozenset(x for x in range(G.n) if cls[x] in selected)


def blocking_set_even_bridgeless(G):
    """Blocking set with all blocking-graph cycles even, for a simple
    bridgeless outerplane graph."""
    embed._require_simple_outerplane(G)
    if embed.bridges(G):
        raise ClassMismatchError("graph has a bridge")
    return _even_blocking_over_blocks(G)


def blocking_set_even(G):
    """Blocking set with all blocking-graph cycles even, for any simple
    outerplane graph.  Bridges are handled by the contraction argument:
    whenever any vertex of a bridge-connected class is selected the whole
    class is, which re-expands each contracted bridge to a two-cycle."""
    embed._require_simple_outerplane(G)
    return _even_blocking_over_blocks(G)


def blocking_set_good_size(G):
    """Blocking set of a biconnected outerplane graph whose size avoids the
    exceptional cycle lengths (so its blocking cycle is 3-colourable)."""
    _require_biconnected_outerplane(G)
    return _good_size(_block_view(G, range(len(G.edges))))


def _good_size(view):
    """``blocking_set_good_size`` on a block view.  A polygon takes the ends
    of its lowest-id edge, the first two vertices of its outer walk (that
    walk holds one dart of every edge and starts at its lowest).  Otherwise the smallest-id ear f is dropped from
    the view, so that its chord becomes an outer edge, and the rest gets an
    even set with the chord's smaller end b in and its larger end a out.
    Sizes 10 and 14 then also take b's other neighbour on f."""
    cycles, dual, edges = view.cycles, view.dual, view.edges
    if len(cycles) == 1:
        (f,) = cycles
        return frozenset(edges[min(view.faces[f]) // 2])

    f = min(g for g in cycles if len(dual[g]) == 1)
    ((chord, g),) = dual[f]
    a, b = sorted(edges[chord], reverse=True)
    interior = set(cycles[f]) - {a, b}
    outer_nb = {x: nb for x, nb in view.outer_nb.items() if x not in interior}
    outer_nb[a] = [b if x in interior else x for x in outer_nb[a]]
    outer_nb[b] = [a if x in interior else x for x in outer_nb[b]]
    rest_dual = {h: nbs for h, nbs in dual.items() if h != f}
    rest_dual[g] = [(e, h) for e, h in dual[g] if h != f]
    rest_cycles = {h: cyc for h, cyc in cycles.items() if h != f}
    rest = view._replace(cycles=rest_cycles, dual=rest_dual, outer_nb=outer_nb)
    B = set(_even_one_per_face_edge(rest, a, b, chord, g))
    if len(B) in (10, 14):
        nb1, nb2 = _face_neighbours_of(cycles[f], b)
        B.add(nb1 if nb1 != a else nb2)
    if len(B) in EXCEPTIONAL_CYCLE_LENGTHS:
        raise BlockingConstructionError("good-size construction hit an exceptional size")
    return frozenset(B)


# -- the blocking graph -------------------------------------------------------


def blocking_graph(G, B):
    """Embedded blocking graph of a valid blocking set: vertex set B, one
    edge per consecutive pair of B-vertices along each outer facial walk,
    embedding inherited from the walk order.  B is checked with
    ``validate_blocking_set``; ValueError if it fails."""
    ok, violations = validate_blocking_set(G, B)
    if not ok:
        raise ValueError("invalid blocking set: " + "; ".join(violations))
    return _blocking_graph(G, B, simple=False)


def _blocking_graph(G, B, simple):
    """``blocking_graph`` without the check, for sets the constructors here
    just built.  With ``simple`` the graph is built as ``embed.simplify``
    would return it, in the same sweep; the pipelines colour that graph.
    The blocking graph of a simple graph need not be simple: a blocking
    cycle of length 2 gives a parallel pair, and a walk step between two
    occurrences of one B-vertex gives a loop.  Such a step gets no edge, so
    the first edge of each endpoint pair is the one kept, as in
    ``simplify``."""
    B = set(B)
    hosts = sorted(B)
    local = {x: i for i, x in enumerate(hosts)}

    edges = []
    rotations = [[] for _ in hosts]
    outer_darts = []
    k = len(hosts)
    pairs = set()  # endpoint pairs u < w with an edge, as u * k + w

    for cid in range(len(G.components)):
        f = G.outer_face_of_component(cid)
        if f is None:
            continue
        W = [local[x] for x in G.face_vertices(f) if x in B]
        m = len(W)
        # step j of the walk, W[j] -> W[j + 1], is edge ids[j] or -1
        ids = []
        for j in range(m):
            u, w = W[j], W[(j + 1) % m]
            if simple:
                key = u * k + w if u < w else w * k + u
                if u == w or key in pairs:
                    ids.append(-1)
                    continue
                pairs.add(key)
            ids.append(len(edges))
            edges.append((u, w))
        # the walk's forward darts trace the outer face
        first = next((e for e in ids if e != -1), None)
        if first is not None:
            outer_darts.append(2 * first)
        # each occurrence of a vertex adds its incoming dart, then outgoing
        for j in range(m):
            e_in, e_out = ids[j - 1], ids[j]
            rot = rotations[W[j]]
            if e_in != -1:
                rot.append(2 * e_in + 1)
            if e_out != -1:
                rot.append(2 * e_out)

    graph = embed.EmbeddedGraph(len(hosts), edges, rotations, tuple(outer_darts))
    return BlockingGraph(graph, tuple(hosts))
