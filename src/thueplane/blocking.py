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

The constructions read each block in place: ``_host`` is the one block
pass, which also gives the vertex cycle of every face and the weak dual by
face id, and a block is its inner face ids plus its outer-cycle darts, as
that pass returns them; size control drops an ear from the dual in place.  A
public constructor checks its input class, then reads its own graph as
one block with the unchecked cores the pipelines call on their blocks.
No construction checks what it builds: the tests check the lemmas'
postconditions, and the pipelines' verifier certifies every colouring.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple

from thueplane import embed
from thueplane.embed import ClassMismatchError


@dataclass(frozen=True)
class BlockingGraph:
    graph: embed.EmbeddedGraph
    host_vertex: tuple  # blocking-graph vertex id -> host vertex id


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
    origin = G.origin
    for verts, faces, _seg in embed._blocks_and_bridges(G)[0]:
        if len(verts) < 3:
            continue
        rest = [x for x in verts if x not in B]
        if not rest:
            violations.append(f"2-connected component {verts} fully covered")
            continue
        # the block's edges: the non-loop edges of its inner faces
        bedges = {d >> 1 for f in faces for d in G.faces[f] if origin[d] != origin[d ^ 1]}
        rest_set = set(rest)
        inside = [e for e in bedges if origin[2 * e] in rest_set and origin[2 * e + 1] in rest_set]
        # connectivity over the block's surviving edges
        adj = {x: [] for x in rest}
        for e in inside:
            a, b = origin[2 * e], origin[2 * e + 1]
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
        if origin[2 * e] in B and origin[2 * e + 1] in B:
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
    if not embed.is_biconnected(G):
        raise ClassMismatchError("graph is not biconnected")


class _Host(NamedTuple):
    """A simple outerplane graph read face by face, built once per graph
    from its one block pass.  A block is read in place through it: as its
    inner face ids, which are host face ids, and the darts of its outer
    cycle.  The chords between its faces span its weak dual, a tree."""

    graph: embed.EmbeddedGraph
    blocks: list  # as ``embed._blocks_and_bridges`` returns them
    cycles: list  # face id -> vertex cycle (tuple)
    dual: list  # face id -> (chord, face across it) pairs, by chord id
    alive: list  # face id -> its live degree while its block peels, else 0


def _host(G):
    """``_Host`` of the simple outerplane graph G; a chord has inner faces on both sides."""
    return _Host(G, *embed._blocks_and_bridges(G), [0] * len(G.faces))


def _has_end(origin, e, v):
    """True when v is an end of edge e."""
    return origin[2 * e] == v or origin[2 * e + 1] == v


def _one_per_face(H, faces, seg, v, include):
    """``blocking_set_biconnected`` on the block of H with inner faces
    ``faces``; exclusion reads v's neighbours off ``seg``, the darts of the
    block's outer cycle."""
    if not include:
        ring = list(map(H.graph.origin.__getitem__, seg))
        i = ring.index(v)
        return _one_per_face(H, faces, seg, min(ring[i - 1], ring[(i + 1) % len(ring)]), True)

    if len(faces) == 1:
        return frozenset({v})
    cycles, dual, alive_deg, origin = H.cycles, H.dual, H.alive, H.graph.origin

    # a leaf is valid when v is off it or on its live chord.  The heap holds
    # (leaf, live chord, face across it): in a tree a face enters once and
    # keeps that chord until peeled, and the peels leave every degree 0
    heap = []
    for f in faces:
        nbs = dual[f]
        alive_deg[f] = len(nbs)
        if len(nbs) == 1 and (v not in cycles[f] or _has_end(origin, nbs[0][0], v)):
            heap.append((f,) + nbs[0])
    heapq.heapify(heap)
    peels = []  # (chord, face) in peeling order
    for remaining in range(len(faces), 1, -1):
        f, e, g = heapq.heappop(heap)
        peels.append((e, f))
        alive_deg[f] = 0
        alive_deg[g] -= 1
        if alive_deg[g] == 1 and remaining > 2:
            for c, h in dual[g]:  # g's live chord
                if alive_deg[h]:
                    break
            if v not in cycles[g] or _has_end(origin, c, v):
                heapq.heappush(heap, (g, c, h))

    B = {v}
    for e, f in reversed(peels):
        u, w = origin[2 * e], origin[2 * e + 1]
        if u not in B and w not in B:
            B.add(min(x for x in cycles[f] if x != u and x != w))
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
    return _one_per_face(_host(G), G.inner_faces(), G.faces[G.outer_face], v, include)


def _face_neighbours_of(cyc, x):
    i = cyc.index(x)
    return cyc[i - 1], cyc[(i + 1) % len(cyc)]


def _beside_b_vertex(H, f, B, e):
    """The smaller neighbour on face f of f's one B vertex that is not an
    end of edge e."""
    (x,) = B.intersection(H.cycles[f])
    u, w = H.graph.origin[2 * e], H.graph.origin[2 * e + 1]
    return min(y for y in _face_neighbours_of(H.cycles[f], x) if y != u and y != w)


def _evenize(H, faces, B1, ref, root_face, ab_edge=None):
    """Add one vertex to an odd one-per-face blocking set so the blocking
    graph becomes an even cycle.

    ``ref`` is the vertex the case split protects (the included/excluded v,
    or the excluded endpoint a of the edge variant): the chosen vertex is
    never ref.  ``root_face`` roots the weak dual for the final case.  In
    the edge variant ``ab_edge`` is the outer edge ab, and the ears used by
    the first two cases may not carry it: ab lies on ``root_face`` alone.
    B1's vertex is looked up only on the faces read."""
    cycles, dual, origin = H.cycles, H.dual, H.graph.origin

    if len(faces) == 1:
        # a polygon block: its outer cycle is its one face
        (u0,) = B1
        w = min(x for x in _face_neighbours_of(cycles[faces[0]], u0) if x != ref)
        return frozenset(B1 | {w})

    ears_list = sorted(f for f in faces if len(dual[f]) == 1)

    # Case 1: an ear with four or more vertices
    for f in ears_list:
        cyc = cycles[f]
        if len(cyc) < 4:
            continue
        e, _g = dual[f][0]
        if ab_edge is None:
            if ref in cyc and not _has_end(origin, e, ref):
                continue
        elif f == root_face:
            continue
        return frozenset(B1 | {_beside_b_vertex(H, f, B1, e)})

    # Case 2: a triangular ear with a chord endpoint already in the set
    for f in ears_list:
        cyc = cycles[f]
        if len(cyc) != 3:
            continue
        e, _g = dual[f][0]
        u, w = origin[2 * e], origin[2 * e + 1]
        if u not in B1 and w not in B1:
            continue
        (t,) = tuple(x for x in cyc if x != u and x != w)
        if ab_edge is None:
            if t == ref:
                continue
        elif f == root_face:
            continue
        return frozenset(B1 | {t})

    # Case 3: root the dual, take an internal face F whose children are all
    # deepest leaves, and pick inside the star around it
    depth = {root_face: 0}
    parent = {root_face: (None, None)}  # face -> (chord to its parent, parent)
    order = [root_face]
    for f in order:  # grows while it is read
        for e, g in dual[f]:  # by chord id
            if g not in depth:
                depth[g] = depth[f] + 1
                parent[g] = (e, f)
                order.append(g)
    h = depth[order[-1]]
    F = min(parent[g][1] for g in order if depth[g] == h)

    if F == root_face:
        if ab_edge is not None:
            uw = ab_edge
        else:
            # the star around the root is the root and all its children
            chords_of_F = {c for c, _g in dual[F]}
            uw = min(
                e for e in (d >> 1 for d in H.graph.faces[F])
                if _has_end(origin, e, ref) and 1 + len(dual[F]) - (e in chords_of_F) >= 2
            )
    else:
        uw = parent[F][0]
    return frozenset(B1 | {_beside_b_vertex(H, F, B1, uw)})


def _even_one_per_face(H, faces, seg, v, include):
    """``blocking_set_even_biconnected`` on the block of H with inner faces
    ``faces`` and outer-cycle darts ``seg``."""
    B1 = _one_per_face(H, faces, seg, v, include)
    if len(B1) % 2 == 0:
        return B1
    root = min(f for f in faces if v in H.cycles[f])
    return _evenize(H, faces, B1, v, root)


def blocking_set_even_biconnected(G, v, include=True):
    """Blocking set of a biconnected outerplane graph whose blocking graph
    is a single even cycle, with v included or excluded on request."""
    _require_biconnected_outerplane(G)
    if not (0 <= v < G.n):
        raise ValueError(f"vertex {v} out of range")
    return _even_one_per_face(_host(G), G.inner_faces(), G.faces[G.outer_face], v, include)


def blocking_set_even_biconnected_edge(G, a, b):
    """Even-cycle blocking set with a excluded and b included, for an edge
    ab on the outer face."""
    _require_biconnected_outerplane(G)
    origin = G.origin
    ab = [d for d in G.faces[G.outer_face] if {origin[d], origin[d ^ 1]} == {a, b}]
    if not ab:
        raise ClassMismatchError("ab must be an edge on the outer face")
    return _even_one_per_face_edge(_host(G), G.inner_faces(), a, b, ab[0] >> 1, G.face_of[ab[0] ^ 1])


def _even_one_per_face_edge(H, faces, a, b, ab_edge, root):
    """``blocking_set_even_biconnected_edge`` on the block of H with inner
    faces ``faces``; ``root`` is the inner face on the outer edge
    ``ab_edge``.  Nothing here reads the block's outer cycle."""
    B1 = _one_per_face(H, faces, None, b, True)
    if len(B1) % 2 == 0:
        return B1
    return _evenize(H, faces, B1, a, root, ab_edge=ab_edge)


def _even_blocking_over_blocks(G):
    """Process the block-cut forest once: every 2-connected component gets
    an even-cycle blocking set whose shared cut class is included exactly
    when an earlier block (or bridge-tree inflation) selected it."""
    H = _host(G)
    # bridge-connected vertices form one class, named by its union-find
    # root; a vertex on no bridge is its own class.  A bridge is a block
    # without an inner face, and its vertex tuple is its two ends.
    cls = list(range(G.n))
    bridge_ends = [verts for verts, faces, _seg in H.blocks if not faces]
    find = embed._union_find(G.n, bridge_ends)
    for x in chain.from_iterable(bridge_ends):
        cls[x] = find(x)
    big = [block for block in H.blocks if len(block[0]) >= 3]
    first = [-1] * G.n  # class -> the first block on it
    class_blocks = {}  # class on two or more blocks -> its blocks
    for bid, (verts, _fs, _seg) in enumerate(big):
        for c in map(cls.__getitem__, verts):
            if first[c] == -1:
                first[c] = bid
            else:
                class_blocks.setdefault(c, [first[c]]).append(bid)

    selected = bytearray(G.n)  # class -> 1 once selected
    seen_block = bytearray(len(big))
    for start in range(len(big)):
        if seen_block[start]:
            continue
        seen_block[start] = 1
        a = big[start][0][0]
        selected[cls[a]] = 1  # a root block includes its first vertex
        queue = [(start, a)]
        for bid, a in queue:  # grows while it is read
            verts, faces, seg = big[bid]
            for x in _even_one_per_face(H, faces, seg, a, selected[cls[a]]):
                selected[cls[x]] = 1
            for c in filter(class_blocks.__contains__, map(cls.__getitem__, verts)):
                # a class is expanded once: its first expansion marks every
                # block of it seen, so a later scan would add nothing
                for nb in class_blocks.pop(c):
                    if not seen_block[nb]:
                        seen_block[nb] = 1
                        # its one vertex in class c: c unless c joins bridges
                        nv = big[nb][0]
                        queue.append((nb, c if c in nv else next(y for y in nv if cls[y] == c)))

    return frozenset(compress(range(G.n), map(selected.__getitem__, cls)))


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
    return _good_size(_host(G), G.inner_faces())


def _good_size(H, faces):
    """``blocking_set_good_size`` on the block of H with inner faces
    ``faces``.  A polygon takes the ends of its lowest-id edge, the first
    two vertices of its outer walk (that walk holds one dart of every edge
    and starts at its lowest).  Otherwise the smallest-id ear f is dropped
    from the block, so that its chord becomes an outer edge, and the rest
    gets an even set with the chord's smaller end b in and its larger end
    a out.  Sizes 10 and 14 then also take b's other neighbour on f."""
    cycles, dual, origin = H.cycles, H.dual, H.graph.origin
    if len(faces) == 1:
        d = min(H.graph.faces[faces[0]])
        return frozenset((origin[d], origin[d ^ 1]))

    f = min(g for g in faces if len(dual[g]) == 1)
    ((chord, g),) = dual[f]
    a, b = sorted(origin[2 * chord : 2 * chord + 2], reverse=True)
    dual[g].remove((chord, f))  # H is built for this call: drop the ear in place
    rest = [h for h in faces if h != f]
    B = set(_even_one_per_face_edge(H, rest, a, b, chord, g))
    if len(B) in (10, 14):
        nb1, nb2 = _face_neighbours_of(cycles[f], b)
        B.add(nb1 if nb1 != a else nb2)
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
    just built.  Each step of an outer walk from one B-vertex occurrence to
    the next is an edge drawn in the outer face, at corners (a, b): a is
    the walk dart leaving the first occurrence, b the one leaving the next.
    ``embed._mapped_rotations`` drops every dart of G and inserts these, and
    the graph keeps the rotations of B's vertices; a rotation list starts
    where the vertex's rotation in G does.  The forward dart of a
    component's first edge traces its outer face.

    With ``simple`` the graph is built as ``embed.simplify`` would return
    it, in the same pass; the pipelines colour that graph.  The blocking
    graph of a simple graph need not be simple: a blocking cycle of length
    2 gives a parallel pair, and a step between two occurrences of one
    B-vertex gives a loop.  Such a step gets no edge, so the first edge of
    each endpoint pair is the one kept, as in ``simplify``."""
    hosts = sorted(set(B))
    local = [-1] * G.n  # vertex -> its id in the blocking graph, -1 off B
    for i, x in enumerate(hosts):
        local[x] = i
    k, origin = len(hosts), G.origin
    ends = []  # the blocking graph's origin list
    corners = []
    outer = []
    pairs = set()  # endpoint pairs u < w with an edge, as u * k + w
    for cid in range(len(G.components)):
        f = G.outer_face_of_component(cid)
        if f is None:
            continue
        walk = [d for d in G.faces[f] if local[origin[d]] != -1]
        first = len(ends)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            u, w = local[origin[a]], local[origin[b]]
            if simple:
                key = u * k + w if u < w else w * k + u
                if u == w or key in pairs:
                    continue
                pairs.add(key)
            ends.append(u)
            ends.append(w)
            corners.append((a, b))
        if len(ends) > first:
            outer.append(first)
    dart_map = [-1] * len(origin) + list(range(len(ends)))
    rot = embed._mapped_rotations(G, hosts, dart_map, corners)
    return BlockingGraph(embed.EmbeddedGraph(k, ends, rot, tuple(outer)), tuple(hosts))
