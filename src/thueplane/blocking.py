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

The constructions read each block in place in ``_host``, the one block
pass per graph: per graph it builds the inner faces' vertex cycles, the
weak dual, each face's block and the blocks' face lists, and the general
construction walks each component's outer face once.  Per block they
read its faces on v, one top-down pass over its dual, and, for an odd
set, its ears or one breadth-first pass; size control drops an ear from
the dual in place.  A public constructor
checks its input class and vertex ids, then reads its own graph as one
block with the unchecked cores the pipelines call on their blocks.
No construction checks what it builds: the tests check the lemmas'
postconditions, and the pipelines' verifier certifies every colouring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from thueplane import embed
from thueplane.embed import ClassMismatchError


@dataclass(frozen=True, slots=True)
class BlockingGraph:
    graph: embed.EmbeddedGraph
    host_vertex: tuple  # blocking-graph vertex id -> host vertex id


# -- validation ---------------------------------------------------------------


def validate_blocking_set(G, B):
    """Check the definition directly plus the derived observations.
    Returns (ok, list of violated-condition descriptions); a graph that is
    not outerplane has the one violation "graph is not outerplane", as has
    a member that is not a vertex id (a plain int in range)."""
    if not embed.is_outerplane(G):
        return False, ["graph is not outerplane"]
    B = set(B)
    for x in B:
        if type(x) is not int or not 0 <= x < G.n:  # as _check_vertex
            return False, [f"{x!r} is not a vertex id of the graph"]

    violations = []
    origin = G.origin
    blocks, _block_of, cycles, _dual = embed._blocks_and_bridges(G)
    for faces in blocks:
        verts = sorted(set(chain.from_iterable(map(cycles.__getitem__, faces))))
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
    """A simple outerplane graph read face by face: its block pass, made
    once per graph, holds per face its vertex cycle, its chords and its
    block, and per block its inner face ids, ascending; the chords between
    them span the block's weak dual, a tree.  A block is read in place
    through it: nothing is built per block but the construction's set, and
    nothing written but size control's dropped ear."""

    graph: embed.EmbeddedGraph
    blocks: list  # each block's inner face ids, as ``embed._blocks_and_bridges`` returns them
    block_of: list  # face id -> its block's index, -2 on an outer face
    cycles: list  # face id -> vertex cycle (tuple), empty on an outer face
    dual: list  # face id -> (chord, face across it) pairs, by chord id


def _host(G):
    """``_Host`` of the simple outerplane graph G; a chord has inner faces on both sides."""
    return _Host(G, *embed._blocks_and_bridges(G))


def _check_vertex(G, v):
    """ValueError unless v is a vertex id of G: a plain int in range, as ``graph_from_json`` reads ids."""
    if type(v) is not int or not 0 <= v < G.n:
        raise ValueError(f"{v!r} is not a vertex id of the graph")


def _off(cyc, u, w):
    """The smallest vertex of the cycle ``cyc`` other than u and w."""
    if len(cyc) == 3:
        return sum(cyc) - u - w
    s = sorted(cyc)
    return s[0] if s[0] != u and s[0] != w else s[1] if s[1] != u and s[1] != w else s[2]


def _one_per_face(H, faces, v, include, at_v):
    """``blocking_set_biconnected`` on the block of H with inner faces
    ``faces``, ascending, as a set; ``at_v`` lists those on v.  Exclusion
    takes v's smaller neighbour on the block's outer cycle.  The set is read
    top-down from the face the ear peeling leaves (``_root_face``): a face
    whose chord to its parent has neither end in the set adds its smallest
    vertex off it.  Only the face nearest the root among those on a vertex
    can add it, so this reads the set the peels' replay in reverse does."""
    cycles, dual, origin = H.cycles, H.dual, H.graph.origin
    if not include:
        ends = set()
        for f in at_v:  # v's neighbours on its faces; those on a chord come twice
            ends.symmetric_difference_update(_face_neighbours_of(cycles[f], v))
        v = min(ends)
        if len(faces) > 1:
            at_v = [f for f in faces if v in cycles[f]]
    if len(faces) == 1:
        return {v}

    B = {v}
    todo = [(at_v[0] if len(at_v) == 1 else _root_face(dual, faces, at_v), -1)]
    for f, up in todo:  # (face, chord to its parent); grows while it is read
        for e, g in dual[f]:
            if e != up:
                todo.append((g, e))
                u, w = origin[2 * e], origin[2 * e + 1]
                if u not in B and w not in B:
                    B.add(_off(cycles[g], u, w))
    return B


def _root_face(dual, faces, at_v):
    """The face of ``at_v``, the faces on v, nearest in the weak dual on
    ``faces`` to the largest face, ``faces[-1]``: the one left when leaves
    off v or on v's chords are peeled smallest id first.  The faces on v
    form a path, so until one is left every leaf is valid, and the plain
    peel takes each face after those behind it, seen from the largest."""
    top = faces[-1]
    if top in at_v:
        return top
    todo = [(top, -1)]  # (face, chord it was reached across)
    for f, up in todo:  # grows while it is read
        for e, g in dual[f]:
            if g in at_v:
                return g
            if e != up:
                todo.append((g, e))


def blocking_set_biconnected(G, v, include=True):
    """Blocking set with exactly one vertex on every inner face; v is a
    member when ``include`` and excluded otherwise (exclusion forces v's
    smaller-id neighbour on the outer face instead).

    Implemented as ear peeling over the weak dual: repeatedly excise the
    smallest-id ear whose interior avoids v, then replay the peels adding
    the smallest interior vertex whenever the ear's chord is uncovered
    (``_one_per_face``).  ValueError unless v is a vertex id: a plain int
    in range.
    """
    _require_biconnected_outerplane(G)
    _check_vertex(G, v)
    H, faces = _host(G), G.inner_faces()
    return frozenset(_one_per_face(H, faces, v, include, [f for f in faces if v in H.cycles[f]]))


def _face_neighbours_of(cyc, x):
    i = cyc.index(x)
    return cyc[i - 1], cyc[i + 1 - len(cyc)]


def _smaller_other(p, q, u, w):
    """The smaller of p and q that is neither u nor w (one of them is not)."""
    return q if p == u or p == w else p if q == u or q == w or p < q else q


def _beside_b_vertex(H, f, B, e):
    """The smaller neighbour on face f of f's one B vertex that is not an
    end of edge e."""
    cyc = H.cycles[f]
    (x,) = B.intersection(cyc)
    return _smaller_other(*_face_neighbours_of(cyc, x), H.graph.origin[2 * e], H.graph.origin[2 * e + 1])


def _evenize(H, faces, B1, ref, root_face, ab_edge=None):
    """Add one vertex to an odd one-per-face blocking set B1, in place, so
    the blocking graph becomes an even cycle; returns B1.

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
        B1.add(_smaller_other(*_face_neighbours_of(cycles[faces[0]], u0), ref, ref))
        return B1

    # Case 1: the first ear with four or more vertices; failing that,
    # Case 2: the first triangular ear with a chord end already in the set
    third = None
    for f in faces:  # ascending
        if len(dual[f]) != 1 or (ab_edge is not None and f == root_face):
            continue
        cyc = cycles[f]
        ((e, _g),) = dual[f]
        u, w = origin[2 * e], origin[2 * e + 1]
        if len(cyc) > 3:
            if ab_edge is None and ref in cyc and ref != u and ref != w:
                continue
            B1.add(_beside_b_vertex(H, f, B1, e))
            return B1
        if third is None and (u in B1 or w in B1) and (ab_edge is not None or sum(cyc) - u - w != ref):
            third = sum(cyc) - u - w
    if third is not None:
        B1.add(third)
        return B1

    # Case 3: root the dual, take an internal face F whose children are all
    # deepest leaves, and pick inside the star around it
    up = {root_face: None}  # face -> (chord to its parent, parent)
    level = [root_face]
    while level:  # one depth of the dual at a time, by chord id within a face
        deepest = level
        level = []
        for f in deepest:
            for e, g in dual[f]:
                if g not in up:
                    up[g] = (e, f)
                    level.append(g)
    F = min(up[g][1] for g in deepest)

    if F == root_face:
        if ab_edge is not None:
            uw = ab_edge
        else:
            # the star around the root is the root and all its children
            chords_of_F = {c for c, _g in dual[F]}
            uw = min(
                e for e in (d >> 1 for d in H.graph.faces[F])
                if ref in origin[2 * e : 2 * e + 2] and 1 + len(dual[F]) - (e in chords_of_F) >= 2
            )
    else:
        uw = up[F][0]
    B1.add(_beside_b_vertex(H, F, B1, uw))
    return B1


def _even_one_per_face(H, faces, v, include):
    """``blocking_set_even_biconnected`` on the block of H with inner faces
    ``faces``, ascending, as a set."""
    at_v = faces if len(faces) == 1 else [f for f in faces if v in H.cycles[f]]
    B1 = _one_per_face(H, faces, v, include, at_v)
    if len(B1) % 2 == 0:
        return B1
    return _evenize(H, faces, B1, v, at_v[0])


def blocking_set_even_biconnected(G, v, include=True):
    """Blocking set of a biconnected outerplane graph whose blocking graph
    is a single even cycle, with v included or excluded on request."""
    _require_biconnected_outerplane(G)
    _check_vertex(G, v)
    return frozenset(_even_one_per_face(_host(G), G.inner_faces(), v, include))


def blocking_set_even_biconnected_edge(G, a, b):
    """Even-cycle blocking set with a excluded and b included, for an edge
    ab on the outer face."""
    _require_biconnected_outerplane(G)
    _check_vertex(G, a)
    _check_vertex(G, b)
    origin = G.origin
    ab = [d for d in G.faces[G.outer_face] if {origin[d], origin[d ^ 1]} == {a, b}]
    if not ab:
        raise ClassMismatchError("ab must be an edge on the outer face")
    H = _host(G)
    return frozenset(_even_one_per_face_edge(H, G.inner_faces(), a, b, ab[0] >> 1, G.face_of[ab[0] ^ 1]))


def _even_one_per_face_edge(H, faces, a, b, ab_edge, root):
    """``blocking_set_even_biconnected_edge`` on the block of H with inner
    faces ``faces``, ascending, as a set; ``root`` is the inner face on the
    outer edge ``ab_edge``."""
    B1 = _one_per_face(H, faces, b, True, [f for f in faces if b in H.cycles[f]])
    if len(B1) % 2 == 0:
        return B1
    return _evenize(H, faces, B1, a, root, ab_edge=ab_edge)


def _even_blocking_over_blocks(G):
    """Every 2-connected component gets an even-cycle blocking set that
    includes its shared cut class exactly when an earlier block (or a
    bridge) selected it, in one pass over each component's outer walk.

    A component's root is its smallest vertex on a block, in that block.
    The walk from the root's outer dart into a block meets each block first
    at the vertex joining it to the blocks met before (the walk runs round
    the block-cut tree), so that vertex is its entry, included when it is
    selected already.  Bridge-connected vertices form one class: the walk
    crosses a bridge out of a class after the class's first block has
    decided it, so the far end takes the near end's state, and a later
    block meets a class only at its entry.  Per block it builds only the
    core's set."""
    H = _host(G)
    origin, face_of, block_of = G.origin, G.face_of, H.block_of
    B = set()
    done = bytearray(len(H.blocks))
    for cid, comp in enumerate(G.components):
        f = G.outer_face_of_component(cid)
        # the outer darts that run along a block, from the smallest vertex
        starts = ((x, d) for x in comp for d in G.rotations[x]
                  if face_of[d] == f and block_of[face_of[d ^ 1]] >= 0)
        a, d0 = next(starts, (None, None))
        if a is None:  # no block in this component
            continue
        B.add(a)  # a root block includes its smallest vertex
        walk = G.faces[f]
        i = walk.index(d0)
        for d in walk[i:] + walk[:i]:
            b = block_of[face_of[d ^ 1]]
            if b < 0:  # a bridge: its far end is in the near end's class
                if origin[d] in B:
                    B.add(origin[d ^ 1])
            elif not done[b]:
                done[b] = 1
                v = origin[d]  # the block's entry
                B |= _even_one_per_face(H, H.blocks[b], v, v in B)
    return frozenset(B)


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
    return frozenset(_good_size(_host(G), G.inner_faces()))


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
        return {origin[d], origin[d ^ 1]}

    f = next(g for g in faces if len(dual[g]) == 1)
    ((chord, g),) = dual[f]
    a, b = sorted(origin[2 * chord : 2 * chord + 2], reverse=True)
    dual[g].remove((chord, f))  # H is built for this call: drop the ear in place
    rest = [h for h in faces if h != f]
    B = _even_one_per_face_edge(H, rest, a, b, chord, g)
    if len(B) in (10, 14):
        nb1, nb2 = _face_neighbours_of(cycles[f], b)
        B.add(nb1 if nb1 != a else nb2)
    return B


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
