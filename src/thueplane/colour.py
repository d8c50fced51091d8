"""Facial nonrepetitive colouring pipelines.

Bounds produced here: even cacti get at most 7 colours, outerplane graphs
at most 11 (4 tree colours + 7 cactus colours for the blocking graph),
outerplane graphs with a single 2-connected component at most 7, and plane
graphs at most 22 via the peeling layering (11 per layer parity).

Every public pipeline has one shape: check the input class, run an
unchecked core, and certify the result once with the independent verifier
(``_checked``).  Cores call cores, never a public pipeline, so no
intermediate colouring is verified again.  A verification failure signals a
bug, never a valid outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from thueplane import blocking, embed, verify
from thueplane.embed import ClassMismatchError
from thueplane.words import (
    EXCEPTIONAL_CYCLE_LENGTHS,
    bfs_levels,
    cycle_colouring,
    palindrome_free_nonrepetitive,
    ternary_nonrepetitive,
    tree_colouring,  # noqa: F401  bound here: perfbench's tracer test reads colour.tree_colouring
)


class VerificationBugError(RuntimeError):
    """A pipeline produced a colouring its own verifier rejects."""


@dataclass(frozen=True)
class Colouring:
    colours: tuple  # vertex id -> colour in 1..palette_max
    palette_max: int
    verified: bool = True

    def distinct_colours(self):
        return len(set(self.colours))

    def to_json(self):
        return {
            "colours": list(self.colours),
            "palette_max": self.palette_max,
            "verified": self.verified,
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def colouring_from_json(doc):
    """Colouring from its JSON document: ``colours`` a list of plain
    non-negative integers (the verifier's alphabet), ``palette_max`` a plain
    integer and the optional ``verified`` a bool.  Anything else raises
    ValueError, never a coerced value."""
    if not isinstance(doc, dict):
        raise ValueError("malformed colouring document: not a JSON object")
    try:
        colours, palette_max = doc["colours"], doc["palette_max"]
    except KeyError as exc:
        raise ValueError(f"malformed colouring document: missing {exc}") from exc
    verified = doc.get("verified", False)
    if not isinstance(colours, (list, tuple)) or not all(
        type(c) is int and c >= 0 for c in colours
    ):
        raise ValueError("malformed colouring document: colours are not non-negative integers")
    if type(palette_max) is not int:
        raise ValueError(f"malformed colouring document: palette_max {palette_max!r} is not an integer")
    if type(verified) is not bool:
        raise ValueError(f"malformed colouring document: verified {verified!r} is not a boolean")
    return Colouring(tuple(colours), palette_max, verified)


@dataclass(frozen=True)
class PeelingLayering:
    layer: tuple  # vertex id -> layer index

    def layer_sets(self):
        if not self.layer:
            return []
        out = [[] for _ in range(max(self.layer) + 1)]
        for v, i in enumerate(self.layer):
            out[i].append(v)
        return [tuple(s) for s in out]


def _checked(G, colours, palette_max):
    bad = verify.verify_facial_nonrepetitive(G, colours)
    if bad is not None:
        raise VerificationBugError(
            f"pipeline colouring failed verification on face {bad.face}: {bad.vertices}"
        )
    return Colouring(tuple(colours), palette_max)


# -- even cacti ---------------------------------------------------------------


def _colour_cycle_component(G, comp, cid, colours):
    W = embed.outer_walk(G, cid)
    word = cycle_colouring(len(W))
    for i, x in enumerate(W):
        colours[x] = word[i] + 1


def _distinct_segment_edges(W, members):
    """Edges of the auxiliary graph on ``members``: one edge per pair of
    cyclically consecutive member occurrences of the walk W whose connecting
    walk segment is a path (all vertices distinct), i.e. an outer facial
    path free of other members."""
    L = len(W)
    occ = [i for i in range(L) if W[i] in members]
    m = len(occ)
    edges = []
    if m <= 1:
        return edges
    for j in range(m):
        i0, i1 = occ[j], occ[(j + 1) % m]
        seg = [W[i0]]
        k = i0
        while k != i1:
            k = (k + 1) % L
            seg.append(W[k])
        if len(set(seg)) == len(seg):
            edges.append((W[i0], W[i1]))
    return edges


def _colour_cactus_component(G, comp, cid, colours):
    """Colour one cactus component; returns the internals (deepest-vertex
    set and levelling) so tests can probe the construction."""
    local = {x: i for i, x in enumerate(comp)}
    degs = {x: G.degree(x) for x in comp}
    n_edges = sum(degs.values()) // 2

    if n_edges == len(comp) - 1:
        _colour_forest(G, comp, colours)
        return set(), {}
    if all(d == 2 for d in degs.values()) and n_edges == len(comp):
        _colour_cycle_component(G, comp, cid, colours)
        return set(), {}

    # root: a degree-1 vertex if any, else a vertex of degree >= 3
    deg1 = [x for x in comp if degs[x] == 1]
    root = min(deg1) if deg1 else min(x for x in comp if degs[x] >= 3)

    adj = [[local[w] for w in sorted(G.neighbours(x))] for x in comp]
    lev_local = bfs_levels(adj, local[root])
    lam = {x: lev_local[local[x]] for x in comp}

    comp_faces = [
        f for f in G.inner_faces() if G.comp_of[G.origin[G.faces[f][0]]] == cid
    ]

    H = set()
    for f in comp_faces:
        cyc = G.face_vertices(f)
        deepest = max(cyc, key=lambda x: (lam[x], x))
        others = [x for x in cyc if x != deepest]
        if all(lam[x] < lam[deepest] for x in others) and degs[deepest] == 2:
            H.add(deepest)

    if degs[root] != 1 and len(H) in EXCEPTIONAL_CYCLE_LENGTHS:
        stars = [
            f for f in comp_faces
            if sum(1 for x in G.face_vertices(f) if degs[x] > 2) == 1
        ]
        if not stars:
            raise VerificationBugError("no single-attachment face in a rooted even cactus")
        fstar = min(stars)
        cyc = G.face_vertices(fstar)
        b = max(cyc, key=lambda x: (lam[x], x))
        i = cyc.index(b)
        nb1, nb2 = cyc[i - 1], cyc[(i + 1) % len(cyc)]
        patch_count = len(H)
        H.add(min(nb1, nb2))
        if patch_count == 9:
            H.add(max(nb1, nb2))

    if H:
        W = embed.outer_walk(G, cid)
        h_edges = _distinct_segment_edges(W, H)
        h_adj = {x: [] for x in H}
        for u, w in h_edges:
            h_adj[u].append(w)
            h_adj[w].append(u)
        if any(len(nb) > 2 for nb in h_adj.values()):
            raise VerificationBugError("auxiliary deepest-vertex graph is not paths/cycle")
        seen = set()
        for x0 in sorted(H):
            if x0 in seen:
                continue
            compH = _trace_h_component(h_adj, x0)
            seen.update(compH["vertices"])
            if compH["cycle"]:
                order = compH["order"]
                m = len(order)
                word = (0, 1) if m == 2 else cycle_colouring(m)
                if len(set(word)) > 3:
                    raise VerificationBugError("auxiliary cycle needed four symbols")
                for i, x in enumerate(order):
                    colours[x] = word[i] + 1
            else:
                order = compH["order"]
                word = ternary_nonrepetitive(len(order))
                for i, x in enumerate(order):
                    colours[x] = word[i] + 1

    word = palindrome_free_nonrepetitive(max(lam.values()) + 1)
    for x in comp:
        if x not in H:
            colours[x] = 4 + word[lam[x]]
    return H, lam


def _trace_h_component(h_adj, x0):
    """Walk a path or cycle component of the auxiliary graph from x0."""
    comp = {x0}
    frontier = [x0]
    while frontier:
        x = frontier.pop()
        for y in h_adj[x]:
            if y not in comp:
                comp.add(y)
                frontier.append(y)
    deg_ends = [x for x in sorted(comp) if len(h_adj[x]) <= 1]
    edge_count = sum(len(h_adj[x]) for x in comp) // 2
    is_cycle = not deg_ends and edge_count >= len(comp)
    if is_cycle:
        start = min(comp)
        order = [start]
        prev = None
        cur = start
        while True:
            nxts = [y for y in h_adj[cur] if y != prev] or h_adj[cur][:1]
            nxt = nxts[0]
            if nxt == start:
                break
            order.append(nxt)
            prev, cur = cur, nxt
        return {"vertices": comp, "cycle": True, "order": order}
    start = deg_ends[0] if deg_ends else min(comp)
    order = [start]
    prev = None
    cur = start
    while True:
        nxts = [y for y in h_adj[cur] if y != prev]
        if not nxts:
            break
        order.append(nxts[0])
        prev, cur = cur, nxts[0]
    return {"vertices": comp, "cycle": False, "order": order}


def _colour_cactus_core(Gs):
    """Colour values over {1..7} for a simple even cactus; verification is
    the caller's job."""
    colours = [None] * Gs.n
    for cid, comp in enumerate(Gs.components):
        _colour_cactus_component(Gs, comp, cid, colours)
    return colours


def colour_cactus_even(G):
    """Facially nonrepetitive colouring of a cactus whose cycles are all
    even, over at most 7 colours: deepest degree-2 vertices of the cycles
    (plus the exceptional-length patch) over {1,2,3}, everything else by
    breadth-first level through a palindrome-free word over {4,5,6,7}."""
    if not embed.is_outerplane(G):
        raise ClassMismatchError("input is not a cactus (not outerplane)")
    Gs, _ = embed.simplify(G)
    if embed.chords(Gs):
        raise ClassMismatchError("input is not a cactus (it has chords)")
    for f in Gs.inner_faces():
        if len(Gs.faces[f]) % 2 == 1:
            raise ClassMismatchError("cactus has an odd cycle")
    return _checked(G, _colour_cactus_core(Gs), 7)


# -- outerplane ---------------------------------------------------------------


def _colour_forest(G, rest, colours):
    """Tree-colour every component of G[rest] (each must be a tree) over
    {1..4}: breadth-first levels from the component's smallest vertex,
    indexed into one palindrome-free nonrepetitive word, as
    ``words.tree_colouring`` colours each tree.  The word of a shallower
    tree is a prefix of the word made here for the deepest level."""
    rest_set = set(rest)
    rotations, origin = G.rotations, G.origin
    level = {}
    for x0 in sorted(rest):
        if x0 in level:
            continue
        k = level[x0] = 0
        frontier = [x0]
        while frontier:
            k += 1
            nxt = []
            for x in frontier:
                for d in rotations[x]:
                    w = origin[d ^ 1]
                    if w in rest_set and w not in level:
                        level[w] = k
                        nxt.append(w)
            frontier = nxt
    if level:
        word = palindrome_free_nonrepetitive(max(level.values()) + 1)
        for x, k in level.items():
            colours[x] = 1 + word[k]


def _colour_outerplane_core(G):
    """Colour values over {1..11} for a (multigraph) outerplane input;
    verification is the caller's job."""
    Gs, _ = embed.simplify(G)
    colours = [None] * Gs.n
    # Gs is simple and outerplane, so the unchecked core of
    # blocking_set_even applies
    B = blocking._even_blocking_over_blocks(Gs)
    if B:
        bg = blocking._blocking_graph(Gs, B, simple=True)
        sub = _colour_cactus_core(bg.graph)
        for i, host in enumerate(bg.host_vertex):
            colours[host] = 4 + sub[i]
    _colour_forest(Gs, [x for x in range(Gs.n) if x not in B], colours)
    return colours


def colour_outerplane(G):
    """Facially nonrepetitive colouring of an outerplane multigraph with at
    most 11 colours: an even blocking set's blocking graph is cactus-coloured
    over {5..11} and the remaining forest over {1..4}."""
    if not embed.is_outerplane(G):
        raise ClassMismatchError("input is not outerplane")
    return _checked(G, _colour_outerplane_core(G), 11)


def colour_outerplane_single_block(G):
    """At most 7 colours for an outerplane graph with at most one
    2-connected component: a blocking set of non-exceptional size makes the
    blocking cycle 3-colourable over {5,6,7}; trees take {1,2,3,4}."""
    if not embed.is_outerplane(G):
        raise ClassMismatchError("input is not outerplane")
    Gs, _ = embed.simplify(G)
    blocks = embed.biconnected_components(Gs)
    if len(blocks) > 1:
        raise ClassMismatchError("graph has more than one 2-connected component")

    colours = [None] * Gs.n
    if blocks:
        vs = blocks[0]
        sub, vmap = embed.induced_embedded_subgraph(Gs, vs)
        back = {vmap[x]: x for x in vs}
        B = frozenset(back[x] for x in blocking.blocking_set_good_size(sub))
        bg = blocking._blocking_graph(Gs, B, simple=True)
        core = bg.graph
        if len(core.edges) == 1:
            u, w = core.edges[0]
            local_cols = {u: 5, w: 6}
        else:
            W = embed.outer_walk(core, 0)
            word = cycle_colouring(len(W))
            if len(set(word)) > 3:
                raise VerificationBugError("blocking cycle required four symbols")
            local_cols = {x: word[i] + 5 for i, x in enumerate(W)}
        for i, host in enumerate(bg.host_vertex):
            colours[host] = local_cols[i]
        rest = [x for x in range(Gs.n) if x not in B]
    else:
        rest = list(range(Gs.n))
    _colour_forest(Gs, rest, colours)
    return _checked(G, colours, 7)


# -- plane graphs -------------------------------------------------------------


def peeling_layering(G):
    """Layer index per vertex: layer 0 holds the outer-face vertices, layer
    i the outer-face vertices once layers below are removed.

    One breadth-first search over the vertex-face incidence graph (Baker,
    J. ACM 1994), from the outer face of every component: a vertex first
    met on a level-k face is in layer k, and a face first met at a layer-k
    vertex has level k + 1.  Vertices without darts are in layer 0."""
    origin, face_of, faces, rotations = G.origin, G.face_of, G.faces, G.rotations
    layer = [-1] * G.n
    level = [-1] * len(faces)
    queue = sorted(G.outer_faces)
    for f in queue:
        level[f] = 0
    for f in queue:
        k = level[f]
        for d in faces[f]:
            v = origin[d]
            if layer[v] != -1:
                continue
            layer[v] = k
            for d2 in rotations[v]:
                g = face_of[d2]
                if level[g] == -1:
                    level[g] = k + 1
                    queue.append(g)
    return PeelingLayering(tuple(0 if i == -1 else i for i in layer))


def layer_graphs(G, layer):
    """Per layer i of ``layer`` (a peeling layering of G), the sorted vertex
    ids of layer i and the simple embedded graph they induce, built in one
    sweep over G's edges.

    The sweep drops same-layer loops and keeps the first (lowest-id) edge of
    each endpoint pair, the edge ``embed.simplify`` keeps, so each layer is
    exactly ``simplify`` of the multigraph the layer induces.  Collapsing is
    safe because every vertex of a layer lies on the layer's outer face: two
    parallel edges of a layer bound a lens with no layer vertex inside, so
    they carry the same facial paths, and a loop carries none.

    Each rotation is G's restricted to the kept edges.  A dart of a kept
    layer-i edge is a candidate outer dart when its face in G is an outer
    face (i = 0) or holds a vertex of a lower layer; each component keeps its
    smallest candidate.  These are the darts that peeling layers 0..i-1 off
    G leaves on the outer faces of what remains."""
    k = max(layer) + 1 if layer else 0
    ids = [[] for _ in range(k)]
    local = [0] * G.n
    for v, i in enumerate(layer):
        local[v] = len(ids[i])
        ids[i].append(v)

    edges = [[] for _ in range(k)]
    dart_map = [-1] * G.num_darts
    n = G.n
    pairs = set()  # endpoint pairs u < w with an edge, as u * n + w
    for e, (u, w) in enumerate(G.edges):
        i = layer[u]
        if layer[w] == i and u != w:
            key = u * n + w if u < w else w * n + u
            if key in pairs:
                continue
            pairs.add(key)
            j = len(edges[i])
            edges[i].append((local[u], local[w]))
            dart_map[2 * e] = 2 * j
            dart_map[2 * e + 1] = 2 * j + 1

    origin, face_of = G.origin, G.face_of
    face_min = [min(layer[origin[d]] for d in walk) for walk in G.faces]
    outer = [[] for _ in range(k)]
    for d, nd in enumerate(dart_map):
        if nd == -1:
            continue
        i = layer[origin[d]]
        f = face_of[d]
        if face_min[f] < i or (i == 0 and f in G.outer_faces):
            outer[i].append(nd)

    out = []
    for i in range(k):
        rot = [[dart_map[d] for d in G.rotations[v] if dart_map[d] != -1] for v in ids[i]]
        outer_i = embed._dedup_outer(edges[i], rot, outer[i])
        out.append((tuple(ids[i]), embed.EmbeddedGraph(len(ids[i]), edges[i], rot, outer_i)))
    return out


def _augment(G, layer):
    """``augment_plus`` for a graph whose peeling layering is ``layer``."""
    new_edges = list(G.edges)
    # darts are inserted at a face corner just before the corner's walk
    # dart; each corner takes its occurrence's incoming dart then outgoing
    corner_in = {}
    corner_out = {}

    for f in sorted(G.inner_faces()):
        walk = G.faces[f]
        verts = G.face_vertices(f)
        L = len(verts)
        lmin = min(layer[x] for x in verts)
        if any(layer[x] not in (lmin, lmin + 1) for x in verts):
            raise VerificationBugError("inner face spans more than two peeling layers")
        occ = [i for i in range(L) if layer[verts[i]] == lmin]
        m = len(occ)
        if m < 2:
            continue
        for j in range(m):
            p, q = occ[j], occ[(j + 1) % m]
            u, w = verts[p], verts[q]
            if u == w:
                continue
            e = len(new_edges)
            new_edges.append((u, w))
            corner_out[walk[p]] = 2 * e
            corner_in[walk[q]] = 2 * e + 1

    new_rot = [list(r) for r in G.rotations]
    for anchor in sorted(set(corner_in) | set(corner_out)):
        ds = []
        if anchor in corner_in:
            ds.append(corner_in[anchor])
        if anchor in corner_out:
            ds.append(corner_out[anchor])
        rot = new_rot[G.origin[anchor]]
        j = rot.index(anchor)
        rot[j:j] = ds

    outer = [G.faces[f][0] for f in G.outer_faces]
    return embed.EmbeddedGraph(G.n, new_edges, new_rot, embed._dedup_outer(new_edges, new_rot, outer))


def augment_plus(G):
    """Add, inside every inner face, an edge between each pair of cyclically
    consecutive same-layer occurrences of the face walk (the lower of the
    two layers the walk touches).  The layer sets are unchanged and each
    layer's induced subgraph becomes outerplane."""
    return _augment(G, peeling_layering(G).layer)


def colour_plane(G):
    """Facially nonrepetitive colouring of any plane graph with at most 22
    colours: augment, split into peeling layers, colour each layer's
    outerplane graph with {1..11} on even layers and {12..22} on odd ones."""
    layer = peeling_layering(G).layer
    colours = [None] * G.n
    for i, (layer_ids, layer_graph) in enumerate(layer_graphs(_augment(G, layer), layer)):
        # O(layer), and without it a construction bug would surface as the
        # core's ClassMismatchError, an input error, instead of a bug
        if not embed.is_outerplane(layer_graph):
            raise VerificationBugError("peeled layer graph is not outerplane")
        vals = _colour_outerplane_core(layer_graph)
        base = 0 if i % 2 == 0 else 11
        for local, orig in enumerate(layer_ids):
            colours[orig] = base + vals[local]
    return _checked(G, colours, 22)
