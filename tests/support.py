"""Helpers only the tests use: the chords and the 2-connected components
of an outerplane graph, the Hopcroft-Tarjan DFS that is the oracle
for the outer-walk block decomposition, a block's edges read off its
inner faces, the auxiliary-graph trace that is the oracle for the run
reading of the cactus colouring, the rebuild-per-vertex plane
generator that is the oracle for the face-splitting one, embedding surgery
(the dart of an edge at a vertex, restriction to a vertex and edge subset
with one outer dart per component, the simplification built on it that is
the oracle for ``embed.simplify``, induced subgraphs, ears, edge
contraction, in-face edge insertion, relabelled and mirrored copies) and
the weak dual, the per-layer graphs of an augmented plane graph, the
alternating-block decomposition of the outerplane proof, levelling
predicates, the palindrome check, every path of a tree, the brute-force
facial-path oracle, the good-size blocking set
built on copies, blocking-graph predicates and parsing, and the command
line run in process."""

import contextlib
import io
import re
from dataclasses import dataclass

from thueplane import cli, colour, embed
from thueplane.blocking import (
    BlockingGraph,
    _even_one_per_face,
    _face_neighbours_of,
    _host,
    _require_biconnected_outerplane,
    blocking_set_even_biconnected_edge,
)
from thueplane.embed import (
    ClassMismatchError,
    EmbeddedGraph,
    EmbeddingError,
    _blocks_and_bridges,
    bridges,
    _chords,
    _require_simple_outerplane,
    is_outerplane,
)
from thueplane.gen import _Builder, _rng
from thueplane.kernels import cyclic_square
from thueplane.verify import _canonical
from thueplane.words import EXCEPTIONAL_CYCLE_LENGTHS, cycle_colouring, ternary_nonrepetitive


# -- embed ---------------------------------------------------------------------


def edge_pairs(G):
    """The ends of every edge of G by edge id: edge e runs from
    ``G.origin[2e]`` to ``G.origin[2e + 1]``."""
    return list(zip(G.origin[::2], G.origin[1::2]))


def blocks_and_bridges_dfs(G):
    """Iterative Hopcroft-Tarjan block decomposition, the oracle for
    ``embed._blocks_and_bridges`` (which reads blocks off the weak dual);
    it takes any graph.

    Returns (blocks, bridges): blocks as (vertex tuple, edge tuple).  Parent
    edges are tracked by id so parallel edges are never bridges; loops are
    ignored.
    """
    n = G.n
    disc = [-1] * n
    low = [0] * n
    timer = 0
    blocks = []
    bridge_list = []
    edge_stack = []

    # incident edge ids only: a pair per incidence would be 2m more objects
    # for the garbage collector to trace
    edges = edge_pairs(G)
    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if u == v:
            continue
        incident[u].append(e)
        incident[v].append(e)

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # (vertex, parent edge, iterator over its incidences): the loop
        # resumes a vertex's iterator after each child returns
        stack = [(root, -1, iter(incident[root]))]
        while stack:
            v, pe, it = stack[-1]
            dv = disc[v]
            for e in it:
                if e == pe:
                    continue
                a, b = edges[e]
                w = a + b - v  # the other end; loops were skipped
                dw = disc[w]
                if dw == -1:
                    edge_stack.append(e)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, e, iter(incident[w])))
                    break
                if dw < dv:
                    edge_stack.append(e)
                    if dw < low[v]:
                        low[v] = dw
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    bedges = []
                    while True:
                        e = edge_stack.pop()
                        bedges.append(e)
                        if e == pe:
                            break
                    verts = set()
                    for e in bedges:
                        verts.update(edges[e])
                    blocks.append((tuple(sorted(verts)), tuple(sorted(bedges))))
                    if len(bedges) == 1:
                        bridge_list.append(bedges[0])
    return blocks, sorted(bridge_list)


def chords(G):
    """Edge ids, ascending, not incident to an outer face: the chords of
    an outerplane graph; ClassMismatchError on any other graph."""
    if not is_outerplane(G):
        raise ClassMismatchError("chords are defined for outerplane graphs")
    return _chords(G)


def biconnected_components(G):
    """Vertex sets of the 2-connected components (blocks on >= 3 vertices)
    of an outerplane graph, ascending; ClassMismatchError on any other
    graph."""
    if not is_outerplane(G):
        raise ClassMismatchError("biconnected components are read off outerplane graphs")
    return [vs for vs, _fs in blocks_with_vertices(G) if len(vs) >= 3]


def blocks_with_vertices(G):
    """The blocks ``embed._blocks_and_bridges`` reads, each as (its
    vertices, ascending; its inner faces), in the order of their two
    smallest vertices (two blocks share at most one).  A dual component
    bounded by loops alone, on one vertex, is no block."""
    blocks, _block_of, cycles, _dual = _blocks_and_bridges(G)
    found = [(tuple(sorted({x for f in fs for x in cycles[f]})), fs) for fs in blocks]
    return sorted(b for b in found if len(b[0]) > 1)


def block_edges(G, faces):
    """Ascending edge ids of the block with inner faces ``faces``: the
    non-loop edges of those faces."""
    origin = G.origin
    return tuple(sorted({d >> 1 for f in faces for d in G.faces[f] if origin[d] != origin[d ^ 1]}))


def dart_of(G, e, at):
    """The dart of edge e that leaves vertex ``at``."""
    for d in (2 * e, 2 * e + 1):
        if G.origin[d] == at:
            return d
    raise EmbeddingError(f"vertex {at} is not an endpoint of edge {e}")


def _union_find(n, pairs):
    """``find`` of the union-find over 0..n-1 that joins every pair."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return find


def _dedup_outer(origin, rotations, outer_darts):
    """Keep at most one designated dart per component (the smallest) of
    the graph with dart origins ``origin``."""
    if not outer_darts:
        return ()
    find = _union_find(len(rotations), zip(origin[::2], origin[1::2]))
    best = {}
    for d in sorted(set(outer_darts)):
        best.setdefault(find(origin[d]), d)
    return tuple(sorted(best.values()))


def transform(G, rng, mirror):
    """A copy of G drawn the same way under new names: the vertices
    relabelled, the edges reordered and each reversed at random, every
    rotation started at a random dart and, with ``mirror``, every rotation
    reversed (the mirror image).  The outer darts are carried along; in the
    mirror image a face is traced through the twins of its darts, in
    reverse, so an outer dart d carries over as the image of its twin.
    Returns the copy and its vertex map: G's vertex v is the copy's
    ``vert[v]``."""
    vert = list(range(G.n))
    rng.shuffle(vert)
    m = len(G.origin) >> 1
    order = list(range(m))
    rng.shuffle(order)
    dart = [0] * (2 * m)
    origin = [0] * (2 * m)
    for e, (u, w) in enumerate(edge_pairs(G)):
        d = 2 * order[e] + rng.randrange(2)  # its low bit reverses the edge
        dart[2 * e], dart[2 * e + 1] = d, d ^ 1
        origin[d], origin[d ^ 1] = vert[u], vert[w]
    rot = [None] * G.n
    for v, r in enumerate(G.rotations):
        k = rng.randrange(len(r)) if r else 0
        r = [dart[d] for d in r[k:] + r[:k]]
        rot[vert[v]] = r[::-1] if mirror else r
    outer = tuple(dart[d ^ 1] if mirror else dart[d] for d in G.canonical_outer_darts())
    return EmbeddedGraph(G.n, origin, rot, outer), vert


def _restrict(G, verts, edge_ids):
    """Embedded subgraph of G on the vertices ``verts`` and the edges
    ``edge_ids`` (each with both ends in ``verts``), in time proportional to
    what it keeps.  Local ids follow host order.  Each rotation is G's
    restricted to the kept darts; a kept dart whose face in G is outer is a
    candidate outer dart, and each component keeps its smallest candidate
    (one with none keeps the default designation).  Returns the subgraph and
    a host -> local vertex dict."""
    keep = sorted(verts)
    local = {x: i for i, x in enumerate(keep)}
    origin = G.origin
    dart = {}  # host dart -> local dart
    new_origin = []
    for e in sorted(edge_ids):
        j = len(new_origin)
        dart[2 * e] = j
        dart[2 * e + 1] = j + 1
        new_origin += (local[origin[2 * e]], local[origin[2 * e + 1]])
    new_rot = [[nd for nd in map(dart.get, G.rotations[x]) if nd is not None] for x in keep]
    face_of, outer_faces = G.face_of, G.outer_faces
    outer = [nd for d, nd in dart.items() if face_of[d] in outer_faces]
    del dart  # the build below is the peak; for simplify the map spans the host
    sub = EmbeddedGraph(len(keep), new_origin, new_rot, _dedup_outer(new_origin, new_rot, outer))
    return sub, local


def simplify_by_restriction(G):
    """``embed.simplify`` as a restriction of G to the first edge of each
    endpoint pair, with one outer dart kept per component: the oracle for
    the one-sweep build, which passes every kept outer dart."""
    if not is_outerplane(G):
        raise ClassMismatchError("input is not outerplane")

    n = G.n
    rep = {}  # endpoint pair a < b, as the int a * n + b -> surviving edge id
    kept = []  # host id of each surviving edge
    emap = []
    for i, (a, b) in enumerate(edge_pairs(G)):
        if a == b:
            emap.append(-1)
            continue
        key = a * n + b if a < b else b * n + a
        j = rep.get(key)
        if j is None:
            j = rep[key] = len(kept)
            kept.append(i)
        emap.append(j)
    if len(kept) == len(emap):
        return G, tuple(emap)
    G2, _ = _restrict(G, range(G.n), kept)
    return G2, tuple(emap)


# -- colour --------------------------------------------------------------------


def distinct_segment_edges(W, members):
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


def trace_h_component(h_adj, x0):
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


def auxiliary_components_oracle(W, H):
    """The auxiliary graph on the deepest-vertex set H as the cactus
    colouring once built it, as adjacency lists from the outer walk W, and
    traced per component; the oracle for ``colour._auxiliary_runs``.
    Returns one (order, word, is cycle) per component, components by
    smallest member."""
    h_adj = {x: [] for x in H}
    for u, w in distinct_segment_edges(W, H):
        h_adj[u].append(w)
        h_adj[w].append(u)
    assert all(len(nb) <= 2 for nb in h_adj.values()), "auxiliary graph is not paths/cycle"
    out = []
    seen = set()
    for x0 in sorted(H):
        if x0 in seen:
            continue
        comp = trace_h_component(h_adj, x0)
        seen.update(comp["vertices"])
        m = len(comp["order"])
        if comp["cycle"]:
            word = (0, 1) if m == 2 else cycle_colouring(m)
        else:
            word = ternary_nonrepetitive(m)
        out.append((comp["order"], word, comp["cycle"]))
    return out


def induced_embedded_subgraph(G, S):
    """Embedded subgraph induced by vertex set S (see ``_restrict``):
    the outer face of each surviving component is the face holding its
    formerly-outer darts; components with none keep the default designation
    (for a forest component that face is unique).  Returns the subgraph and
    a host -> local vertex map, -1 off S."""
    keep = set(S)
    edge_ids = [e for e, (a, b) in enumerate(edge_pairs(G)) if a in keep and b in keep]
    sub, local = _restrict(G, keep, edge_ids)
    vmap = [-1] * G.n
    for x, i in local.items():
        vmap[x] = i
    return sub, tuple(vmap)


def ears(G):
    """Inner faces incident to exactly one chord, with that chord."""
    _require_simple_outerplane(G)
    per_face = {}
    for e in chords(G):
        for d in (2 * e, 2 * e + 1):
            per_face.setdefault(G.face_of[d], []).append(e)
    out = []
    for f in G.inner_faces():
        cs = per_face.get(f, [])
        if len(cs) == 1:
            out.append((f, cs[0]))
    return sorted(out)


@dataclass(frozen=True)
class WeakDual:
    """Forest on the inner faces of an outerplane graph; one edge per chord."""

    nodes: tuple
    edges: tuple  # (face_f, face_g, chord_edge_id)

    def adjacency(self):
        adj = {f: [] for f in self.nodes}
        for f, g, c in self.edges:
            adj[f].append((g, c))
            adj[g].append((f, c))
        return adj


def weak_dual(G):
    """Forest on inner faces: edge f-g for every chord shared by f and g."""
    _require_simple_outerplane(G)
    nodes = tuple(G.inner_faces())
    dual_edges = []
    for e in chords(G):
        f, g = G.face_of[2 * e], G.face_of[2 * e + 1]
        dual_edges.append((min(f, g), max(f, g), e))
    dual = WeakDual(nodes, tuple(sorted(dual_edges)))
    # acyclicity: every dual component must satisfy edges = nodes - 1 at most
    seen = set()
    adj = dual.adjacency()
    for start in nodes:
        if start in seen:
            continue
        comp_nodes = 0
        comp_edge_ends = 0
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp_nodes += 1
            for y, _ in adj[x]:
                comp_edge_ends += 1
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if comp_edge_ends // 2 >= comp_nodes:
            raise EmbeddingError("weak dual contains a cycle; embedding is not outerplane")
    return dual


def block_subgraphs(G):
    """(vertices, embedded subgraph, vertex map) for every block on >= 3
    vertices; the subgraph inherits the embedding and outer face."""
    out = []
    for vs in biconnected_components(G):
        sub, vmap = induced_embedded_subgraph(G, vs)
        out.append((vs, sub, vmap))
    return out


def contract_edge(G, e):
    """Contract a non-loop edge, merging rotations in embedding order.
    Returns (new graph, vertex map old->new)."""
    u, v = edge_pairs(G)[e]
    if u == v:
        raise EmbeddingError("cannot contract a loop")
    keep, gone = (u, v) if u < v else (v, u)

    vmap = [0] * G.n
    for x in range(G.n):
        if x == gone:
            vmap[x] = keep
        else:
            vmap[x] = x - 1 if x > gone else x

    new_origin = []
    emap = {}
    for i, (a, b) in enumerate(edge_pairs(G)):
        if i == e:
            continue
        emap[i] = len(new_origin) >> 1
        new_origin += (vmap[a], vmap[b])

    def dmap(d):
        i, side = divmod(d, 2)
        return None if i == e else 2 * emap[i] + side

    d_keep = dart_of(G, e, keep)
    d_gone = d_keep ^ 1

    rot_gone = list(G.rotations[gone])
    j = rot_gone.index(d_gone)
    spliced = rot_gone[j + 1 :] + rot_gone[:j]

    merged = []
    for d in G.rotations[keep]:
        if d == d_keep:
            merged.extend(spliced)
        else:
            merged.append(d)

    new_rot = []
    for x in range(G.n):
        if x == gone:
            continue
        src = merged if x == keep else G.rotations[x]
        new_rot.append([dmap(d) for d in src if dmap(d) is not None])

    outer = []
    for f in G.outer_faces:
        outer.extend(dmap(d) for d in G.faces[f] if dmap(d) is not None)
    G2 = EmbeddedGraph(G.n - 1, new_origin, new_rot, _dedup_outer(new_origin, new_rot, outer))
    return G2, tuple(vmap)


def add_edge_in_face(G, u, w, f, u_pos=None, w_pos=None):
    """Insert edge u-w embedded inside face f, splitting it in two.

    ``u_pos``/``w_pos`` pick which occurrences on f's walk to use when a
    vertex appears several times (walk positions; defaults: first
    occurrence).  Parallel edges are allowed, as is a loop inserted at a
    single corner (u == w with equal positions), which encloses an empty
    face.
    """
    walk = G.faces[f]
    verts = G.face_vertices(f)

    def occurrence(x, pos):
        occ = [i for i, vv in enumerate(verts) if vv == x]
        if not occ:
            raise EmbeddingError(f"vertex {x} is not on face {f}")
        if pos is None:
            return occ[0]
        if pos not in occ:
            raise EmbeddingError(f"position {pos} is not an occurrence of vertex {x} on face {f}")
        return pos

    iu = occurrence(u, u_pos)
    iw = occurrence(w, w_pos)
    if iu == iw and u != w:
        raise EmbeddingError("u_pos and w_pos name the same corner")

    du, dw = len(G.origin), len(G.origin) + 1
    new_origin = G.origin + (u, w)

    # corner i of the walk sits just before walk[i] in origin(walk[i])'s rotation
    inserts = {}
    if iu == iw:
        inserts[iu] = [dw, du]
    else:
        inserts[iu] = [du]
        inserts[iw] = [dw]

    new_rot = [list(r) for r in G.rotations]
    for i, ds in inserts.items():
        anchor = walk[i]
        rot = new_rot[G.origin[anchor]]
        j = rot.index(anchor)
        rot[j:j] = ds

    outer = [G.faces[g][0] for g in G.outer_faces]
    return EmbeddedGraph(G.n, new_origin, new_rot, _dedup_outer(new_origin, new_rot, outer))


# -- gen ---------------------------------------------------------------------


def gen_plane_rebuild(spec, rng=None):
    """The plane generator that rebuilds the graph and re-traces every face
    after each inserted vertex, Θ(n²); the oracle for ``gen._gen_plane``,
    which must give the same bytes for every spec."""
    rng = rng or _rng(spec)
    b = _Builder()
    v0 = b.new_vertex()
    if spec.n == 1:
        return b.finish_outerplane()
    if spec.n == 2:
        b.new_vertex()
        b.add_edge(0, 1)
        return b.finish_outerplane()
    b.add_polygon_block(v0, 3, [])
    G = b.finish_outerplane()
    while G.n < spec.n:
        inner = G.inner_faces()
        f = inner[rng.randrange(len(inner))]
        walk = G.faces[f]
        verts = G.face_vertices(f)
        first_occ = []
        seen = set()
        for i, x in enumerate(verts):
            if x not in seen:
                seen.add(x)
                first_occ.append(i)
        dv = len(first_occ)
        k = rng.randint(2, dv)
        s = rng.randrange(dv)
        corners = sorted(first_occ[(s + t) % dv] for t in range(k))

        z = G.n
        base = len(G.origin)  # the first new dart
        new_origin = G.origin + tuple(x for p in corners for x in (z, verts[p]))
        new_rot = [list(r) for r in G.rotations]
        new_rot.append([base + 2 * t for t in reversed(range(k))])
        for t, p in enumerate(corners):
            anchor = walk[p]
            rot = new_rot[G.origin[anchor]]
            j = rot.index(anchor)
            rot.insert(j, base + 2 * t + 1)
        outer = [G.faces[g][0] for g in G.outer_faces]
        G = embed.EmbeddedGraph(G.n + 1, new_origin, new_rot, tuple(outer))
    return G


# -- colour --------------------------------------------------------------------


def layers_graph(G):
    """The one graph of all peeling layers that ``colour_plane`` colours,
    built as ``colour_plane`` builds it."""
    layer, level = colour._peel(G)
    return embed._same_layer_graph(G, layer, colour._augmentation(G, layer, level, True), level)


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

    ends = [[] for _ in range(k)]  # per layer, its graph's origin list
    dart_map = [-1] * len(G.origin)
    n = G.n
    pairs = set()  # endpoint pairs u < w with an edge, as u * n + w
    for e, (u, w) in enumerate(edge_pairs(G)):
        i = layer[u]
        if layer[w] == i and u != w:
            key = u * n + w if u < w else w * n + u
            if key in pairs:
                continue
            pairs.add(key)
            j = len(ends[i])
            ends[i] += (local[u], local[w])
            dart_map[2 * e] = j
            dart_map[2 * e + 1] = j + 1

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
        outer_i = _dedup_outer(ends[i], rot, outer[i])
        out.append((tuple(ids[i]), embed.EmbeddedGraph(len(ids[i]), ends[i], rot, outer_i)))
    return out



def interleave_check_decomposition(P, B):
    """Split a vertex sequence into the alternating form
    A_0, B_1, A_1, ..., B_k, A_k with the B_i the maximal runs inside B and
    the A_i (possibly empty) runs outside it."""
    B = set(B)
    blocks = [()]
    in_b = False
    for v in P:
        if (v in B) == in_b:
            blocks[-1] = blocks[-1] + (v,)
        else:
            in_b = not in_b
            blocks.append((v,))
    if in_b:
        blocks.append(())
    return blocks


# -- words ---------------------------------------------------------------------


_SQUARE_AT_START = re.compile(r"(.+)\1")


def has_cyclic_repetition(seq):
    """True when some contiguous cyclic arc of length <= len(seq) contains a
    repetition (arcs are the paths of a cycle graph), by
    ``kernels.cyclic_square``."""
    return cyclic_square(list(seq)) is not None


def cycle_alphabet_size(n):
    return 4 if n in EXCEPTIONAL_CYCLE_LENGTHS else 3


def exact_cycle_word(n):
    """The lexicographically least word of length n over
    ``cycle_alphabet_size(n)`` symbols with no square on any arc of the
    cycle: depth first over every position, a partial word ending in a
    square is cut and a full word is accepted when
    ``has_cyclic_repetition`` finds none.  Exponential in practice; the
    oracle for the table ``words.cycle_colouring`` reads up to n = 64."""
    symbols = "0123"[: cycle_alphabet_size(n)]

    def extend(rev):  # the partial word, reversed: its squares at the end start rev
        if len(rev) == n:
            word = tuple(map(int, reversed(rev)))
            return None if has_cyclic_repetition(word) else word
        for c in symbols:
            if not _SQUARE_AT_START.match(c + rev):
                word = extend(c + rev)
                if word is not None:
                    return word
        return None

    return extend("")


def adjacency(G):
    """Per vertex, its neighbours ascending, one per incident dart."""
    return [sorted(G.origin[d ^ 1] for d in G.rotations[v]) for v in range(G.n)]


def levelling_ok(adj, levels):
    """Adjacent vertices of the adjacency lists ``adj`` differ by at most
    one level."""
    if len(levels) != len(adj):
        return False
    if any(l < 0 for l in levels):
        return False
    for v, nbs in enumerate(adj):
        for w in nbs:
            if abs(levels[v] - levels[w]) > 1:
                return False
    return True


def level_pattern(path, levels):
    """Level sequence of a vertex path."""
    return tuple(levels[v] for v in path)


def is_palindrome_free(seq):
    """No block of length >= 2 equals its own reverse.  Any palindrome of
    length >= 2 contains a centre xx or xyx, so checking those suffices."""
    seq = list(seq)
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1]:
            return False
    for i in range(len(seq) - 2):
        if seq[i] == seq[i + 2]:
            return False
    return True


def all_tree_paths(T):
    """Every path of the tree T with at least two vertices, once, as a
    vertex list from its larger end v to its smaller end u: one
    breadth-first parent array per u."""
    n = T.n
    adj = adjacency(T)
    for u in range(n):
        parent = [-2] * n
        parent[u] = -1
        order = [u]
        for v in order:  # grows while it is read
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    order.append(w)
        for v in range(u + 1, n):
            path = [v]
            x = v
            while x != u:
                x = parent[x]
                path.append(x)
            yield path


# -- verify --------------------------------------------------------------------


def naive_facial_paths(G):
    """Independent oracle: enumerate the distinct-vertex walks of the graph
    by DFS and keep those occurring contiguously in some facial walk."""
    window_sets = []
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        L = len(verts)
        wins = set()
        for start in range(L):
            for length in range(1, L + 1):
                wins.add(tuple(verts[(start + k) % L] for k in range(length)))
        window_sets.append(wins)

    adj = [sorted(set(nb)) for nb in adjacency(G)]
    out = set()

    def grow(path, used):
        t = tuple(path)
        for f, wins in enumerate(window_sets):
            if t in wins:
                out.add((f, _canonical(t)))
        for w in adj[path[-1]]:
            if w not in used:
                used.add(w)
                path.append(w)
                grow(path, used)
                path.pop()
                used.remove(w)

    for v in range(G.n):
        grow([v], {v})
    return out


# -- blocking ------------------------------------------------------------------


def is_bridgeless_cactus(G):
    """Outerplane, chordless, and no edge with both darts on one face."""
    if not embed.is_outerplane(G):
        return False
    for e in range(len(G.origin) >> 1):
        d0, d1 = 2 * e, 2 * e + 1
        if not G.is_outer_face(G.face_of[d0]) and not G.is_outer_face(G.face_of[d1]):
            return False  # chord
        if G.face_of[d0] == G.face_of[d1]:
            return False  # bridge
    return True


def even_blocking_by_block_queue(G):
    """The even blocking set of the simple outerplane graph G as a queue
    over the block-cut tree builds it, the reference for
    ``blocking._even_blocking_over_blocks``, which meets the blocks round
    the outer walks instead.  Bridge-connected vertices form one class.
    The first block not yet met, in the order of ``blocks_with_vertices``,
    includes its smallest vertex; a block queues every unmet block sharing
    a class with it, which enters at its vertex in that class, included
    when the class is selected, and a class is selected with any of its
    vertices."""
    H, origin = _host(G), G.origin
    bridge_ends = [(origin[2 * e], origin[2 * e + 1]) for e in bridges(G)]
    find = _union_find(G.n, bridge_ends)
    cls = [find(x) for x in range(G.n)]
    blocks = blocks_with_vertices(G)
    of_class = {}
    for bid, (verts, _faces) in enumerate(blocks):
        for x in verts:
            of_class.setdefault(cls[x], []).append(bid)
    selected, met = set(), set()
    for start in range(len(blocks)):
        if start in met:
            continue
        met.add(start)
        selected.add(cls[blocks[start][0][0]])
        queue = [(start, blocks[start][0][0])]
        for bid, v in queue:
            verts, faces = blocks[bid]
            selected.update(cls[x] for x in _even_one_per_face(H, faces, v, cls[v] in selected))
            for x in verts:
                for nb in of_class[cls[x]]:
                    if nb not in met:
                        met.add(nb)
                        queue.append((nb, next(y for y in blocks[nb][0] if cls[y] == cls[x])))
    return frozenset(x for x in range(G.n) if cls[x] in selected)


def good_size_by_copies(G):
    """Reference for ``blocking_set_good_size``: the construction on copies
    of G.  A polygon takes the first two vertices of its outer walk.
    Otherwise the smallest ear is cut off by copying G without the ear's
    interior, the public edge variant runs on the copy with the chord's
    smaller end in and its larger end out, and sizes 10 and 14 take the
    smaller end's other neighbour on the ear."""
    _require_biconnected_outerplane(G)
    if len(G.inner_faces()) == 1:
        W = embed.outer_walk(G, G.comp_of[0])
        return frozenset({W[0], W[1]})
    f, chord = ears(G)[0]
    p, q = edge_pairs(G)[chord]
    b_in, a_out = (p, q) if p < q else (q, p)
    interior = [x for x in G.face_vertices(f) if x != p and x != q]
    keep = sorted(set(range(G.n)) - set(interior))
    sub, vmap = induced_embedded_subgraph(G, keep)
    back = {vmap[x]: x for x in keep}
    B = {back[x] for x in blocking_set_even_biconnected_edge(sub, vmap[a_out], vmap[b_in])}
    if len(B) in (10, 14):
        nb1, nb2 = _face_neighbours_of(G.face_vertices(f), b_in)
        B.add(nb1 if nb1 != a_out else nb2)
    if len(B) in EXCEPTIONAL_CYCLE_LENGTHS:
        raise AssertionError("good-size construction hit an exceptional size")
    return frozenset(B)


def blocking_graph_to_json(bg):
    doc = embed.graph_to_json(bg.graph)
    doc["host_vertex"] = list(bg.host_vertex)
    return doc


def blocking_graph_from_json(doc):
    host = tuple(doc["host_vertex"])
    return BlockingGraph(embed.graph_from_json(doc), host)


# -- cli -----------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args):
    """Run ``thueplane ARGS`` in process: its exit code and what it wrote
    to stdout and stderr.  An exception that escapes the command is raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue(), err.getvalue())
