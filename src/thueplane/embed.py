"""Plane multigraphs as rotation systems.

A graph is stored as a list of edges plus, per vertex, the counterclockwise
cyclic order of its incident darts (directed half-edges).  Dart 2*i is edge i
oriented u->v, dart 2*i+1 is its twin.  Faces are the orbits of the
face-tracing map d -> rotation_next(twin(d)); with counterclockwise
rotations every face is traced with its region to the right of each dart.

Loops and parallel edges are allowed.  The outer face is a designation, not
a geometric computation: one face per dart-bearing connected component is
flagged as outer.  Vertices, edges, darts and faces are dense integer ids
and every derived structure is computed in index order, so identical input
always yields identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class EmbeddingError(ValueError):
    """Malformed rotation system or illegal surgery."""


class ClassMismatchError(ValueError):
    """Graph does not belong to the class an operation requires."""


@dataclass(frozen=True)
class FaceWalk:
    face: int
    darts: tuple
    vertices: tuple
    is_outer: bool

    def __len__(self):
        return len(self.darts)


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


class EmbeddedGraph:
    """Immutable embedded multigraph.  Use :func:`build` to construct one
    with full validation."""

    def __init__(self, n, edges, rotations, outer_darts=(), validate=True):
        self.n = n
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        self.rotations = tuple(tuple(r) for r in rotations)
        self.num_darts = 2 * len(self.edges)

        if validate:
            self._validate_structure()

        m = self.num_darts
        origin = [0] * m
        for i, (u, v) in enumerate(self.edges):
            origin[2 * i] = u
            origin[2 * i + 1] = v
        self.origin = origin

        rot_next = [0] * m
        for rot in self.rotations:
            k = len(rot)
            for j, d in enumerate(rot):
                rot_next[d] = rot[(j + 1) % k]
        self.rot_next = rot_next

        # faces: orbits of d -> rot_next[twin(d)], canonical start = min dart
        face_of = [-1] * m
        faces = []
        for d0 in range(m):
            if face_of[d0] != -1:
                continue
            walk = []
            d = d0
            while face_of[d] == -1:
                face_of[d] = len(faces)
                walk.append(d)
                d = rot_next[d ^ 1]
            if d != d0:
                raise EmbeddingError("face tracing did not close; bad rotation system")
            faces.append(tuple(walk))
        self.faces = tuple(faces)
        self.face_of = face_of

        # connected components (isolated vertices are their own)
        comp_of = [-1] * n
        comps = []
        for v0 in range(n):
            if comp_of[v0] != -1:
                continue
            cid = len(comps)
            stack = [v0]
            comp_of[v0] = cid
            members = []
            while stack:
                v = stack.pop()
                members.append(v)
                for d in self.rotations[v]:
                    w = origin[d ^ 1]
                    if comp_of[w] == -1:
                        comp_of[w] = cid
                        stack.append(w)
            comps.append(tuple(sorted(members)))
        self.components = tuple(comps)
        self.comp_of = comp_of

        # outer face designation, one per dart-bearing component
        outer = {}
        for d in outer_darts:
            if not (0 <= d < m):
                raise EmbeddingError(f"outer dart {d} out of range")
            c = comp_of[origin[d]]
            f = face_of[d]
            if c in outer and outer[c] != f:
                raise EmbeddingError("conflicting outer darts for one component")
            outer[c] = f
        mindart = [m] * len(comps)
        for d in range(m):
            c = comp_of[origin[d]]
            if d < mindart[c]:
                mindart[c] = d
        for cid in range(len(comps)):
            if cid not in outer and mindart[cid] < m:
                outer[cid] = face_of[mindart[cid]]
        self._outer_by_comp = outer
        self.outer_faces = frozenset(outer.values())

        if validate:
            self._validate_euler()

    # -- validation ----------------------------------------------------

    def _validate_structure(self):
        n, edges, rotations = self.n, self.edges, self.rotations
        if n < 0:
            raise EmbeddingError("negative vertex count")
        if len(rotations) != n:
            raise EmbeddingError("rotations must list every vertex")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EmbeddingError(f"edge endpoint out of range: ({u}, {v})")
        m = 2 * len(edges)
        seen = [False] * m
        for v, rot in enumerate(rotations):
            for d in rot:
                if not (0 <= d < m):
                    raise EmbeddingError(f"dart {d} out of range")
                if seen[d]:
                    raise EmbeddingError(f"dart {d} listed twice")
                seen[d] = True
                e, side = divmod(d, 2)
                if edges[e][side] != v:
                    raise EmbeddingError(
                        f"dart {d} listed at vertex {v}, but its origin is {edges[e][side]}"
                    )
        if not all(seen):
            raise EmbeddingError("some dart missing from the rotations")

    def _validate_euler(self):
        ncomp = len(self.components)
        e_count = [0] * ncomp
        f_count = [0] * ncomp
        for u, _v in self.edges:
            e_count[self.comp_of[u]] += 1
        for walk in self.faces:
            f_count[self.comp_of[self.origin[walk[0]]]] += 1
        for cid, members in enumerate(self.components):
            if e_count[cid] == 0:
                continue
            if len(members) - e_count[cid] + f_count[cid] != 2:
                raise EmbeddingError(
                    f"Euler check failed on component {cid}: "
                    f"V={len(members)} E={e_count[cid]} F={f_count[cid]}"
                )

    # -- basic queries ---------------------------------------------------

    @property
    def outer_face(self):
        return min(self.outer_faces) if self.outer_faces else None

    def is_outer_face(self, f):
        return f in self.outer_faces

    def outer_face_of_component(self, cid):
        return self._outer_by_comp.get(cid)

    def face_vertices(self, f):
        return tuple(self.origin[d] for d in self.faces[f])

    def inner_faces(self):
        return [f for f in range(len(self.faces)) if f not in self.outer_faces]

    def degree(self, v):
        return len(self.rotations[v])

    def neighbours(self, v):
        return [self.origin[d ^ 1] for d in self.rotations[v]]

    def dart_of(self, e, at):
        u, v = self.edges[e]
        if at == u:
            return 2 * e
        if at == v:
            return 2 * e + 1
        raise EmbeddingError(f"vertex {at} is not an endpoint of edge {e}")

    def canonical_outer_darts(self):
        return tuple(sorted(self.faces[f][0] for f in self.outer_faces))

    def __repr__(self):
        return f"EmbeddedGraph(n={self.n}, edges={len(self.edges)}, faces={len(self.faces)})"


def build(vertex_count, edge_list, rotations, outer_dart=None):
    """Validated construction.  ``rotations`` gives, per vertex, the ccw
    cyclic order of incident darts; ``outer_dart`` designates the outer face
    of its component (components not containing it fall back to the face of
    their smallest dart)."""
    outer = () if outer_dart is None or outer_dart < 0 else (outer_dart,)
    if edge_list and not outer:
        raise EmbeddingError("a graph with edges needs an outer_dart designation")
    return EmbeddedGraph(vertex_count, edge_list, rotations, outer, validate=True)


# -- JSON interchange ------------------------------------------------------


def graph_to_json(G):
    outer = G.canonical_outer_darts()
    doc = {
        "n": G.n,
        "edges": [list(e) for e in G.edges],
        "rotations": [list(r) for r in G.rotations],
        "outer_dart": outer[0] if outer else -1,
    }
    if len(outer) > 1:
        doc["outer_darts"] = list(outer)
    return doc


def _int_list(x):
    # type(d) is int: a JSON integer, not a bool, float or string
    return isinstance(x, (list, tuple)) and all(type(d) is int for d in x)


def graph_from_json(doc):
    """Graph from its JSON document.  One pass over the edges and darts
    checks the shapes: ``n``, every endpoint, every dart and the outer darts
    must be plain integers, every edge a pair.  ``EmbeddedGraph`` then checks
    ranges and the rotation system.  Any failure raises EmbeddingError,
    never a silently coerced graph."""
    if not isinstance(doc, dict):
        raise EmbeddingError("malformed graph document: not a JSON object")
    try:
        n, edges, rotations = doc["n"], doc["edges"], doc["rotations"]
    except KeyError as exc:
        raise EmbeddingError(f"malformed graph document: missing {exc}") from exc
    if type(n) is not int:
        raise EmbeddingError(f"malformed graph document: n {n!r} is not an integer")
    if not isinstance(edges, (list, tuple)):
        raise EmbeddingError("malformed graph document: edges is not a list")
    for e in edges:
        if not (_int_list(e) and len(e) == 2):
            raise EmbeddingError(f"malformed graph document: edge {e!r} is not a pair of integers")
    if not isinstance(rotations, (list, tuple)) or not all(_int_list(r) for r in rotations):
        raise EmbeddingError("malformed graph document: rotations are not lists of integer darts")
    outer = doc.get("outer_darts")
    if outer is None:
        od = doc.get("outer_dart", -1)
        if type(od) is not int or od < -1:
            raise EmbeddingError(f"malformed graph document: outer_dart {od!r} is not a dart or -1")
        outer = [od] if od >= 0 else []
    elif not _int_list(outer):
        raise EmbeddingError("malformed graph document: outer_darts is not a list of integer darts")
    return EmbeddedGraph(n, [tuple(e) for e in edges], rotations, tuple(outer), validate=True)


def dumps_graph(G):
    return json.dumps(graph_to_json(G), sort_keys=True, separators=(",", ":"))


def loads_graph(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise EmbeddingError(f"invalid JSON: {exc}") from exc
    return graph_from_json(doc)


# -- face / outerplane queries ----------------------------------------------


def face_walks(G):
    """Every face as a FaceWalk; the dart walks partition the darts."""
    return [
        FaceWalk(f, G.faces[f], G.face_vertices(f), G.is_outer_face(f))
        for f in range(len(G.faces))
    ]


def is_outerplane(G):
    """True iff every vertex lies on the outer face of its component."""
    on_outer = [False] * G.n
    for f in G.outer_faces:
        for d in G.faces[f]:
            on_outer[G.origin[d]] = True
    for v in range(G.n):
        if not on_outer[v] and G.rotations[v]:
            return False
    return True


def outer_walk(G, component=0):
    """Cyclic vertex sequence of the outer facial walk of a component."""
    f = G.outer_face_of_component(component)
    if f is None:
        return ()
    return G.face_vertices(f)


def chords(G):
    """Edges not incident to the outer face.  Requires an outerplane graph."""
    if not is_outerplane(G):
        raise ClassMismatchError("chords are defined for outerplane graphs")
    out = []
    for e in range(len(G.edges)):
        if not G.is_outer_face(G.face_of[2 * e]) and not G.is_outer_face(G.face_of[2 * e + 1]):
            out.append(e)
    return out


def _require_simple_outerplane(G):
    if not is_outerplane(G):
        raise ClassMismatchError("operation requires an outerplane graph")
    seen = set()
    for u, v in G.edges:
        if u == v:
            raise ClassMismatchError("operation requires a simple graph (loop found)")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ClassMismatchError("operation requires a simple graph (parallel edges found)")
        seen.add(key)


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


# -- connectivity ------------------------------------------------------------


def _blocks_and_bridges(G):
    """Iterative Hopcroft-Tarjan block decomposition.

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

    incident = [[] for _ in range(n)]
    for e, (u, v) in enumerate(G.edges):
        if u == v:
            continue
        incident[u].append((e, v))
        incident[v].append((e, u))

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [[root, -1, 0]]
        while stack:
            v, pe, idx = stack[-1]
            if idx < len(incident[v]):
                stack[-1][2] = idx + 1
                e, w = incident[v][idx]
                if e == pe:
                    continue
                if disc[w] == -1:
                    edge_stack.append(e)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, e, 0])
                elif disc[w] < disc[v]:
                    edge_stack.append(e)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
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
                        verts.add(G.edges[e][0])
                        verts.add(G.edges[e][1])
                    blocks.append((tuple(sorted(verts)), tuple(sorted(bedges))))
                    if len(bedges) == 1:
                        bridge_list.append(bedges[0])
    return blocks, sorted(bridge_list)


def biconnected_components(G):
    """Vertex sets of the 2-connected components (blocks on >= 3 vertices)."""
    blocks, _ = _blocks_and_bridges(G)
    return sorted(vs for vs, es in blocks if len(vs) >= 3)


def bridges(G):
    """Edge ids whose removal disconnects their component."""
    _, br = _blocks_and_bridges(G)
    return br


def block_subgraphs(G):
    """(vertices, embedded subgraph, vertex map) for every block on >= 3
    vertices; the subgraph inherits the embedding and outer face."""
    out = []
    for vs in biconnected_components(G):
        sub, vmap = induced_embedded_subgraph(G, vs)
        out.append((vs, sub, vmap))
    return out


# -- surgery -----------------------------------------------------------------


def _dedup_outer(edges, rotations, outer_darts):
    """Keep at most one designated dart per component (the smallest)."""
    if not outer_darts:
        return ()
    n = len(rotations)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    origin_of = {}
    for i, (u, v) in enumerate(edges):
        origin_of[2 * i] = u
        origin_of[2 * i + 1] = v
    best = {}
    for d in sorted(set(outer_darts)):
        c = find(origin_of[d])
        best.setdefault(c, d)
    return tuple(sorted(best.values()))


def contract_edge(G, e):
    """Contract a non-loop edge, merging rotations in embedding order.
    Returns (new graph, vertex map old->new)."""
    u, v = G.edges[e]
    if u == v:
        raise EmbeddingError("cannot contract a loop")
    keep, gone = (u, v) if u < v else (v, u)

    vmap = [0] * G.n
    for x in range(G.n):
        if x == gone:
            vmap[x] = keep
        else:
            vmap[x] = x - 1 if x > gone else x

    new_edges = []
    emap = {}
    for i, (a, b) in enumerate(G.edges):
        if i == e:
            continue
        emap[i] = len(new_edges)
        new_edges.append((vmap[a], vmap[b]))

    def dmap(d):
        i, side = divmod(d, 2)
        return None if i == e else 2 * emap[i] + side

    d_keep = G.dart_of(e, keep)
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
    G2 = EmbeddedGraph(G.n - 1, new_edges, new_rot, _dedup_outer(new_edges, new_rot, outer))
    return G2, tuple(vmap)


def _induced(G, S):
    keep = sorted(set(S))
    vmap = [-1] * G.n
    for i, x in enumerate(keep):
        vmap[x] = i

    new_edges = []
    emap = {}
    for i, (a, b) in enumerate(G.edges):
        if vmap[a] != -1 and vmap[b] != -1:
            emap[i] = len(new_edges)
            new_edges.append((vmap[a], vmap[b]))

    dart_map = [-1] * G.num_darts
    for i, j in emap.items():
        dart_map[2 * i] = 2 * j
        dart_map[2 * i + 1] = 2 * j + 1

    new_rot = []
    for x in keep:
        new_rot.append([dart_map[d] for d in G.rotations[x] if dart_map[d] != -1])
    return keep, new_edges, new_rot, tuple(vmap), dart_map


def _subgraph_from_block(G, verts, edge_ids):
    """Embedded subgraph spanned by a known vertex/edge set, in time
    proportional to the block, not the host graph.  Returns the subgraph
    and a host->local vertex dict; the outer face is the one holding the
    formerly-outer darts."""
    keep = sorted(verts)
    local = {x: i for i, x in enumerate(keep)}
    emap = {}
    new_edges = []
    for e in sorted(edge_ids):
        u, v = G.edges[e]
        emap[e] = len(new_edges)
        new_edges.append((local[u], local[v]))
    new_rot = []
    for x in keep:
        r = []
        for d in G.rotations[x]:
            j = emap.get(d >> 1)
            if j is not None:
                r.append(2 * j + (d & 1))
        new_rot.append(r)
    outer = []
    for e in emap:
        for d in (2 * e, 2 * e + 1):
            if G.face_of[d] in G.outer_faces:
                outer.append(2 * emap[e] + (d & 1))
    sub = EmbeddedGraph(len(keep), new_edges, new_rot, (min(outer),) if outer else ())
    return sub, local


def induced_embedded_subgraph(G, S):
    """Embedded subgraph induced by vertex set S, with rotations restricted
    to surviving darts.  The outer face of each surviving component is the
    face holding its formerly-outer darts; components with none keep the
    default designation (for a forest component that face is unique)."""
    keep, new_edges, new_rot, vmap, dart_map = _induced(G, S)
    outer = []
    for f in G.outer_faces:
        outer.extend(dart_map[d] for d in G.faces[f] if dart_map[d] != -1)
    sub = EmbeddedGraph(len(keep), new_edges, new_rot, _dedup_outer(new_edges, new_rot, outer))
    return sub, vmap


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

    m = len(G.edges)
    du, dw = 2 * m, 2 * m + 1
    new_edges = list(G.edges) + [(u, w)]

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
    return EmbeddedGraph(G.n, new_edges, new_rot, _dedup_outer(new_edges, new_rot, outer))


def simplify(G):
    """Drop loops and collapse parallel bundles to one representative.

    Facial paths, read as vertex sequences, are preserved: in an outerplane
    graph any two parallel edges bound a vertex-free lens and loops carry no
    facial path, so colourings of the result lift back to G.  Returns
    (simple graph, edge map old -> surviving edge id, -1 for loops).
    """
    if not is_outerplane(G):
        raise ClassMismatchError("simplify expects an outerplane graph")

    rep = {}
    keep_edge = [False] * len(G.edges)
    for i, (a, b) in enumerate(G.edges):
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key not in rep:
            rep[key] = i
            keep_edge[i] = True

    renum = {}
    new_edges = []
    for i, (a, b) in enumerate(G.edges):
        if keep_edge[i]:
            renum[i] = len(new_edges)
            new_edges.append((a, b))

    emap = []
    for i, (a, b) in enumerate(G.edges):
        if a == b:
            emap.append(-1)
        else:
            key = (a, b) if a < b else (b, a)
            emap.append(renum[rep[key]])

    dart_map = [-1] * G.num_darts
    for i in range(len(G.edges)):
        if keep_edge[i]:
            dart_map[2 * i] = 2 * renum[i]
            dart_map[2 * i + 1] = 2 * renum[i] + 1

    new_rot = [[dart_map[d] for d in r if dart_map[d] != -1] for r in G.rotations]

    outer = []
    for f in G.outer_faces:
        outer.extend(dart_map[d] for d in G.faces[f] if dart_map[d] != -1)
    G2 = EmbeddedGraph(G.n, new_edges, new_rot, _dedup_outer(new_edges, new_rot, outer))
    return G2, tuple(emap)
