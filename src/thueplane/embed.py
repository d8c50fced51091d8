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

Outside input is checked in one place, :func:`graph_from_json` (behind
``build`` and ``loads_graph``); ``EmbeddedGraph`` trusts its arguments, so
graphs built by the package are not checked again.
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


class EmbeddedGraph:
    """Immutable embedded multigraph.  The constructor does no validation:
    ``edges`` must be integer pairs and ``rotations`` a valid rotation system
    on them.  It raises only what stops it building (an outer dart out of
    range, conflicting outer darts, a face walk that does not close).
    Outside input goes through :func:`graph_from_json` or :func:`build`."""

    def __init__(self, n, edges, rotations, outer_darts=()):
        self.n = n
        self.edges = tuple(edges)
        self.rotations = tuple(tuple(r) for r in rotations)
        self.num_darts = 2 * len(self.edges)

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

    def _validate_euler(self):
        """Euler's formula on every component with an edge: the rotation
        system is planar.  Run by :func:`graph_from_json`."""
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
    """Checked construction from Python values.  ``rotations`` gives, per
    vertex, the ccw cyclic order of incident darts; ``outer_dart`` designates
    the outer face of its component (components not containing it fall back
    to the face of their smallest dart) and is required when there are
    edges.  The arguments are checked exactly as :func:`graph_from_json`
    checks a document."""
    if edge_list and (outer_dart is None or outer_dart == -1):
        raise EmbeddingError("a graph with edges needs an outer_dart designation")
    od = -1 if outer_dart is None else outer_dart
    doc = {"n": vertex_count, "edges": edge_list, "rotations": rotations, "outer_dart": od}
    return graph_from_json(doc)


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


def _validate_structure(n, edges, rotations):
    """Ranges and the rotation system: every endpoint is a vertex, and every
    dart is listed exactly once, at its origin."""
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


def graph_from_json(doc):
    """Graph from its JSON document; the one place outside input is
    checked.  First the shapes: ``n``, every endpoint, every dart and the
    outer darts must be plain integers, every edge a pair.  Then the ranges
    and the rotation system, before construction (face tracing needs a valid
    rotation system); the outer darts while constructing; Euler's formula
    after.  Any failure raises EmbeddingError, never a silently coerced
    graph."""
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
    # type(x) is int: a JSON integer, not a bool, float or string
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and type(e[0]) is type(e[1]) is int):
            raise EmbeddingError(f"malformed graph document: edge {e!r} is not a pair of integers")
    if not (
        isinstance(rotations, (list, tuple))
        and all(isinstance(r, (list, tuple)) for r in rotations)
        and all(type(d) is int for r in rotations for d in r)
    ):
        raise EmbeddingError("malformed graph document: rotations are not lists of integer darts")
    outer = doc.get("outer_darts")
    if outer is None:
        od = doc.get("outer_dart", -1)
        if type(od) is not int or od < -1:
            raise EmbeddingError(f"malformed graph document: outer_dart {od!r} is not a dart or -1")
        outer = [od] if od >= 0 else []
    elif not (isinstance(outer, (list, tuple)) and all(type(d) is int for d in outer)):
        raise EmbeddingError("malformed graph document: outer_darts is not a list of integer darts")
    edges = [tuple(e) for e in edges]
    _validate_structure(n, edges, rotations)
    G = EmbeddedGraph(n, edges, rotations, tuple(outer))
    G._validate_euler()
    return G


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

    # incident edge ids only: a pair per incidence would be 2m more objects
    # for the garbage collector to trace
    edges = G.edges
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


# -- surgery -----------------------------------------------------------------


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


def _dedup_outer(edges, rotations, outer_darts):
    """Keep at most one designated dart per component (the smallest)."""
    if not outer_darts:
        return ()
    find = _union_find(len(rotations), edges)
    best = {}
    for d in sorted(set(outer_darts)):
        best.setdefault(find(edges[d >> 1][d & 1]), d)
    return tuple(sorted(best.values()))


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
    edges = G.edges
    dart = {}  # host dart -> local dart
    new_edges = []
    for e in sorted(edge_ids):
        u, v = edges[e]
        j = 2 * len(new_edges)
        dart[2 * e] = j
        dart[2 * e + 1] = j + 1
        new_edges.append((local[u], local[v]))
    new_rot = [[nd for nd in map(dart.get, G.rotations[x]) if nd is not None] for x in keep]
    face_of, outer_faces = G.face_of, G.outer_faces
    outer = [nd for d, nd in dart.items() if face_of[d] in outer_faces]
    del dart  # the build below is the peak; for simplify the map spans the host
    sub = EmbeddedGraph(len(keep), new_edges, new_rot, _dedup_outer(new_edges, new_rot, outer))
    return sub, local


def induced_embedded_subgraph(G, S):
    """Embedded subgraph induced by vertex set S (see ``_restrict``): the
    outer face of each surviving component is the face holding its
    formerly-outer darts; components with none keep the default designation
    (for a forest component that face is unique).  Returns the subgraph and
    a host -> local vertex map, -1 off S."""
    keep = set(S)
    edge_ids = [e for e, (a, b) in enumerate(G.edges) if a in keep and b in keep]
    sub, local = _restrict(G, keep, edge_ids)
    vmap = [-1] * G.n
    for x, i in local.items():
        vmap[x] = i
    return sub, tuple(vmap)


def simplify(G):
    """Drop loops and collapse parallel bundles to one representative.

    Facial paths, read as vertex sequences, are preserved: in an outerplane
    graph any two parallel edges bound a vertex-free lens and loops carry no
    facial path, so colourings of the result lift back to G.  Returns
    (simple graph, edge map old -> surviving edge id, -1 for loops).  A G
    with no loop and no parallel edge is returned as is, with the identity
    edge map: restricting it to all its edges would rebuild G itself.
    """
    if not is_outerplane(G):
        raise ClassMismatchError("simplify expects an outerplane graph")

    n = G.n
    rep = {}  # endpoint pair a < b, as the int a * n + b -> surviving edge id
    kept = []  # host id of each surviving edge
    emap = []
    for i, (a, b) in enumerate(G.edges):
        if a == b:
            emap.append(-1)
            continue
        key = a * n + b if a < b else b * n + a
        j = rep.get(key)
        if j is None:
            j = rep[key] = len(kept)
            kept.append(i)
        emap.append(j)
    if len(kept) == len(G.edges):
        return G, tuple(emap)
    G2, _ = _restrict(G, range(G.n), kept)
    return G2, tuple(emap)
