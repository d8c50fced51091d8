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


class EmbeddingError(ValueError):
    """Malformed rotation system or illegal surgery."""


class ClassMismatchError(ValueError):
    """Graph does not belong to the class an operation requires."""


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
        self.origin = origin = [x for e in self.edges for x in e]
        m = len(origin)

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

        rot_next = [0] * m
        for rot in self.rotations:
            prev = rot[-1] if rot else 0
            for d in rot:
                rot_next[prev], prev = d, d

        # faces: orbits of d -> rot_next[twin(d)], numbered by smallest dart;
        # a component's first face is its outer face unless an outer dart names another
        outer = [None] * len(comps)
        face_of = [-1] * m
        faces = []
        for d0 in range(m):
            if face_of[d0] != -1:
                continue
            c = comp_of[origin[d0]]
            if outer[c] is None:
                outer[c] = len(faces)
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

        given = {}  # component -> the face its outer darts designate
        for d in outer_darts:
            if not (0 <= d < m):
                raise EmbeddingError(f"outer dart {d} out of range")
            if given.setdefault(comp_of[origin[d]], face_of[d]) != face_of[d]:
                raise EmbeddingError("conflicting outer darts for one component")
        for c, f in given.items():
            outer[c] = f
        self._outer_by_comp = outer  # per component, None for an isolated vertex
        self.outer_faces = frozenset(f for f in outer if f is not None)

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
        return self._outer_by_comp[cid]

    def face_vertices(self, f):
        return tuple(self.origin[d] for d in self.faces[f])

    def inner_faces(self):
        return [f for f in range(len(self.faces)) if f not in self.outer_faces]

    def degree(self, v):
        return len(self.rotations[v])

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


def graph_from_json(doc):
    """Graph from its JSON document; the one place outside input is
    checked.  One loop over ``edges`` checks that each is a pair of plain
    integers, both vertices, and one loop over ``rotations`` that each is a
    list of plain integer darts, every dart listed once, at its origin.  The
    outer darts, plain integers, are checked while constructing (face
    tracing needs a valid rotation system), Euler's formula after.  Any
    failure raises EmbeddingError, never a silently coerced graph."""
    if not isinstance(doc, dict):
        raise EmbeddingError("malformed graph document: not a JSON object")
    try:
        n, edges, rotations = doc["n"], doc["edges"], doc["rotations"]
    except KeyError as exc:
        raise EmbeddingError(f"malformed graph document: missing {exc}") from exc
    if type(n) is not int or n < 0:
        raise EmbeddingError(f"malformed graph document: n {n!r} is not a non-negative integer")
    if not isinstance(edges, (list, tuple)):
        raise EmbeddingError("malformed graph document: edges is not a list")
    pairs = []
    for e in edges:
        # type(x) is int: a JSON integer, not a bool, float or string
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and type(e[0]) is type(e[1]) is int):
            raise EmbeddingError(f"malformed graph document: edge {e!r} is not a pair of integers")
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise EmbeddingError(f"edge endpoint out of range: ({u}, {v})")
        pairs.append((u, v))
    if not isinstance(rotations, (list, tuple)) or len(rotations) != n:
        raise EmbeddingError(f"malformed graph document: rotations is not a list of {n} rotations")
    m = 2 * len(pairs)
    seen = [False] * m
    for v, rot in enumerate(rotations):
        if not isinstance(rot, (list, tuple)):
            raise EmbeddingError(f"malformed graph document: rotation of vertex {v} is not a list")
        for d in rot:
            if type(d) is not int or not (0 <= d < m):
                raise EmbeddingError(f"malformed graph document: dart {d!r} is not an integer in range")
            if seen[d]:
                raise EmbeddingError(f"dart {d} listed twice")
            seen[d] = True
            if pairs[d >> 1][d & 1] != v:
                raise EmbeddingError(f"dart {d} listed at vertex {v}, but its origin is {pairs[d >> 1][d & 1]}")
    if not all(seen):
        raise EmbeddingError("some dart missing from the rotations")
    outer = doc.get("outer_darts")
    if outer is None:
        od = doc.get("outer_dart", -1)
        if type(od) is not int or od < -1:
            raise EmbeddingError(f"malformed graph document: outer_dart {od!r} is not a dart or -1")
        outer = [od] if od >= 0 else []
    elif not (isinstance(outer, (list, tuple)) and all(type(d) is int for d in outer)):
        raise EmbeddingError("malformed graph document: outer_darts is not a list of integer darts")
    G = EmbeddedGraph(n, pairs, rotations, tuple(outer))
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


def _chords(G):
    """Edge ids, ascending, not incident to an outer face, of a graph its
    caller has checked to be outerplane: its chords."""
    out = []
    for e in range(len(G.edges)):
        if not G.is_outer_face(G.face_of[2 * e]) and not G.is_outer_face(G.face_of[2 * e + 1]):
            out.append(e)
    return out


def is_simple(G):
    """True iff G has no loop and no parallel edges: one scan over the edge
    keys u * n + w, u < w, which a loop never enters."""
    n = G.n
    return len({u * n + w if u < w else w * n + u for u, w in G.edges if u != w}) == len(G.edges)


def _require_simple_outerplane(G):
    if not is_outerplane(G):
        raise ClassMismatchError("operation requires an outerplane graph")
    if not is_simple(G):
        raise ClassMismatchError("operation requires a simple graph: a loop or parallel edges")


# -- connectivity ------------------------------------------------------------


def _blocks_and_bridges(G):
    """Blocks of an outerplane multigraph, bridges included, read off its
    outer walks.  The input is trusted to be outerplane.

    Each outer walk is pushed dart by dart.  When it reaches a vertex
    already on the stack, the darts above that vertex close: two twin darts
    are a bridge walked out and back, any other segment is the outer cycle
    of one block.  The block's inner faces are those reached from the twin
    of the segment's last dart, crossing only edges with inner faces on
    both sides.  A loop step closes nothing.

    Returns one list of blocks, sorted by vertex tuple, each as (ascending
    vertex tuple, inner face ids, the darts of its outer cycle in outer-walk
    order).  A bridge is the block with no inner face; its edge is
    ``seg[0] >> 1``.  The edges of any other block are the non-loop edges
    of its inner faces.
    """
    origin, face_of, faces = G.origin, G.face_of, G.faces
    at = [-1] * G.n  # stack height when the walk reached v, while v is open
    seen = [f in G.outer_faces for f in range(len(faces))]
    found = []
    for f in G.outer_faces:
        walk = faces[f]
        at[origin[walk[0]]] = 0
        stack = []  # darts walked and not yet closed
        for d in walk:
            w = origin[d ^ 1]
            if w == origin[d]:
                continue
            stack.append(d)
            j = at[w]
            if j == -1:
                at[w] = len(stack)
                continue
            seg = tuple(stack[j:])
            del stack[j:]
            if seg[0] == d ^ 1:  # a bridge, walked out and back
                u = origin[d]
                at[u] = -1
                found.append(((u, w) if u < w else (w, u), (), seg))
                continue
            for x in seg[1:]:
                at[origin[x]] = -1
            fs = []
            todo = [face_of[d ^ 1]]
            for g in todo:  # grows while it is read
                if not seen[g]:
                    seen[g] = True
                    fs.append(g)
                    todo += [face_of[x ^ 1] for x in faces[g]]
            found.append((tuple(sorted(origin[x] for x in seg)), tuple(fs), seg))
    found.sort()  # by vertex tuple: no two blocks have the same one
    return found


def is_biconnected(G):
    """True iff the outerplane graph G is 2-connected.  Every vertex is on
    the outer walk, and a cut vertex or a bridge end repeats on it, so G is
    2-connected iff vertex 0's outer walk is a cycle through all n >= 3
    vertices.  The input is trusted to be outerplane."""
    if G.n < 3:
        return False
    W = outer_walk(G, 0)
    return len(W) == G.n and len(set(W)) == G.n


def bridges(G):
    """Edge ids, ascending, whose removal disconnects their component.  On
    any plane graph these are the edges with one face on both sides."""
    face_of = G.face_of
    return [e for e in range(len(G.edges)) if face_of[2 * e] == face_of[2 * e + 1]]


def _levels(G, roots, inside):
    """Breadth-first level of every vertex reached from ``roots`` in
    G[inside] (G if None); each root not yet reached starts a new tree."""
    rotations, origin = G.rotations, G.origin
    level = {}
    for x0 in roots:
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
                    if w not in level and (inside is None or w in inside):
                        level[w] = k
                        nxt.append(w)
            frontier = nxt
    return level


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


def _mapped_rotations(G, dart_map, corners):
    """G's rotations, plus added edges, in one sweep mapped through
    ``dart_map`` (-1 drops a dart).  Added edge j has darts 2(m + j) and
    2(m + j) + 1 at its corners ``corners[j]``, m = len(G.edges); a corner's
    darts go just before its anchor dart, the incoming one first."""
    m = len(G.edges)
    before = [None] * (2 * m)  # anchor dart -> (incoming, outgoing), -1 for none
    for j, (a, b) in enumerate(corners):
        d = 2 * (m + j)
        before[a] = (before[a] or (-1, -1))[0], d
        before[b] = d + 1, (before[b] or (-1, -1))[1]
    out = []
    for rot in G.rotations:
        r = []
        for d in rot:
            ins = before[d]
            if ins is not None:
                for x in ins:
                    if x != -1 and dart_map[x] != -1:
                        r.append(dart_map[x])
            if dart_map[d] != -1:
                r.append(dart_map[d])
        out.append(r)
    return out


def simplify(G):
    """Drop loops and keep the first edge of each parallel bundle.

    Facial paths, read as vertex sequences, are preserved: in an outerplane
    graph any two parallel edges bound a vertex-free lens and loops carry no
    facial path, so colourings of the result lift back to G.  A simple G
    (``is_simple``) is returned as is; any other G is rebuilt in one pass
    over its edges, with G's rotations restricted to the kept darts by
    ``_mapped_rotations``.  It is the outerplane pipelines' class check:
    ClassMismatchError on any graph that is not outerplane.
    """
    if not is_outerplane(G):
        raise ClassMismatchError("input is not outerplane")
    if is_simple(G):
        return G

    n, m = G.n, len(G.edges)
    seen = set()  # endpoint pairs a < b kept so far, as the int a * n + b
    edges = []
    dart_map = [-1] * (2 * m)
    for i, (a, b) in enumerate(G.edges):
        key = a * n + b if a < b else b * n + a
        if a != b and key not in seen:
            seen.add(key)
            dart_map[2 * i : 2 * i + 2] = 2 * len(edges), 2 * len(edges) + 1
            edges.append((a, b))
    # dropping a loop or a parallel edge merges the two faces beside it, so
    # the kept darts of an outer face of G lie on one face of the result
    outer = [dart_map[d] for f in G.outer_faces for d in G.faces[f] if dart_map[d] != -1]
    rot = _mapped_rotations(G, dart_map, ())
    del seen, dart_map  # the build below is the peak
    return EmbeddedGraph(n, edges, rot, outer)
