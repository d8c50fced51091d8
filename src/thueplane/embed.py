"""Plane multigraphs as rotation systems.

A graph is stored as one tuple of dart origins plus, per vertex, the
counterclockwise cyclic order of its incident darts (directed half-edges).
Dart 2*i is edge i from ``origin[2*i]`` to ``origin[2*i+1]``, dart 2*i+1 its
twin.  Faces are the orbits of the face-tracing map d -> rotation_next(twin(d));
with counterclockwise rotations every face is traced with its region to the
right of each dart.

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

import functools
import gc
import json
from operator import itemgetter


# The constructions build large acyclic structures that reference counting
# frees, so the cyclic collector finds nothing to free: before this pause
# one colour_outerplane(loads_graph(doc)) of a 10^4-vertex gen outerplane
# graph made 79-95 gen-0, 7-9 gen-1 and up to 1 full collection, freeing 0
# objects, in about a tenth of its time.
def _gc_paused(fn):
    """``fn`` with the cyclic garbage collector paused while it runs, and
    left as the call found it on return or raise.  The switch is
    process-wide, so another thread's allocations are not collected during
    the call either; nothing is lost, as collection resumes on exit."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():  # a nested call, or a caller that paused it
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class EmbeddingError(ValueError):
    """Malformed rotation system or illegal surgery."""


class ClassMismatchError(ValueError):
    """Graph does not belong to the class an operation requires."""


class EmbeddedGraph:
    """Immutable embedded multigraph.  The constructor does no validation
    and keeps a tuple copy of ``origin``, the dart origins; ``rotations``
    must be a valid rotation system on its darts.  ``origin``, ``face_of``
    and ``comp_of`` are tuples, so no caller can leave the faces stale.  It
    raises only what stops it building (an outer dart out of range,
    conflicting outer darts, a face walk that does not close).  Outside
    input goes through :func:`graph_from_json` or :func:`build`."""

    def __init__(self, n, origin, rotations, outer_darts=()):
        self.n = n
        self.origin = origin = tuple(origin)
        self.rotations = rotations = tuple(map(tuple, rotations))
        m = len(origin)

        # connected components (isolated vertices are their own), and the
        # face-tracing map d -> rotation_next(twin(d)), in one sweep
        comp_of = [-1] * n
        comps = []
        face_next = [0] * m
        for v0 in range(n):
            if comp_of[v0] != -1:
                continue
            cid = len(comps)
            members = [v0]
            comp_of[v0] = cid
            for v in members:  # grows while it is read
                rot = rotations[v]
                prev = rot[-1] if rot else 0
                for d in rot:
                    face_next[prev ^ 1] = prev = d
                    w = origin[d ^ 1]
                    if comp_of[w] == -1:
                        comp_of[w] = cid
                        members.append(w)
            comps.append(tuple(sorted(members)))
        self.components = tuple(comps)
        self.comp_of = tuple(comp_of)

        # faces: orbits of face_next, numbered by smallest dart;
        # a component's first face is its outer face unless an outer dart names another
        outer = [None] * len(comps)
        face_of = [-1] * m
        faces = []
        for d0 in range(m):
            if face_of[d0] != -1:
                continue
            fid = len(faces)
            c = comp_of[origin[d0]]
            if outer[c] is None:
                outer[c] = fid
            walk = []
            d = d0
            while face_of[d] == -1:
                face_of[d] = fid
                walk.append(d)
                d = face_next[d]
            if d != d0:
                raise EmbeddingError("face tracing did not close; bad rotation system")
            faces.append(tuple(walk))
        self.faces = tuple(faces)
        self.face_of = tuple(face_of)

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
        """Euler's formula: the rotation system is planar.  Run by
        :func:`graph_from_json`.  A connected rotation system has
        V - E + F = 2 - 2g <= 2, with g = 0 exactly when it is planar, and a
        vertex with no dart adds 1 to V alone, so one count over the whole
        graph checks every component at once."""
        isolated = sum(1 for rot in self.rotations if not rot)
        V, E, F = self.n, len(self.origin) >> 1, len(self.faces)
        if V - E + F != 2 * len(self.components) - isolated:
            raise EmbeddingError(
                f"Euler check failed: V={V} E={E} F={F} over {len(self.components)} components, "
                f"{isolated} of them isolated vertices"
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
        walk = self.faces[f]
        return itemgetter(*walk)(self.origin) if len(walk) > 1 else (self.origin[walk[0]],)

    def inner_faces(self):
        return [f for f in range(len(self.faces)) if f not in self.outer_faces]

    def degree(self, v):
        return len(self.rotations[v])

    def canonical_outer_darts(self):
        return tuple(sorted(self.faces[f][0] for f in self.outer_faces))

    def __repr__(self):
        return f"EmbeddedGraph(n={self.n}, edges={len(self.origin) >> 1}, faces={len(self.faces)})"


def build(vertex_count, edge_list, rotations, outer_dart=None):
    """:func:`graph_from_json` of the document of these values, with
    ``outer_dart`` -1 when None.  ``rotations`` gives, per vertex, the ccw
    cyclic order of incident darts; ``outer_dart`` designates the outer face
    of its component (components not containing it fall back to the face of
    their smallest dart) and is required when there are edges."""
    od = -1 if outer_dart is None else outer_dart
    doc = {"n": vertex_count, "edges": edge_list, "rotations": rotations, "outer_dart": od}
    return graph_from_json(doc)


# -- JSON interchange ------------------------------------------------------


def graph_to_json(G):
    outer, origin = G.canonical_outer_darts(), G.origin
    doc = {
        "n": G.n,
        "edges": [[u, v] for u, v in zip(origin[::2], origin[1::2])],
        "rotations": [list(r) for r in G.rotations],
        "outer_dart": outer[0] if outer else -1,
    }
    if len(outer) > 1:
        doc["outer_darts"] = list(outer)
    return doc


@_gc_paused
def graph_from_json(doc):
    """Graph from its JSON document; the one place outside input is
    checked.  One loop over ``edges`` checks that each is a pair of plain
    integers, both vertices, and appends it to ``origin``; one loop over
    ``rotations`` that each is a list of plain integer darts, every dart
    listed once, at its ``origin``.  Edges need an outer dart;
    ``outer_dart`` is a dart or -1, and one of ``outer_darts`` beside them;
    the outer darts, plain integers, are checked while constructing (face
    tracing needs a valid rotation system), Euler's formula after.
    Any failure raises EmbeddingError, never a silently coerced graph."""
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
    origin = []
    for e in edges:
        # type(x) is int: a JSON integer, not a bool, float or string
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and type(e[0]) is type(e[1]) is int):
            raise EmbeddingError(f"malformed graph document: edge {e!r} is not a pair of integers")
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise EmbeddingError(f"edge endpoint out of range: ({u}, {v})")
        origin += e
    if not isinstance(rotations, (list, tuple)) or len(rotations) != n:
        raise EmbeddingError(f"malformed graph document: rotations is not a list of {n} rotations")
    m = len(origin)
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
            if origin[d] != v:
                raise EmbeddingError(f"dart {d} listed at vertex {v}, but its origin is {origin[d]}")
    if not all(seen):
        raise EmbeddingError("some dart missing from the rotations")
    od = doc.get("outer_dart", -1)
    if type(od) is not int or od < -1:
        raise EmbeddingError(f"malformed graph document: outer_dart {od!r} is not a dart or -1")
    outer = doc.get("outer_darts")
    if outer is None:
        outer = [od] if od >= 0 else []
    elif not (isinstance(outer, (list, tuple)) and all(type(d) is int for d in outer)):
        raise EmbeddingError("malformed graph document: outer_darts is not a list of integer darts")
    elif "outer_dart" in doc and od not in outer:
        raise EmbeddingError(f"malformed graph document: outer_dart {od} is not one of outer_darts")
    if m and not outer:
        raise EmbeddingError("a graph with edges needs an outer_dart designation")
    G = EmbeddedGraph(n, origin, rotations, tuple(outer))
    G._validate_euler()
    return G


@_gc_paused
def dumps_graph(G):
    return json.dumps(graph_to_json(G), sort_keys=True, separators=(",", ":"))


@_gc_paused
def loads_graph(text):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an integer past 4,300 digits
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
    outer, face_of = G.outer_faces, G.face_of
    return [e for e in range(len(face_of) >> 1)
            if face_of[2 * e] not in outer and face_of[2 * e + 1] not in outer]


def is_simple(G):
    """True iff G has no loop and no parallel edges: one scan over the edge
    keys u * n + w, u < w, which a loop never enters."""
    n, origin = G.n, G.origin
    keys = {u * n + w if u < w else w * n + u for u, w in zip(origin[::2], origin[1::2]) if u != w}
    return len(keys) == len(origin) >> 1


def _require_simple_outerplane(G):
    if not is_outerplane(G):
        raise ClassMismatchError("operation requires an outerplane graph")
    if not is_simple(G):
        raise ClassMismatchError("operation requires a simple graph: a loop or parallel edges")


# -- connectivity ------------------------------------------------------------


def _blocks_and_bridges(G):
    """Blocks of an outerplane multigraph, bridges included, read off its
    outer walks.  The input is trusted to be outerplane.

    One sweep writes each face's vertex cycle, in C by ``itemgetter``; one
    gives each face its (edge, face across) pairs, by edge id, for the
    edges with inner faces on both sides: on a simple graph its chords, the
    weak dual.  Each outer walk is pushed dart by dart.  When it reaches a
    vertex already on the stack, the darts above it close: two twin darts
    are a bridge walked out and back, any other segment the outer cycle of
    one block, whose inner faces are those reached across those edges from
    the twin of the segment's last dart.  A loop step closes nothing.

    Returns (blocks, cycles, dual), the last two by face id.  Each block is
    (ascending vertex tuple, inner face ids, the darts of its outer cycle
    in outer-walk order), sorted by the integer key of its two smallest
    vertices, as two blocks share at most one.  A bridge is the block with
    no inner face; its edge is ``seg[0] >> 1``.  The edges of any other
    block are the non-loop edges of its inner faces.
    """
    n, origin, face_of, faces = G.n, G.origin, G.face_of, G.faces
    seen = bytearray(len(faces))  # the outer faces, then those of each block found
    for f in G.outer_faces:
        seen[f] = 1
    cycles = [itemgetter(*w)(origin) if len(w) > 1 else (origin[w[0]],) for w in faces]
    dual = [[] for _ in faces]
    for e, f, g in zip(range(len(face_of) >> 1), face_of[::2], face_of[1::2]):
        if not (seen[f] or seen[g]):
            dual[f].append((e, g))
            dual[g].append((e, f))
    at = [-1] * n  # stack height when the walk reached v, while v is open
    found = {}  # block key v0 * n + v1 -> block
    for f in G.outer_faces:
        walk, wv = faces[f], cycles[f]
        at[wv[0]] = 0
        stack = []  # darts walked and not yet closed
        for d, u, w in zip(walk, wv, wv[1:] + wv[:1]):
            if w == u:
                continue
            stack.append(d)
            j = at[w]
            if j == -1:
                at[w] = len(stack)
                continue
            seg = tuple(stack[j:])
            del stack[j:]
            if seg[0] == d ^ 1:  # a bridge, walked out and back
                at[u] = -1
                found[u * n + w if u < w else w * n + u] = ((u, w) if u < w else (w, u), (), seg)
                continue
            ring = itemgetter(*seg)(origin)
            for x in ring[1:]:
                at[x] = -1
            fs = [face_of[d ^ 1]]
            seen[fs[0]] = 1
            for g in fs:  # grows while it is read
                for _e, h in dual[g]:
                    if not seen[h]:
                        seen[h] = 1
                        fs.append(h)
            verts = tuple(sorted(ring))
            found[verts[0] * n + verts[1]] = (verts, tuple(fs), seg)
    return [found[k] for k in sorted(found)], cycles, dual


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
    return [e for e in range(len(face_of) >> 1) if face_of[2 * e] == face_of[2 * e + 1]]


def _levels(G, roots, level):
    """The per-vertex list ``level`` with the breadth-first level of every
    vertex reached from ``roots`` written in, through the vertices whose
    entry is -1; each root not yet reached starts a new tree."""
    rotations, origin = G.rotations, G.origin
    for x0 in roots:
        if level[x0] != -1:
            continue
        level[x0] = k = 0
        frontier = [x0]
        while frontier:
            k += 1
            nxt = []
            for x in frontier:
                for d in rotations[x]:
                    w = origin[d ^ 1]
                    if level[w] == -1:
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


def _mapped_rotations(G, vertices, dart_map, corners):
    """The rotations of ``vertices``, in order: G's plus added edges, in
    one sweep mapped through ``dart_map`` (-1 drops a dart).  Added edge j
    has darts m + 2j and m + 2j + 1, m = len(G.origin), at its corners
    ``corners[j]``; a corner's kept darts go just before its anchor dart,
    the incoming one first."""
    m, rotations = len(G.origin), G.rotations
    before = [()] * m  # anchor dart -> the mapped darts inserted before it
    for j, (a, b) in enumerate(corners):
        out, inc = dart_map[m + 2 * j], dart_map[m + 2 * j + 1]
        if out != -1:
            before[a] += (out,)
        if inc != -1:
            before[b] = (inc,) + before[b]
    rots = []
    for v in vertices:
        r = []
        for d in rotations[v]:
            r += before[d]
            x = dart_map[d]
            if x != -1:
                r.append(x)
        rots.append(tuple(r))  # no list outlives the sweep to swell the full collections
    return rots


def simplify(G):
    """Drop loops and keep the first edge of each parallel bundle.

    Facial paths, read as vertex sequences, are preserved: in an outerplane
    graph any two parallel edges bound a vertex-free lens and loops carry no
    facial path, so colourings of the result lift back to G.  A simple G
    (``is_simple``) is returned as is; any other G is ``_same_layer_graph``
    of G with one layer, every outer face at level 0 and every inner face
    at 1.  It is the outerplane pipelines' class check: ClassMismatchError
    on any graph that is not outerplane.
    """
    if not is_outerplane(G):
        raise ClassMismatchError("input is not outerplane")
    if is_simple(G):
        return G
    # dropping a loop or a parallel edge merges the two faces beside it, so
    # the kept darts of an outer face of G lie on one face of the result
    level = [0 if f in G.outer_faces else 1 for f in range(len(G.faces))]
    return _same_layer_graph(G, [0] * G.n, (), level)


def _same_layer_graph(G, layer, corners, level):
    """G plus edges added at ``corners``, as ``_mapped_rotations`` takes
    them, restricted to the edges whose ends share a ``layer``: one loop over
    the ends of G's edges and then of the added ones, each joining the
    origins of its corners (a, b), two vertices of one layer.  Loops are
    dropped and each endpoint pair keeps its first edge.  A kept dart of G
    is outer when the ``level`` of its face in G is at most its layer; no
    added dart is."""
    n, origin, face_of = G.n, G.origin, G.face_of
    ends = origin + tuple(origin[d] for corner in corners for d in corner)
    kept = []  # the result's origin list
    outer = []
    dart_map = [-1] * len(ends)
    pairs = set()  # endpoint pairs u < w with an edge, as u * n + w
    for e, (u, w) in enumerate(zip(ends[::2], ends[1::2])):
        i = layer[u]
        if u != w and layer[w] == i:
            key = u * n + w if u < w else w * n + u
            if key not in pairs:
                pairs.add(key)
                d = len(kept)
                dart_map[2 * e] = d
                dart_map[2 * e + 1] = d + 1
                kept.append(u)
                kept.append(w)
                if 2 * e < len(face_of):  # an edge of G
                    if level[face_of[2 * e]] <= i:
                        outer.append(d)
                    if level[face_of[2 * e + 1]] <= i:
                        outer.append(d + 1)
    del pairs, ends  # the build below is the peak
    rot = _mapped_rotations(G, range(n), dart_map, corners)
    return EmbeddedGraph(n, kept, rot, tuple(outer))
