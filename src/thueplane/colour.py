"""Facial nonrepetitive colouring pipelines.

Bounds produced here: even cacti get at most 7 colours, outerplane graphs
at most 11 (4 tree colours + 7 cactus colours for the blocking graph),
outerplane graphs with a single 2-connected component at most 7, and plane
graphs at most 22 via the peeling layering (11 per layer parity).

Every public pipeline has one shape: check the input class, run an
unchecked core, and certify the result once with the independent verifier
and the palette bound (``_checked``).  Cores call cores, never a public
pipeline, so no intermediate colouring is verified again.  A verification
failure signals a bug, never a valid outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from thueplane import blocking, embed, verify
from thueplane.embed import ClassMismatchError
from thueplane.words import (
    EXCEPTIONAL_CYCLE_LENGTHS,
    _colour_forest,
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

    def distinct_colours(self):
        return len(set(self.colours))

    def to_json(self):
        return {"colours": list(self.colours), "palette_max": self.palette_max}

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


#: every colour is below this, so has at most the 4,300 digits ``json``
#: reads under the interpreter's default limit, whatever the limit is set to
_COLOUR_BOUND = 10**4300


def colouring_from_json(doc):
    """Colouring from its JSON document: ``colours`` a list of plain
    non-negative integers below 10**4300 (the verifier's alphabet),
    ``palette_max`` a plain integer; other keys are ignored.  Anything
    else raises ValueError, never a coerced value."""
    if not isinstance(doc, dict):
        raise ValueError("malformed colouring document: not a JSON object")
    try:
        colours, palette_max = doc["colours"], doc["palette_max"]
    except KeyError as exc:
        raise ValueError(f"malformed colouring document: missing {exc}") from exc
    if not isinstance(colours, (list, tuple)) or not all(
        type(c) is int and 0 <= c < _COLOUR_BOUND for c in colours
    ):
        raise ValueError("malformed colouring document: colours are not non-negative integers below 10**4300")
    if type(palette_max) is not int:
        raise ValueError(f"malformed colouring document: palette_max {palette_max!r} is not an integer")
    return Colouring(tuple(colours), palette_max)


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
    # a cycle word that needed a fourth symbol verifies, but breaks the bound
    top = max(colours, default=0)
    if top > palette_max:
        raise VerificationBugError(f"pipeline colouring uses colour {top} above {palette_max}")
    return Colouring(tuple(colours), palette_max)


# -- even cacti ---------------------------------------------------------------


def _auxiliary_runs(W, H):
    """The auxiliary graph on the deepest-vertex set H, read off the outer
    walk W as runs of H, one (order, word) per component; its members are
    coloured ``word[i] + 1`` in ``order``.

    Link j joins the j-th and (j + 1)-th occurrences of H on W, cyclically,
    when the walk segment between them repeats no vertex, i.e. is an outer
    facial path free of other members.  When every link holds (and H has
    at least two members) the runs close into one cycle, 3-coloured by a
    cycle word; otherwise each maximal run of links is a path, coloured by
    a ternary square-free word from its smaller end.  Every member has
    degree 2, so it occurs once on W."""
    occ = [i for i, x in enumerate(W) if x in H]
    hs = [W[i] for i in occ]
    m = len(hs)
    link = []
    for j, i in enumerate(occ):
        seg = W[i : occ[j + 1] + 1] if j + 1 < m else W[i:] + W[: occ[0] + 1]
        link.append(len(set(seg)) == len(seg))
    if m >= 2 and all(link):
        # from the smallest member, along W only when that member is W's
        # first occurrence of H and against W otherwise: the order an
        # adjacency-list trace of the auxiliary graph takes, which the
        # golden digests pin
        s = hs.index(min(hs))
        word = (0, 1) if m == 2 else cycle_colouring(m)
        return [(hs if s == 0 else hs[s::-1] + hs[:s:-1], word)]
    runs = []
    run = []
    b = link.index(False)  # start just after a broken link
    for j in range(b + 1, b + 1 + m):
        run.append(hs[j % m])
        if not link[j % m]:
            if run[-1] < run[0]:
                run.reverse()
            runs.append((run, ternary_nonrepetitive(len(run))))
            run = []
    return runs


def _colour_cactus_component(G, comp, cid, comp_faces, colours):
    """Colour one cactus component with at least one inner face, its inner
    faces ``comp_faces``; returns the deepest-vertex set and levelling so
    tests can probe the construction."""
    degs = {x: G.degree(x) for x in comp}

    if all(d == 2 for d in degs.values()):
        W = embed.outer_walk(G, cid)
        for x, c in zip(W, cycle_colouring(len(W))):
            colours[x] = c + 1
        return set(), {}

    # root: a degree-1 vertex if any, else a vertex of degree >= 3
    deg1 = [x for x in comp if degs[x] == 1]
    root = min(deg1) if deg1 else min(x for x in comp if degs[x] >= 3)

    lam = embed._levels(G, [root], None)

    H = set()
    for f in comp_faces:
        cyc = G.face_vertices(f)
        deepest = max(cyc, key=lambda x: (lam[x], x))
        others = [x for x in cyc if x != deepest]
        if all(lam[x] < lam[deepest] for x in others) and degs[deepest] == 2:
            H.add(deepest)

    if degs[root] != 1 and len(H) in EXCEPTIONAL_CYCLE_LENGTHS:
        fstar = min(
            f for f in comp_faces
            if sum(1 for x in G.face_vertices(f) if degs[x] > 2) == 1
        )
        cyc = G.face_vertices(fstar)
        b = max(cyc, key=lambda x: (lam[x], x))
        i = cyc.index(b)
        nb1, nb2 = cyc[i - 1], cyc[(i + 1) % len(cyc)]
        patch_count = len(H)
        H.add(min(nb1, nb2))
        if patch_count == 9:
            H.add(max(nb1, nb2))

    if H:
        for order, word in _auxiliary_runs(embed.outer_walk(G, cid), H):
            for i, x in enumerate(order):
                colours[x] = word[i] + 1

    word = palindrome_free_nonrepetitive(max(lam.values()) + 1)
    for x in comp:
        if x not in H:
            colours[x] = 4 + word[lam[x]]
    return H, lam


def _colour_cactus_core(Gs):
    """Colour values over {1..7} for a simple even cactus; verification is
    the caller's job."""
    colours = [None] * Gs.n
    faces = [[] for _ in Gs.components]  # inner faces per component, one scan
    for f in Gs.inner_faces():
        faces[Gs.comp_of[Gs.origin[Gs.faces[f][0]]]].append(f)
    trees = []  # the components without an inner face, coloured in one pass
    for cid, comp in enumerate(Gs.components):
        if faces[cid]:
            _colour_cactus_component(Gs, comp, cid, faces[cid], colours)
        else:
            trees += comp
    _colour_forest(Gs, trees, colours)
    return colours


@embed._gc_paused
def colour_cactus_even(G):
    """Facially nonrepetitive colouring of a cactus whose cycles are all
    even, over at most 7 colours: deepest degree-2 vertices of the cycles
    (plus the exceptional-length patch) over {1,2,3}, everything else by
    breadth-first level through a palindrome-free word over {4,5,6,7}.
    ``simplify`` checks that G is outerplane."""
    Gs = embed.simplify(G)
    if embed._chords(Gs):
        raise ClassMismatchError("input is not a cactus (it has chords)")
    for f in Gs.inner_faces():
        if len(Gs.faces[f]) % 2 == 1:
            raise ClassMismatchError("cactus has an odd cycle")
    return _checked(G, _colour_cactus_core(Gs), 7)


# -- outerplane ---------------------------------------------------------------


def _colour_outerplane_core(Gs, B):
    """Colour values over {1..11} for a simple outerplane graph and a
    blocking set B of it: B's blocking graph is cactus-coloured over
    {5..11} and the forest Gs - B over {1..4}; verification is the caller's
    job."""
    colours = [None] * Gs.n
    if B:
        bg = blocking._blocking_graph(Gs, B, simple=True)
        sub = _colour_cactus_core(bg.graph)
        for i, host in enumerate(bg.host_vertex):
            colours[host] = 4 + sub[i]
    _colour_forest(Gs, [x for x in range(Gs.n) if x not in B], colours)
    return colours


@embed._gc_paused
def colour_outerplane(G):
    """Facially nonrepetitive colouring of an outerplane multigraph with at
    most 11 colours: an even blocking set's blocking graph is cactus-coloured
    over {5..11} and the remaining forest over {1..4}.  ``simplify`` checks
    that G is outerplane."""
    Gs = embed.simplify(G)
    return _checked(G, _colour_outerplane_core(Gs, blocking._even_blocking_over_blocks(Gs)), 11)


@embed._gc_paused
def colour_outerplane_single_block(G):
    """At most 7 colours for an outerplane graph with at most one
    2-connected component: a blocking set of non-exceptional size makes the
    blocking graph one cycle, 3-coloured over {5,6,7}, or one edge; trees
    take {1,2,3,4}.  ``simplify`` checks that G is outerplane."""
    Gs = embed.simplify(G)
    faces = [fs for vs, fs, _seg in embed._blocks_and_bridges(Gs) if len(vs) >= 3]
    if len(faces) > 1:
        raise ClassMismatchError("graph has more than one 2-connected component")
    B = blocking._good_size(Gs, faces[0]) if faces else frozenset()
    return _checked(G, _colour_outerplane_core(Gs, B), 7)


# -- plane graphs -------------------------------------------------------------


def _peel(G):
    """The peeling layering of G as lists: the layer of each vertex and the
    level of each face.

    One breadth-first search over the vertex-face incidence graph (Baker,
    J. ACM 1994), from the outer face of every component: a vertex first
    met on a level-k face is in layer k, and a face first met at a layer-k
    vertex has level k + 1.  Vertices without darts are in layer 0.

    A face's level - 1 is the lowest layer on its walk (-1 if outer), and no
    vertex on the walk is above its level: a layer-j vertex puts every face
    around it at level <= j + 1, a face gets level k + 1 at a layer-k vertex,
    and a level-k face puts every vertex on it still unplaced in layer k."""
    origin, face_of, faces, rotations = G.origin, G.face_of, G.faces, G.rotations
    layer = [-1 if r else 0 for r in rotations]
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
    return layer, level


def peeling_layering(G):
    """Layer index per vertex: layer 0 holds the outer-face vertices, layer
    i the outer-face vertices once layers below are removed (``_peel``)."""
    return PeelingLayering(tuple(_peel(G)[0]))


def _augmentation(G, layer, level, chords):
    """The corners of the edges ``augment_plus`` adds to G.  Each inner
    face f, in id order, joins the cyclically consecutive occurrences on its
    walk of its lowest layer, level[f] - 1 (``_peel``): the edge from the
    corner just before walk dart a to the one just before walk dart b has
    corners (a, b) and joins the origins of a and b.  With ``chords``, only
    the corners that can add an edge to the layers graph: a corner joining
    the two ends of the walk edge a >> 1 or b >> 1, as one between walk
    neighbours does, doubles an edge of G, and a face of fewer than 4 darts
    has no other kind."""
    origin = G.origin
    corners = []
    for f, walk in enumerate(G.faces):
        k = level[f] - 1
        if k < 0 or (chords and len(walk) < 4):
            continue
        first = a = None
        for b in walk + walk:  # round the walk, then on to its first occurrence
            if layer[origin[b]] != k:
                continue
            if a is None:
                first = b
            else:
                u, w = origin[a], origin[b]
                if u != w and not (chords and (origin[a ^ 1] == w or origin[b ^ 1] == u)):
                    corners.append((a, b))
                if b == first:
                    break
            a = b
    return corners


def augment_plus(G):
    """Add, inside every inner face, an edge between each pair of cyclically
    consecutive same-layer occurrences of the face walk (the lower of the
    two layers the walk touches).  The layer sets are unchanged and each
    layer's induced subgraph becomes outerplane.  The added edges lie in
    inner faces, so G's outer faces, one per component, stay outer.  The
    rotations are G's with the added darts inserted at their corners in one
    sweep, by ``embed._mapped_rotations``."""
    corners = _augmentation(G, *_peel(G), False)
    origin = G.origin + tuple(G.origin[d] for corner in corners for d in corner)
    rot = embed._mapped_rotations(G, range(G.n), range(len(origin)), corners)
    return embed.EmbeddedGraph(G.n, origin, rot, tuple(G.faces[f][0] for f in G.outer_faces))


@embed._gc_paused
def colour_plane(G):
    """Facially nonrepetitive colouring of any plane graph with at most 22
    colours: augment, split into peeling layers, colour each layer's
    outerplane graph with {1..11} on even layers and {12..22} on odd ones.
    One core call colours all layers side by side, as calls per layer
    would: the core works a component at a time, reading only the order of
    ids within one, and a shallower tree's word prefixes a deeper one's.

    The layers graph is the layers of ``augment_plus(G)`` side by side,
    built without G plus: ``embed._same_layer_graph`` of G and its
    augmentation's chords, one simple graph on G's ids.  Every vertex of a
    layer is on its outer face, so parallel edges bound an empty lens and
    keeping the first of each, as ``embed.simplify`` does, leaves out every
    corner that doubles an edge of G.  The outer darts, those that peeling
    the lower layers off G plus leaves on outer faces, are the kept darts of
    G whose face in G is outer or holds a vertex below their layer: whose
    face's level is at most their layer.  G's faces suffice: each face G
    plus cuts from an inner face keeps its lowest layer (an added edge joins
    two vertices of it), so no added dart is one.  In a layer-i component
    they lie on one face, as the faces below i hold none of its edges and
    meet through lower-layer vertices, so they need no deduplication."""
    layer, level = _peel(G)
    L = embed._same_layer_graph(G, layer, _augmentation(G, layer, level, True), level)
    # O(n): the blocking cores trust that their input is outerplane, so
    # without it a construction bug would surface as a lookup error deep in
    # a core, or as a colouring the verifier rejects far from its cause
    if not embed.is_outerplane(L):
        raise VerificationBugError("peeled layer graph is not outerplane")
    colours = _colour_outerplane_core(L, blocking._even_blocking_over_blocks(L))
    del L  # before the verifier's allocations
    for v, i in enumerate(layer):
        if i % 2:
            colours[v] += 11
    return _checked(G, colours, 22)
