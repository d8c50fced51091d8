"""Seeded random and exhaustive generators of embedded test instances.

Every generator is correct by construction (no planarity testing): polygons
with non-crossing chords, feature gluing along the outer face,
face-interior vertex insertion and concentric rings joined by spokes all
maintain an explicit rotation system, and each graph is built once.
Every output, enumerated ones included, is validated against its class
predicate before being returned; a predicate failure is a generator bug,
not a caller error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from thueplane import embed


class GenerationError(RuntimeError):
    """A generated instance failed its own class predicate (a bug)."""


#: smallest n of the kinds that need more than one vertex
_MIN_N = {"cycle": 3, "outerplane_biconnected": 3, "nested": 3}


@dataclass(frozen=True)
class GenSpec:
    kind: str
    n: int
    seed: int = 0
    chord_probability: float = 0.5
    attachment_probability: float = 0.35

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        min_n = _MIN_N.get(self.kind, 1)
        if self.n < min_n:
            raise ValueError(f"n must be at least {min_n} for kind {self.kind!r}")
        if self.kind == "outerplane_bridgeless" and self.n == 2:
            raise ValueError("no simple bridgeless outerplane graph on 2 vertices")
        for p in (self.chord_probability, self.attachment_probability):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")


def _rng(spec):
    return random.Random(f"{spec.kind}:{spec.n}:{spec.seed}")


# -- incremental outerplane builder -------------------------------------------


class _Builder:
    """Edges plus mutable rotations; features attached at a vertex append
    their darts as one contiguous run, which keeps the union outerplane."""

    def __init__(self):
        self.edges = []
        self.rot = []

    def new_vertex(self):
        self.rot.append([])
        return len(self.rot) - 1

    def add_edge(self, u, v):
        e = len(self.edges)
        self.edges.append((u, v))
        self.rot[u].append(2 * e)
        self.rot[v].append(2 * e + 1)
        return e

    def add_polygon_block(self, anchor, size, chord_pairs):
        """Polygon of ``size`` vertices using ``anchor`` as local vertex 0;
        chord_pairs are local index pairs.  Returns the local->global ids."""
        ids = [anchor] + [self.new_vertex() for _ in range(size - 1)]
        incident = {i: [] for i in range(size)}
        base = len(self.edges)
        for i in range(size):
            j = (i + 1) % size
            e = len(self.edges)
            self.edges.append((ids[i], ids[j]))
            incident[i].append((j, 2 * e))
            incident[j].append((i, 2 * e + 1))
        for a, b in chord_pairs:
            e = len(self.edges)
            self.edges.append((ids[a], ids[b]))
            incident[a].append((b, 2 * e))
            incident[b].append((a, 2 * e + 1))
        for i in range(size):
            incident[i].sort(key=lambda t: (t[0] - i) % size)
            self.rot[ids[i]].extend(d for _, d in incident[i])
        return ids

    def finish_outerplane(self):
        """The graph, with its default outer face: the face of dart 0.  Each
        feature appends its darts after the earlier ones at its anchor, so
        that face runs round the whole graph; ``_check_class`` checks it."""
        return embed.EmbeddedGraph(len(self.rot), self.edges, self.rot, ())


def _triangulation_chords(size, rng):
    """Chord set (local index pairs) of a uniformly random triangulation of
    a convex polygon, via a uniformly random binary tree (leaf insertion):
    ``size - 2`` pairs of draws grow it, one walk reads it in post-order."""
    k = size - 1  # leaves <-> polygon sides other than the base (0, size-1)
    if k < 2:
        return []
    left = [-1]
    right = [-1]
    parent = [-1]
    root = 0
    for _ in range(k - 1):
        x = rng.randrange(len(left))
        side = rng.randrange(2)
        internal = len(left)
        leaf = internal + 1
        left.extend([0, -1])
        right.extend([0, -1])
        parent.extend([parent[x], internal])
        p = parent[x]
        if p == -1:
            root = internal
        elif left[p] == x:
            left[p] = internal
        else:
            right[p] = internal
        parent[x] = internal
        if side == 0:
            left[internal], right[internal] = x, leaf
        else:
            left[internal], right[internal] = leaf, x

    # the reversed (node, right, left) pre-order is the post-order: leaves
    # come in side order, each giving one side, and the span of each
    # internal node but the root is a triangulation diagonal
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if left[node] != -1:
            stack += (left[node], right[node])
    span = {}
    chords = []
    sides = 0
    for node in reversed(order):
        if left[node] == -1:
            span[node] = (sides, sides + 1)
            sides += 1
        else:
            span[node] = (span[left[node]][0], span[right[node]][1])
            if node != root:
                chords.append(span[node])
    return chords


def _thinned_block_chords(size, rng, chord_p):
    return sorted(c for c in _triangulation_chords(size, rng) if rng.random() < chord_p)


def _gen_cycle(spec, rng):
    b = _Builder()
    v0 = b.new_vertex()
    b.add_polygon_block(v0, spec.n, [])
    return b.finish_outerplane()


def _gen_tree(spec, rng):
    b = _Builder()
    b.new_vertex()
    for v in range(1, spec.n):
        b.new_vertex()
        b.add_edge(rng.randrange(v), v)
    return b.finish_outerplane()


def _gen_outerplane_biconnected(spec, rng):
    b = _Builder()
    v0 = b.new_vertex()
    b.add_polygon_block(v0, spec.n, _thinned_block_chords(spec.n, rng, spec.chord_probability))
    return b.finish_outerplane()


def _block_size(rng, budget, lo=3, hi=12, avoid_remainder_one=False):
    """Pick a block size whose glue cost (size - 1) fits the budget."""
    hi = min(hi, budget + 1)
    choices = list(range(lo, hi + 1))
    if avoid_remainder_one:
        choices = [m for m in choices if budget - (m - 1) != 1]
    return rng.choice(choices) if choices else None


def _gen_outerplane_bridgeless(spec, rng):
    b = _Builder()
    v0 = b.new_vertex()
    if spec.n == 1:
        return b.finish_outerplane()
    first = _block_size(rng, spec.n - 1, avoid_remainder_one=True)
    b.add_polygon_block(v0, first, _thinned_block_chords(first, rng, spec.chord_probability))
    budget = spec.n - first
    while budget > 0:
        m = _block_size(rng, budget, avoid_remainder_one=True)
        if m is None:
            raise GenerationError("block budgeting failed")
        anchor = rng.randrange(len(b.rot))
        b.add_polygon_block(anchor, m, _thinned_block_chords(m, rng, spec.chord_probability))
        budget -= m - 1
    return b.finish_outerplane()


def _gen_cactus_even(spec, rng):
    b = _Builder()
    b.new_vertex()
    budget = spec.n - 1
    while budget > 0:
        cyc_lengths = [m for m in (4, 6, 8, 10) if m - 1 <= budget]
        if cyc_lengths and rng.random() > spec.attachment_probability:
            m = rng.choice(cyc_lengths)
            anchor = rng.randrange(len(b.rot))
            b.add_polygon_block(anchor, m, [])
            budget -= m - 1
        else:
            b.new_vertex()
            b.add_edge(rng.randrange(len(b.rot) - 1), len(b.rot) - 1)
            budget -= 1
    return b.finish_outerplane()


def _gen_outerplane(spec, rng):
    b = _Builder()
    b.new_vertex()
    budget = spec.n - 1
    while budget > 0:
        m = _block_size(rng, budget) if budget >= 2 else None
        if m is not None and rng.random() > spec.attachment_probability:
            chords_ = _thinned_block_chords(m, rng, spec.chord_probability)
            if budget >= m and rng.random() < 0.5:
                base = b.new_vertex()
                b.add_edge(rng.randrange(len(b.rot) - 1), base)
                b.add_polygon_block(base, m, chords_)
                budget -= m
            else:
                anchor = rng.randrange(len(b.rot))
                b.add_polygon_block(anchor, m, chords_)
                budget -= m - 1
        else:
            b.new_vertex()
            b.add_edge(rng.randrange(len(b.rot) - 1), len(b.rot) - 1)
            budget -= 1
    return b.finish_outerplane()


def _gen_flower(spec, rng):
    """Many blocks sharing one bridge-connected class: petals of 3 or 4
    vertices at vertex 0, and further petals at the vertices of a seeded
    tree of bridges grown from 0, whose vertices all join 0's class.  Each
    petal is a polygon with thinned chords attached at a single vertex, so
    every block meets that class."""
    b = _Builder()
    b.new_vertex()
    stem = [0]  # vertices joined to 0 by bridges
    budget = spec.n - 1
    while budget > 0:
        m = _block_size(rng, budget, hi=4)
        if m is None or rng.random() < 0.1:
            v = b.new_vertex()
            b.add_edge(rng.choice(stem), v)
            stem.append(v)
            budget -= 1
        else:
            anchor = 0 if rng.random() < 0.5 else rng.choice(stem)
            b.add_polygon_block(anchor, m, _thinned_block_chords(m, rng, spec.chord_probability))
            budget -= m - 1
    return b.finish_outerplane()


def _gen_plane(spec, rng):
    """Random 2-connected plane graph by face splitting: from a triangle,
    each new vertex z goes into a seeded inner face and joins k >= 2 of its
    corners, which splits that face into k faces.  The faces are tracked as
    they split, and the graph is built once, at the end.

    Faces are picked by rank among the inner faces in the order
    ``EmbeddedGraph`` numbers them, by smallest dart, so a Fenwick tree over
    the darts marks each inner face's smallest dart.  Each walk is stored
    from its smallest dart.  New face t is the walk from corner t to corner
    t + 1 closed by two new darts; new darts exceed every old one, so the
    face that holds the old smallest dart keeps it."""
    b = _Builder()
    v0 = b.new_vertex()
    if spec.n == 1:
        return b.finish_outerplane()
    if spec.n == 2:
        b.new_vertex()
        b.add_edge(0, 1)
        return b.finish_outerplane()
    b.add_polygon_block(v0, 3, [])
    edges, rot = b.edges, b.rot
    size = 1 << (6 * spec.n).bit_length()  # a power of two above 6n - 12 darts
    tree = [0] * size
    walks = {}  # smallest dart -> walk of the inner face from that dart

    def add_face(walk):
        if walk[0] not in walks:
            i = walk[0] + 1
            while i < size:
                tree[i] += 1
                i += i & -i
        walks[walk[0]] = walk

    add_face([1, 5, 3])  # the triangle's inner face 1->0->2->1; dart 0's face is outer
    for z in range(3, spec.n):
        r = rng.randrange(len(walks))
        d, step = 0, size >> 1
        while step:  # d = the smallest dart of the inner face of rank r
            if tree[d + step] <= r:
                d += step
                r -= tree[d]
            step >>= 1
        walk = walks[d]
        # the graph stays 2-connected, so every face is a cycle and each
        # walk position is the first occurrence of its vertex
        dv = len(walk)
        k = rng.randint(2, dv)
        s = rng.randrange(dv)
        corners = sorted((s + t) % dv for t in range(k))
        base = len(edges)
        rot.append([2 * (base + t) for t in reversed(range(k))])
        for t, p in enumerate(corners):
            x = edges[walk[p] >> 1][walk[p] & 1]
            edges.append((z, x))
            rot[x].insert(rot[x].index(walk[p]), 2 * (base + t) + 1)
        corners.append(corners[0] + dv)
        walk = walk * 2  # the last face wraps round
        for t in range(k):
            face = walk[corners[t] : corners[t + 1]]
            face += (2 * (base + (t + 1) % k) + 1, 2 * (base + t))
            j = face.index(min(face))
            add_face(face[j:] + face[:j])
    return embed.EmbeddedGraph(spec.n, edges, rot, (0,))


def _gen_nested(spec, rng):
    """Concentric rings, ring i + 1 drawn inside ring i, consecutive rings
    joined by a nonempty seeded set of spokes: one peeling layer per ring,
    so the layer count grows linearly with n.  The ring size s is seeded in
    3..6; the k = n // s rings take n // k or n // k + 1 vertices, the
    larger ones outermost.  Vertex ids run ring by ring from the outside in, and position j
    of ring i + 1 sits just inside position j of ring i, so a spoke joins
    equal positions and spokes never cross."""
    k = spec.n // rng.randint(3, min(6, spec.n))
    sizes = [spec.n // k + (1 if i < spec.n % k else 0) for i in range(k)]
    first = [0]
    for size in sizes:
        first.append(first[-1] + size)

    # per vertex, the dart towards each direction: 0 outer spoke, 1 next on
    # the ring, 2 inner spoke, 3 previous on the ring (counterclockwise
    # order seen from the outward direction)
    slots = [[None] * 4 for _ in range(spec.n)]
    edges = []

    def add(u, v, du, dv):
        e = len(edges)
        edges.append((u, v))
        slots[u][du] = 2 * e
        slots[v][dv] = 2 * e + 1

    for i, size in enumerate(sizes):
        for j in range(size):
            add(first[i] + j, first[i] + (j + 1) % size, 1, 3)
    for i in range(k - 1):
        inner = sizes[i + 1]
        spokes = [j for j in range(inner) if rng.random() < 0.5] or [rng.randrange(inner)]
        for j in spokes:
            add(first[i] + j, first[i + 1] + j, 2, 0)
    rotations = [[d for d in slot if d is not None] for slot in slots]
    # dart 0 runs from ring-0 position 0 to position 1; with nothing outside
    # ring 0 its face is the ring-0 walk, the unbounded face
    return embed.EmbeddedGraph(spec.n, edges, rotations, (0,))


# -- public entry points -------------------------------------------------------


def _check_class(spec, G):
    kind = spec.kind
    if G.n != spec.n:
        raise GenerationError(f"generated {G.n} vertices instead of {spec.n}")
    if not embed.is_simple(G):
        raise GenerationError("generator emitted loops or parallel edges")
    if kind == "plane":
        return
    if kind == "nested":
        if len(G.components) != 1:
            raise GenerationError("nested rings are not connected")
        return
    if not embed.is_outerplane(G):
        raise GenerationError("instance is not outerplane")
    if kind == "tree":
        if len(G.edges) != spec.n - 1 or len(G.components) != 1:
            raise GenerationError("instance is not a tree")
    elif kind == "cycle":
        if not all(G.degree(v) == 2 for v in range(G.n)) or len(G.components) != 1:
            raise GenerationError("instance is not a cycle")
    elif kind == "cactus_even":
        if embed._chords(G):
            raise GenerationError("cactus has chords")
        if any(len(G.faces[f]) % 2 for f in G.inner_faces()):
            raise GenerationError("cactus has an odd cycle")
    elif kind == "outerplane_biconnected":
        if not embed.is_biconnected(G):
            raise GenerationError("instance is not biconnected")
    elif kind == "outerplane_bridgeless":
        if embed.bridges(G):
            raise GenerationError("instance has a bridge")
    elif kind == "flower":
        if len(G.components) != 1:
            raise GenerationError("flower is not connected")
        find = embed._union_find(G.n, (G.edges[e] for e in embed.bridges(G)))
        centre = find(0)
        for verts, _fs, _seg in embed._blocks_and_bridges(G):
            if len(verts) >= 3 and all(find(x) != centre for x in verts):
                raise GenerationError("a flower block misses the bridge class of vertex 0")


_GENERATORS = {
    "tree": _gen_tree,
    "cycle": _gen_cycle,
    "cactus_even": _gen_cactus_even,
    "outerplane": _gen_outerplane,
    "outerplane_biconnected": _gen_outerplane_biconnected,
    "outerplane_bridgeless": _gen_outerplane_bridgeless,
    "plane": _gen_plane,
    "nested": _gen_nested,
    "flower": _gen_flower,
}
KINDS = tuple(_GENERATORS)


def generate(spec):
    """Deterministic instance of the requested class; same spec, same bytes."""
    G = _GENERATORS[spec.kind](spec, _rng(spec))
    _check_class(spec, G)
    return G


ENUM_GUARD = 9


def _noncrossing_chord_subsets(n):
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]

    def crosses(c1, c2):
        (a, b), (c, d) = c1, c2
        return (a < c < b < d) or (c < a < d < b)

    out = []

    def grow(idx, chosen):
        if idx == len(chords):
            out.append(tuple(chosen))
            return
        grow(idx + 1, chosen)
        c = chords[idx]
        if all(not crosses(c, o) for o in chosen):
            chosen.append(c)
            grow(idx + 1, chosen)
            chosen.pop()

    grow(0, [])
    return out


def _dihedral_canonical(n, chord_set):
    best = None
    for refl in (False, True):
        for r in range(n):
            mapped = []
            for a, b in chord_set:
                x = (a + r) % n if not refl else (-a + r) % n
                y = (b + r) % n if not refl else (-b + r) % n
                mapped.append((min(x, y), max(x, y)))
            key = tuple(sorted(mapped))
            if best is None or key < best:
                best = key
    return best


def enumerate_small(kind, n):
    """Exhaustive enumeration (deduplicated best-effort up to relabelling)
    of tiny instances.  Supported kinds: tree, cycle,
    outerplane_biconnected.  Every instance passes the class check that
    ``generate``'s outputs pass."""
    if n > ENUM_GUARD:
        raise ValueError(f"enumeration guarded to n <= {ENUM_GUARD}")
    if kind == "cycle":
        if n >= 3:
            yield generate(GenSpec("cycle", n))
        return
    if kind == "tree":
        import networkx as nx

        trees = [()] if n == 1 else (T.edges() for T in nx.nonisomorphic_trees(n))
        for tree_edges in trees:
            b = _Builder()
            for _ in range(n):
                b.new_vertex()
            for u, v in sorted(tuple(sorted(e)) for e in tree_edges):
                b.add_edge(u, v)
            G = b.finish_outerplane()
            _check_class(GenSpec(kind, n), G)
            yield G
        return
    if kind == "outerplane_biconnected":
        if n < 3:
            return
        seen = set()
        for subset in _noncrossing_chord_subsets(n):
            key = _dihedral_canonical(n, subset)
            if key in seen:
                continue
            seen.add(key)
            b = _Builder()
            v0 = b.new_vertex()
            b.add_polygon_block(v0, n, sorted(subset))
            G = b.finish_outerplane()
            _check_class(GenSpec(kind, n), G)
            yield G
        return
    raise ValueError(f"exhaustive enumeration not supported for kind {kind!r}")
