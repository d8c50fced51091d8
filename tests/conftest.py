"""Shared fixtures: hand-built embedded graphs with hand-derived facts."""

import math
import random

import pytest

from thueplane import embed, gen
from thueplane.gen import _Builder

from support import _dedup_outer, biconnected_components, dart_of, edge_pairs


def polygon(n, chords=()):
    b = _Builder()
    v0 = b.new_vertex()
    b.add_polygon_block(v0, n, sorted(chords))
    return b.finish_outerplane()


def fan5():
    """Pentagon 0..4 with apex chords (0,2), (0,3): three inner faces, two
    chords, the two extreme faces are the ears."""
    return polygon(5, [(0, 2), (0, 3)])


def wheel(k):
    """Cycle 0..k-1 plus hub k joined to every rim vertex, hub inside."""
    G = polygon(k)
    f = G.inner_faces()[0]
    walk = G.faces[f]
    verts = G.face_vertices(f)
    base = len(G.origin)  # the first new dart
    new_origin = G.origin + tuple(x for p in range(k) for x in (k, verts[p]))
    new_rot = [list(r) for r in G.rotations]
    new_rot.append([base + 2 * t for t in reversed(range(k))])
    for t in range(k):
        anchor = walk[t]
        rot = new_rot[G.origin[anchor]]
        j = rot.index(anchor)
        rot.insert(j, base + 2 * t + 1)
    outer = [G.faces[g][0] for g in G.outer_faces]
    return embed.EmbeddedGraph(k + 1, new_origin, new_rot, tuple(outer))


def two_triangles_shared_vertex():
    b = _Builder()
    b.new_vertex()
    b.add_polygon_block(0, 3, [])
    b.add_polygon_block(2, 3, [])
    return b.finish_outerplane()


def two_triangles_bridge():
    b = _Builder()
    b.new_vertex()
    b.add_polygon_block(0, 3, [])
    v = b.new_vertex()
    b.add_edge(2, v)
    b.add_polygon_block(v, 3, [])
    return b.finish_outerplane()


def showcase_graph():
    """Pentagon block {0..4} with chord (0,2), bridge 4-5, triangle block
    {5,6,7}, pendant 8 on 6.  Hand counts: 3 inner faces, 2 bridges,
    2 blocks; B = {1, 3, 6} is a valid blocking set."""
    b = _Builder()
    b.new_vertex()
    b.add_polygon_block(0, 5, [(0, 2)])
    v5 = b.new_vertex()
    b.add_edge(4, v5)
    b.add_polygon_block(v5, 3, [])
    v8 = b.new_vertex()
    b.add_edge(6, v8)
    return b.finish_outerplane()


SHOWCASE_BLOCKING_SET = frozenset({1, 3, 6})


def path_graph(n):
    edges = [(i, i + 1) for i in range(n - 1)]
    rot = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        rot[u].append(2 * e)
        rot[v].append(2 * e + 1)
    return embed.build(n, edges, rot, 0 if edges else None)


def decorate_multigraph(G, seed=0, parallels=2, loops=1):
    """Add parallel copies (each bounding an empty lens) and empty loops to
    an embedded graph, preserving the embedding and the outer face."""
    rnd = random.Random(seed)
    pairs = edge_pairs(G)
    origin = list(G.origin)
    rot = [list(r) for r in G.rotations]

    for _ in range(parallels):
        if not pairs:
            break
        e = rnd.randrange(len(pairs))
        u, v = pairs[e]
        if u == v:
            continue
        nd = len(origin)
        origin += (u, v)
        du, dv = dart_of(G, e, u), dart_of(G, e, v)
        rot[u].insert(rot[u].index(du) + 1, nd)
        rot[v].insert(rot[v].index(dv), nd + 1)

    for _ in range(loops):
        v = rnd.randrange(G.n)
        nd = len(origin)
        origin += (v, v)
        pos = rnd.randrange(len(rot[v]) + 1)
        rot[v][pos:pos] = [nd + 1, nd]

    outer = [G.faces[f][0] for f in G.outer_faces]
    return embed.EmbeddedGraph(G.n, origin, rot, _dedup_outer(origin, rot, outer))


def single_block_with_trees(count):
    """Seeded outerplane graphs with one 2-connected component and trees
    hanging off it, from the first ``count`` seeds."""
    for seed in range(count):
        G = gen.generate(gen.GenSpec("outerplane", 8 + seed % 50, seed, attachment_probability=0.8))
        blocks = biconnected_components(G)
        if len(blocks) == 1 and len(blocks[0]) < G.n:
            yield G


def nested_triangles():
    """Outer triangle 0,1,2; inner triangle 3,4,5 drawn inside it; spoke
    0-3.  Hand-traced faces: the outer walk, an 8-corner middle region and
    the inner triangle's core."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    rot = [[0, 12, 5], [2, 1], [4, 3], [6, 11, 13], [8, 7], [10, 9]]
    return embed.build(6, edges, rot, 0)


def disjoint_union(*graphs):
    """Side-by-side copies of embedded graphs, ids shifted in argument
    order; every copy keeps its embedding and its outer face."""
    origin, rot, outer = [], [], []
    for G in graphs:
        v0, d0 = len(rot), len(origin)
        origin.extend(u + v0 for u in G.origin)
        rot.extend([d + d0 for d in r] for r in G.rotations)
        outer.extend(d + d0 for d in G.canonical_outer_darts())
    return embed.EmbeddedGraph(len(rot), origin, rot, tuple(outer))


def k2k(k):
    """K_{2,k}: outer vertices 0 and 1 both joined to the inner vertices
    2..k+1, drawn left to right between them.  The outer face is
    0, 2, 1, k+1; the other k - 1 faces are 4-cycles through 0 and 1, so
    the augmentation joins 0 and 1 twice in each of them."""
    edges = []
    for j in range(k):
        edges += [(0, 2 + j), (2 + j, 1)]
    rot = [[4 * j for j in range(k)], [4 * j + 3 for j in reversed(range(k))]]
    rot += [[4 * j + 1, 4 * j + 2] for j in range(k)]
    return embed.build(k + 2, edges, rot, 0)


def straight_line(points, edges):
    """Plane graph drawn with straight edges between ``points``: each
    rotation lists its darts counterclockwise, and the outer face is the
    face of largest area (the drawing needs two inner faces or more)."""
    rot = [[] for _ in points]
    for e, (u, v) in enumerate(edges):
        rot[u].append(2 * e)
        rot[v].append(2 * e + 1)

    def head(d):
        return points[edges[d >> 1][1 - (d & 1)]]

    for v, r in enumerate(rot):
        x, y = points[v]
        r.sort(key=lambda d: math.atan2(head(d)[1] - y, head(d)[0] - x))
    G = embed.EmbeddedGraph(len(points), [x for e in edges for x in e], rot)

    def area(walk):
        ps = [points[G.origin[d]] for d in walk]
        return abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(ps, ps[1:] + ps[:1])))

    outer = max(G.faces, key=area)
    return embed.build(len(points), edges, rot, outer[0])


def hexagon_with_inner_star():
    """Hexagon 0..5 with vertex 6 + k/2 drawn inside the chord (k, k + 2)
    for k = 0, 2, 4 and joined to both its ends.  The middle face is
    0, 6, 2, 7, 4, 8: its layer-0 corners at 0, 2 and 4 each get both an
    incoming and an outgoing augmentation edge, and all three added edges
    are chords of the hexagon, so the layer keeps them."""
    points = [(10 * math.cos(k * math.pi / 3), 10 * math.sin(k * math.pi / 3)) for k in range(6)]
    for k in (0, 2, 4):
        (x0, y0), (x1, y1) = points[k], points[k + 2 if k < 4 else 0]
        points.append(((x0 + x1) / 4, (y0 + y1) / 4))
    edges = [(6, 0), (6, 2), (7, 2), (7, 4), (8, 4), (8, 0)]  # the middle face first
    edges += [(k, (k + 1) % 6) for k in range(6)]
    return straight_line(points, edges)


def single_vertex():
    return embed.EmbeddedGraph(1, [], [[]])


@pytest.fixture
def triangle():
    return polygon(3)
