import gc
import json
import random
import tracemalloc

import pytest

from thueplane import colour, embed, gen, verify
from thueplane.embed import ClassMismatchError, EmbeddingError

from conftest import (
    decorate_multigraph,
    disjoint_union,
    fan5,
    path_graph,
    polygon,
    showcase_graph,
    two_triangles_bridge,
    two_triangles_shared_vertex,
    wheel,
)
import support
from test_golden import golden_corpus


# -- construction and validation ----------------------------------------------


def test_triangle_faces(triangle):
    assert sorted(len(f) for f in triangle.faces) == [3, 3]
    assert len(triangle.inner_faces()) == 1
    assert embed.is_outerplane(triangle)


def test_single_edge_one_face():
    g = embed.build(2, [(0, 1)], [[0], [1]], 0)
    assert len(g.faces) == 1
    assert g.face_vertices(0) == (0, 1)


def test_loop_two_unit_faces():
    # hand trace of the face rule on a loop: both darts close on themselves
    g = embed.build(1, [(0, 0)], [[0, 1]], 0)
    assert sorted(len(f) for f in g.faces) == [1, 1]


def test_path3_single_walk():
    g = path_graph(3)
    assert len(g.faces) == 1
    assert len(g.faces[0]) == 4


def test_build_rejects_double_listed_dart():
    with pytest.raises(EmbeddingError):
        embed.build(2, [(0, 1)], [[0, 0], [1]], 0)


def test_build_rejects_wrong_origin():
    with pytest.raises(EmbeddingError):
        embed.build(2, [(0, 1)], [[1], [0]], 0)


def test_build_rejects_missing_dart():
    with pytest.raises(EmbeddingError):
        embed.build(2, [(0, 1)], [[0], []], 0)


def test_build_rejects_bad_outer_dart():
    with pytest.raises(EmbeddingError):
        embed.build(2, [(0, 1)], [[0], [1]], 7)


@pytest.mark.parametrize(
    "args",
    [
        (2, [(0, 1.5)], [[0], [1]], 0),  # was truncated to edge (0, 1)
        (2, [(0, True)], [[0], [1]], 0),  # was read as edge (0, 1)
        (2.0, [(0, 1)], [[0], [1]], 0),  # was a TypeError traceback
        (2, [(0, 1)], [[0], [1]], 0.0),  # was a TypeError traceback
    ],
)
def test_build_rejects_non_integers(args):
    with pytest.raises(EmbeddingError):
        embed.build(*args)


def test_face_partition_and_euler_over_corpus():
    for kind in ("tree", "outerplane", "plane", "cactus_even"):
        for seed in range(10):
            n = 2 + (seed * 9) % 40
            if kind == "plane":
                n = max(n, 3)
            G = gen.generate(gen.GenSpec(kind, n, seed))
            assert sum(len(f) for f in G.faces) == len(G.origin)
            # Euler is asserted inside the constructor; re-run explicitly
            G._validate_euler()


@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside a triangle and an isolated vertex"])
def test_build_rejects_a_rotation_system_of_genus_one(beside):
    # two loops at one vertex whose darts interleave: V=1, E=2, F=1 is a torus
    edges, rot = [(0, 0), (0, 0)], [[0, 2, 1, 3]]
    if beside:
        edges += [(1, 2), (2, 3), (3, 1)]
        rot += [[4, 9], [5, 6], [7, 8], []]
    with pytest.raises(EmbeddingError, match="Euler"):
        embed.build(len(rot), edges, rot, 0)


def test_face_tracing_deterministic():
    G = gen.generate(gen.GenSpec("outerplane", 25, 4))
    doc = embed.dumps_graph(G)
    G2 = embed.loads_graph(doc)
    assert G2.faces == G.faces
    assert embed.dumps_graph(G2) == doc


# -- outerplane queries ---------------------------------------------------------


def test_is_outerplane_examples(triangle):
    assert embed.is_outerplane(triangle)
    assert not embed.is_outerplane(wheel(4))
    assert embed.is_outerplane(path_graph(6))
    assert embed.is_outerplane(gen.generate(gen.GenSpec("tree", 12, 3)))


def test_outerplane_iff_outer_walk_covers():
    for seed in range(8):
        G = gen.generate(gen.GenSpec("outerplane", 20, seed))
        cover = set()
        for f in G.outer_faces:
            cover.update(G.face_vertices(f))
        assert cover == set(range(G.n))


def test_fan_chords_and_ears():
    fan = fan5()
    ch = support.chords(fan)
    assert len(ch) == 2
    er = support.ears(fan)
    assert len(er) == 2
    wd = support.weak_dual(fan)
    leaves = [f for f in wd.nodes if sum(1 for a, b, _ in wd.edges if f in (a, b)) == 1]
    assert sorted(f for f, _ in er) == sorted(leaves)


def test_single_cycle_no_chords_no_ears():
    c = polygon(8)
    assert support.chords(c) == []
    assert support.ears(c) == []


def test_two_triangles_sharing_edge_one_chord():
    g = polygon(4, [(0, 2)])
    assert len(support.chords(g)) == 1
    assert len(support.ears(g)) == 2  # both faces lean on the single chord


def test_chords_reject_non_outerplane():
    with pytest.raises(ClassMismatchError):
        support.chords(wheel(5))


def test_weak_dual_is_forest_on_corpus():
    for seed in range(8):
        G = gen.generate(gen.GenSpec("outerplane_biconnected", 14, seed))
        support.weak_dual(G)  # raises if cyclic


# -- connectivity ----------------------------------------------------------------


def test_blocks_and_bridges_examples():
    assert support.biconnected_components(two_triangles_shared_vertex()) == [
        (0, 1, 2),
        (2, 3, 4),
    ]
    assert embed.bridges(two_triangles_shared_vertex()) == []
    p = path_graph(4)
    assert support.biconnected_components(p) == []
    assert embed.bridges(p) == [0, 1, 2]
    with pytest.raises(ClassMismatchError):
        support.biconnected_components(wheel(5))


def test_showcase_hand_counts():
    G = showcase_graph()
    assert len(G.inner_faces()) == 3
    assert len(embed.bridges(G)) == 2
    assert len(support.biconnected_components(G)) == 2


def test_parallel_edges_are_not_bridges(triangle):
    g = decorate_multigraph(triangle, seed=1, parallels=2, loops=1)
    assert embed.bridges(g) == []


def _outerplane_oracle_corpus():
    """Outerplane graphs for the block-decomposition oracle: the golden
    corpus's outerplane graphs, every outerplane ``gen`` kind over many
    seeds, the small enumerations up to n = 8, and copies of half of them
    with parallel lenses and loops."""
    graphs = [G for G in golden_corpus() if embed.is_outerplane(G)]
    for kind in ("tree", "cycle", "cactus_even", "outerplane", "outerplane_biconnected",
                 "outerplane_bridgeless", "flower"):
        graphs += [gen.generate(gen.GenSpec(kind, 3 + seed % 40, seed)) for seed in range(300)]
    for n in range(1, 9):
        for kind in ("tree", "cycle", "outerplane_biconnected"):
            graphs += gen.enumerate_small(kind, n)
    graphs += [
        decorate_multigraph(G, seed=i, parallels=1 + i % 3, loops=1 + i % 2)
        for i, G in enumerate(graphs[::2])
    ]
    return graphs


def test_blocks_and_bridges_match_the_dfs_oracle():
    graphs = _outerplane_oracle_corpus()
    assert len(graphs) >= 3000
    multigraphs = 0
    for G in graphs:
        found = embed._blocks_and_bridges(G)
        blocks = [(vs, support.block_edges(G, fs, seg)) for vs, fs, seg in found]
        dfs_blocks, dfs_br = support.blocks_and_bridges_dfs(G)
        assert blocks == sorted(dfs_blocks)
        # the bridges are the blocks without a face, each its first dart's edge
        assert sorted(seg[0] >> 1 for _vs, fs, seg in found if not fs) == dfs_br
        # each inner face lies in one block, unless loops alone bound it
        # (inside a loop drawn in an outer face); a block's outer-cycle
        # darts are its edges, walk its vertices and lie on outer faces
        inside = sorted(f for _vs, fs, _seg in found for f in fs)
        missed = set(G.inner_faces()).difference(inside)
        assert len(set(inside)) == len(inside)
        assert all(G.origin[d] == G.origin[d ^ 1] for f in missed for d in G.faces[f])
        for (verts, _fs, seg), (_, es) in zip(found, blocks):
            assert {d >> 1 for d in seg} <= set(es)
            assert sorted(G.origin[d] for d in seg) == list(verts)
            assert all(G.is_outer_face(G.face_of[d]) for d in seg)
        multigraphs += any(u == v for u, v in support.edge_pairs(G))
    assert multigraphs >= 1000


def wheel_with_pendant(k):
    """``wheel(k)`` plus a pendant vertex on rim vertex 0, in the outer face."""
    W = wheel(k)
    m = len(W.origin)
    # the new dart goes just before an outer dart of vertex 0
    d = next(d for d in W.faces[W.outer_face] if W.origin[d] == 0)
    rot = [list(r) for r in W.rotations] + [[m + 1]]
    rot[0].insert(rot[0].index(d), m)
    return embed.build(k + 2, support.edge_pairs(W) + [(0, k + 1)], rot, d)


def test_bridges_face_test_matches_the_oracle_on_plane_graphs():
    graphs = [gen.generate(gen.GenSpec("plane", 3 + seed * 3, seed)) for seed in range(12)]
    graphs += [gen.generate(gen.GenSpec("nested", 3 + seed * 3, seed)) for seed in range(12)]
    graphs += [wheel(5), wheel_with_pendant(5)]
    for G in graphs:
        assert embed.bridges(G) == support.blocks_and_bridges_dfs(G)[1]
    assert embed.bridges(wheel_with_pendant(5)) == [10]


# -- surgery ---------------------------------------------------------------------


def test_contract_middle_of_path():
    p = path_graph(4)
    g, vmap = support.contract_edge(p, 1)
    assert g.n == 3 and len(g.origin) == 4
    assert vmap[1] == vmap[2]


def test_contract_triangle_edge_gives_parallel_pair(triangle):
    g, _ = support.contract_edge(triangle, 0)
    assert g.n == 2 and len(g.origin) == 4
    assert sorted(len(f) for f in g.faces) == [2, 2]


def test_contract_bridge_joins_blocks():
    g = two_triangles_bridge()
    (b,) = embed.bridges(g)
    g2, _ = support.contract_edge(g, b)
    assert len(support.biconnected_components(g2)) == 2
    assert embed.bridges(g2) == []


def test_contract_rejects_loop(triangle):
    g = decorate_multigraph(triangle, seed=0, parallels=0, loops=1)
    loop = next(e for e, (u, v) in enumerate(support.edge_pairs(g)) if u == v)
    with pytest.raises(EmbeddingError):
        support.contract_edge(g, loop)


def test_induced_subgraph_of_fan():
    sub, vmap = support.induced_embedded_subgraph(fan5(), [0, 1, 2])
    assert sub.n == 3 and len(sub.origin) == 6
    assert embed.is_outerplane(sub)
    assert vmap[3] == -1 and vmap[4] == -1


def test_induced_empty():
    sub, _ = support.induced_embedded_subgraph(fan5(), [])
    assert sub.n == 0 and sub.origin == ()


def test_add_edge_splits_face():
    sq = polygon(4)
    f = sq.inner_faces()[0]
    g = support.add_edge_in_face(sq, 0, 2, f)
    assert len(g.faces) == len(sq.faces) + 1
    assert sorted(len(w) for w in g.faces) == [3, 3, 4]
    assert embed.is_outerplane(g)


def test_add_edge_rejects_vertex_off_face():
    g = two_triangles_bridge()
    inner = g.inner_faces()
    off = [v for v in range(g.n) if v not in g.face_vertices(inner[0])][0]
    with pytest.raises(EmbeddingError):
        support.add_edge_in_face(g, off, g.face_vertices(inner[0])[0], inner[0])


def test_add_parallel_edge_in_face():
    sq = polygon(4)
    f = sq.inner_faces()[0]
    g = support.add_edge_in_face(sq, 0, 1, f)
    assert len(g.origin) == 10
    assert embed.is_outerplane(g)


def test_surgery_outputs_revalidate():
    for seed in range(6):
        G = gen.generate(gen.GenSpec("outerplane", 18, seed))
        f = G.inner_faces()
        if f:
            verts = G.face_vertices(f[0])
            g2 = support.add_edge_in_face(G, verts[0], verts[1], f[0])
            embed.graph_from_json(embed.graph_to_json(g2))
        sub, _ = support.induced_embedded_subgraph(G, range(0, G.n, 2))
        embed.graph_from_json(embed.graph_to_json(sub))
        if G.origin:
            e = next((i for i, (u, v) in enumerate(support.edge_pairs(G)) if u != v), None)
            if e is not None:
                g3, _ = support.contract_edge(G, e)
                embed.graph_from_json(embed.graph_to_json(g3))


# -- simplify --------------------------------------------------------------------


def test_simplify_drops_loops_and_parallels(triangle):
    g = decorate_multigraph(triangle, seed=3, parallels=3, loops=2)
    simple = embed.simplify(g)
    assert len(simple.origin) == 6
    assert embed.is_simple(simple) and not embed.is_simple(g)
    want = {frozenset(e) for e in support.edge_pairs(g) if e[0] != e[1]}
    assert {frozenset(e) for e in support.edge_pairs(simple)} == want


def test_simplify_preserves_facial_paths():
    # every facial path of the multigraph survives, with face ids ignored
    for seed in range(6):
        base = gen.generate(gen.GenSpec("outerplane", 9, seed))
        g = decorate_multigraph(base, seed=seed, parallels=3, loops=2)
        simple = embed.simplify(g)
        multi_paths = {p.vertices for p in verify.facial_paths(g)}
        simple_paths = {p.vertices for p in verify.facial_paths(simple)}
        assert multi_paths <= simple_paths


def test_simplify_returns_a_simple_graph_as_is():
    for kind in ("outerplane", "tree", "cactus_even", "flower"):
        G = gen.generate(gen.GenSpec(kind, 30, 1))
        assert embed.simplify(G) is G


def _renumbered_edges(G, seed):
    """G with its edge ids shuffled, so that its smallest dart may lie on an
    inner face; the embedding and the outer faces are unchanged."""
    perm = list(range(len(G.origin) >> 1))
    random.Random(seed).shuffle(perm)
    origin = [None] * len(G.origin)
    for d, v in enumerate(G.origin):
        origin[2 * perm[d >> 1] + (d & 1)] = v
    rot = [[2 * perm[d >> 1] + (d & 1) for d in r] for r in G.rotations]
    outer = [2 * perm[d >> 1] + (d & 1) for d in G.canonical_outer_darts()]
    return embed.EmbeddedGraph(G.n, origin, rot, outer)


def _simplify_corpus():
    """Multigraphs of every outerplane kind with parallels and loops, with
    their edges renumbered, their disjoint unions, and a 3-edge bundle and
    a loop with each of their faces designated outer."""
    kinds = ("tree", "cycle", "cactus_even", "outerplane", "outerplane_biconnected",
             "outerplane_bridgeless", "flower")
    graphs = []
    for seed in range(16):
        parts = [
            decorate_multigraph(gen.generate(gen.GenSpec(kind, 6 + 2 * seed, seed)), seed, 3, 2)
            for kind in kinds
        ]
        parts += [_renumbered_edges(G, seed) for G in parts]
        graphs += parts + [disjoint_union(*parts), disjoint_union(*parts[::-1])]
    bundle = [0, 1] * 3, [[0, 2, 4], [5, 3, 1]]
    loop = [0, 0], [[0, 1]]
    for origin, rot in (bundle, loop):
        G = embed.EmbeddedGraph(len(rot), origin, rot)
        for walk in G.faces:
            H = embed.EmbeddedGraph(len(rot), origin, rot, (walk[0],))
            graphs += [H, disjoint_union(H, polygon(4), H)]
    return graphs


def test_simplify_matches_the_restriction():
    # one sweep with every kept outer dart gives the graph that restricting
    # G to the kept edges, one outer dart per component, gives
    corpus = _simplify_corpus()
    assert sum(len(G.origin) != len(embed.simplify(G).origin) for G in corpus) > 250
    for G in corpus:
        got = embed.simplify(G)
        want, _emap = support.simplify_by_restriction(G)
        assert embed.graph_to_json(got) == embed.graph_to_json(want)
        assert got.outer_faces == want.outer_faces


def test_is_simple_finds_every_loop_and_parallel_pair():
    for G in _simplify_corpus():
        pairs = [(min(u, v), max(u, v)) for u, v in support.edge_pairs(G)]
        want = all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)
        assert embed.is_simple(G) == want
        assert embed.is_simple(embed.simplify(G))


def test_simplify_requires_outerplane():
    with pytest.raises(ClassMismatchError):
        embed.simplify(wheel(5))


# -- JSON ------------------------------------------------------------------------


def test_json_round_trip():
    graphs = [gen.generate(gen.GenSpec("outerplane", 15, seed)) for seed in range(5)]
    graphs += [gen.generate(gen.GenSpec(kind, 30, 1)) for kind in gen.KINDS]
    # two outer faces, so the document lists outer_darts beside outer_dart
    graphs.append(disjoint_union(polygon(5), wheel(4)))
    for G in graphs:
        doc = embed.graph_to_json(G)
        assert set(doc) >= {"n", "edges", "rotations", "outer_dart"}
        G2 = embed.graph_from_json(doc)
        assert G2.origin == G.origin and G2.rotations == G.rotations
        assert G2.outer_faces == G.outer_faces
    assert doc["outer_dart"] == doc["outer_darts"][0]


def test_json_rejects_garbage():
    with pytest.raises(EmbeddingError):
        embed.loads_graph("{not json")
    with pytest.raises(EmbeddingError):
        embed.loads_graph('{"n": 2}')


def test_block_subgraphs_inherit_embedding():
    G = showcase_graph()
    subs = support.block_subgraphs(G)
    assert len(subs) == 2
    for verts, sub, vmap in subs:
        assert embed.is_outerplane(sub)
        assert sub.n == len(verts)
        assert sorted(vmap[x] for x in verts) == list(range(sub.n))


def test_a_graph_keeps_one_copy_of_its_edge_ends():
    # what one graph read by loads_graph retains, by tracemalloc after a full
    # collection: its origin list holds every edge end, and a second copy of
    # the ends, as a tuple of pairs beside it, would retain about 450 B/vertex
    n = 10**4
    text = embed.dumps_graph(gen.generate(gen.GenSpec("outerplane", n, 0)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = embed.loads_graph(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G.n == n
    assert retained / n <= 400


def test_a_graph_does_not_share_the_lists_it_was_built_from():
    # the graph kept the caller's origin list and handed out face_of and
    # comp_of as lists, so a caller's edit left the faces stale unnoticed
    G = gen.generate(gen.GenSpec("outerplane", 30, 1))
    doc = embed.graph_to_json(G)
    origin = list(G.origin)
    H = embed.EmbeddedGraph(G.n, origin, G.rotations, G.canonical_outer_darts())
    F = embed.graph_from_json(doc)
    faces, face_of, text = H.faces, H.face_of, embed.dumps_graph(H)
    origin.reverse()
    doc["edges"].reverse()
    doc["edges"][0].append(0)
    for g in (H, F):
        assert type(g.origin) is type(g.face_of) is type(g.comp_of) is tuple
        assert (g.faces, g.face_of, embed.dumps_graph(g)) == (faces, face_of, text)


# -- the collector is paused inside (de)serialization, generation and the pipelines


@pytest.fixture
def collector():
    """Restores the collector's state after the test, whatever it does."""
    was = gc.isenabled()
    yield
    gc.enable() if was else gc.disable()


_RETURNS = {
    "loads_graph": lambda: embed.loads_graph(embed.dumps_graph(wheel(5))),
    "dumps_graph": lambda: embed.dumps_graph(wheel(5)),
    "graph_from_json": lambda: embed.graph_from_json(embed.graph_to_json(wheel(5))),
    "generate": lambda: gen.generate(gen.GenSpec("plane", 30, 2)),
    "colour_outerplane": lambda: colour.colour_outerplane(fan5()),
    "colour_plane": lambda: colour.colour_plane(wheel(5)),
    "colour_cactus_even": lambda: colour.colour_cactus_even(polygon(6)),
    "colour_outerplane_single_block": lambda: colour.colour_outerplane_single_block(fan5()),
}
_RAISES = {
    "colour_outerplane-class-mismatch": (ClassMismatchError, lambda: colour.colour_outerplane(wheel(5))),
    "graph_from_json-embedding-error": (EmbeddingError, lambda: embed.graph_from_json({"n": -1})),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", list(_RETURNS) + list(_RAISES))
def test_each_paused_call_leaves_the_collector_as_it_found_it(collector, name, enabled):
    gc.enable() if enabled else gc.disable()
    if name in _RETURNS:
        _RETURNS[name]()
    else:
        error, call = _RAISES[name]
        with pytest.raises(error):
            call()
    assert gc.isenabled() is enabled


def test_no_collection_runs_inside_generation_parsing_or_a_pipeline(collector):
    # before the pause, generating this graph made 10-17 collections and
    # colouring its document 41-48, at the default gen-0 threshold of 700;
    # the unwrapped calls show that the counter still sees them
    gc.enable()
    spec = gen.GenSpec("outerplane", 6000, 0)
    log = []

    def count(phase, info):
        if phase == "start":
            log.append(info["generation"])

    gc.callbacks.append(count)
    try:
        gc.collect()  # no allocation before a call's pause can reach the threshold
        del log[:]
        G = gen.generate(spec)
        in_generate = len(log)
        del log[:]
        doc = embed.dumps_graph(G)
        in_dumps = len(log)
        embed.dumps_graph.__wrapped__(G)
        dumps_unpaused = len(log)
        del G
        gc.collect()
        del log[:]
        colour.colour_outerplane(embed.loads_graph(doc))
        in_pipeline = len(log)
        gc.collect()
        del log[:]
        gen.generate.__wrapped__(spec)
        colour.colour_outerplane.__wrapped__(embed.graph_from_json.__wrapped__(json.loads(doc)))
        unpaused = len(log)
    finally:
        gc.callbacks.remove(count)
    assert (in_generate, in_dumps, in_pipeline) == (0, 0, 0)
    assert dumps_unpaused > 0
    assert unpaused >= 10
