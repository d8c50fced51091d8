import hashlib
import sys

import pytest

from thueplane import embed, gen
from thueplane.gen import GenSpec, enumerate_small, generate

from support import biconnected_components, blocks_and_bridges_dfs, chords, edge_pairs


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("nope", 5)
    with pytest.raises(ValueError):
        GenSpec("tree", 0)
    with pytest.raises(ValueError):
        GenSpec("tree", 5, chord_probability=1.5)


def test_cycle_is_cycle():
    G = generate(GenSpec("cycle", 5))
    assert G.n == 5 and all(len(G.rotations[v]) == 2 for v in range(5))


def class_failures(kind, n, G):
    """The parts of kind's class predicate that G fails, computed here:
    n vertices, simple, and for every kind but plane and nested graphs
    outerplane, then the kind's own shape.  Blocks and bridges come from
    the Hopcroft-Tarjan oracle."""
    blocks, bridge_ids = blocks_and_bridges_dfs(G)
    connected = len(G.components) == 1
    failed = [name for name, ok in (("n", G.n == n), ("simple", embed.is_simple(G))) if not ok]
    if kind == "nested" and not connected:
        failed.append("connected")
    if kind in ("plane", "nested"):
        return failed
    if not embed.is_outerplane(G):
        return failed + ["outerplane"]
    if kind == "tree":
        ok = connected and len(G.origin) == 2 * (n - 1)
    elif kind == "cycle":
        ok = connected and all(len(G.rotations[v]) == 2 for v in range(G.n))
    elif kind == "cactus_even":
        ok = not chords(G) and all(len(G.faces[f]) % 2 == 0 for f in G.inner_faces())
    elif kind == "outerplane_biconnected":
        ok = len(blocks) == 1 and len(blocks[0][0]) == n
    elif kind == "outerplane_bridgeless":
        ok = not bridge_ids
    elif kind == "flower":
        # every block meets vertex 0's bridge class, the vertices that
        # bridges join to it
        ends = [set(edge_pairs(G)[e]) for e in bridge_ids]
        stem = {0}
        while grown := stem.union(*(pair for pair in ends if stem & pair)) - stem:
            stem |= grown
        ok = connected and all(stem & set(vs) for vs, _es in blocks if len(vs) >= 3)
    else:
        ok = kind == "outerplane"
    return failed + ([] if ok else [kind])


def test_every_kind_meets_its_predicate():
    for kind in gen.KINDS:
        small = {"cycle": 9, "outerplane_biconnected": 12, "plane": 30}.get(kind, 17)
        for n in (small, 200):
            for seed in (0, 1, 2):
                assert class_failures(kind, n, generate(GenSpec(kind, n, seed))) == [], (kind, n, seed)
    for kind in gen.ENUM_KINDS:
        for n in range(1, gen.ENUM_GUARD + 1):
            for G in enumerate_small(kind, n):
                assert class_failures(kind, n, G) == [], (kind, n, embed.dumps_graph(G))


def test_biconnected_predicates():
    G = generate(GenSpec("outerplane_biconnected", 12, 7))
    assert embed.is_outerplane(G)
    blocks = biconnected_components(G)
    assert len(blocks) == 1 and len(blocks[0]) == 12


def test_plane_euler_holds():
    G = generate(GenSpec("plane", 30, 1))
    assert G.n - (len(G.origin) >> 1) + len(G.faces) == 2


def test_seed_determinism_bytes():
    for kind in gen.KINDS:
        n = 11 if kind != "cycle" else 9
        a = embed.dumps_graph(generate(GenSpec(kind, n, 5)))
        b = embed.dumps_graph(generate(GenSpec(kind, n, 5)))
        c = embed.dumps_graph(generate(GenSpec(kind, n, 6)))
        assert a == b
        assert a != c or kind == "cycle"  # cycles ignore the seed


def test_chord_probability_zero_gives_cycle():
    G = generate(GenSpec("outerplane_biconnected", 10, 3, chord_probability=0.0))
    assert chords(G) == []


def test_chord_probability_one_triangulates():
    G = generate(GenSpec("outerplane_biconnected", 10, 3, chord_probability=1.0))
    assert len(chords(G)) == 10 - 3


def test_bridgeless_rejects_two():
    with pytest.raises(ValueError):
        generate(GenSpec("outerplane_bridgeless", 2))


def test_enumerate_trees_counts():
    # free trees on n vertices (OEIS A000055): 1, 1, 1, 2, 3, 6, 11, 23, 47,
    # and past the guard, from the level sequences alone, 106, 235, 551
    for n, want in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47)]:
        assert sum(1 for _ in enumerate_small("tree", n)) == want
    for n, want in [(10, 106), (11, 235), (12, 551)]:
        parents = [tuple(p) for p in gen._free_trees(n)]
        assert len(parents) == len(set(parents)) == want
        assert all(p[0] == -1 and all(p[v] < v for v in range(1, n)) for p in parents)


def test_enumerate_trees_without_networkx(monkeypatch):
    # the tree enumeration once imported networkx for one call; an entry of
    # None in sys.modules makes any import of it fail
    monkeypatch.setitem(sys.modules, "networkx", None)
    assert sum(1 for _ in enumerate_small("tree", 9)) == 47


# SHA-256 over every enumerate_small(kind, n) graph, for trees, cycles and
# 2-connected outerplane graphs in turn and n = 1..9 in order, one JSON line
# per graph, recorded while networkx enumerated the trees: it pins the
# graphs, their order and their darts
ENUMERATION_DIGEST = "f522a4b7f6afdd9eb39bfcbe27eb33d8374f7f0dc89b6c59a76d1bbedcaafd66"


def test_enumeration_golden_digest():
    h = hashlib.sha256()
    count = 0
    for kind in ("tree", "cycle", "outerplane_biconnected"):
        for n in range(1, gen.ENUM_GUARD + 1):
            for G in enumerate_small(kind, n):
                h.update(embed.dumps_graph(G).encode() + b"\n")
                count += 1
    assert (h.hexdigest(), count) == (ENUMERATION_DIGEST, 474)


def test_enumerate_cycle():
    gs = list(enumerate_small("cycle", 6))
    assert len(gs) == 1 and gs[0].n == 6


def test_enumerate_biconnected_square():
    # square: bare cycle plus one chord class
    gs = list(enumerate_small("outerplane_biconnected", 4))
    assert len(gs) == 2
    chord_counts = sorted(len(chords(G)) for G in gs)
    assert chord_counts == [0, 1]


def test_enumerate_biconnected_pentagon():
    # pentagon: bare, one diagonal, or a two-diagonal fan (all fans coincide
    # up to symmetry)
    gs = list(enumerate_small("outerplane_biconnected", 5))
    assert len(gs) == 3
    assert sorted(len(chords(G)) for G in gs) == [0, 1, 2]


def test_enumerate_below_the_smallest_size_yields_nothing():
    for kind in ("tree", "cycle", "outerplane_biconnected"):
        for n in (-3, 0):
            assert list(enumerate_small(kind, n)) == []


def test_enumerate_guard():
    with pytest.raises(ValueError):
        list(enumerate_small("tree", 10))
    with pytest.raises(ValueError):
        list(enumerate_small("plane", 5))


def test_nested_rings_are_peeling_layers():
    from thueplane.colour import peeling_layering

    from support import layer_graphs

    for n, seed in [(3, 0), (11, 5), (40, 1), (97, 2), (300, 3)]:
        G = generate(GenSpec("nested", n, seed))
        layer = peeling_layering(G).layer
        # ids run ring by ring from the outside in, and ring i is layer i
        assert list(layer) == sorted(layer)
        for _ids, ring in layer_graphs(G, layer):
            assert ring.n >= 3 and len(ring.components) == 1
            assert all(len(ring.rotations[v]) == 2 for v in range(ring.n))


# SHA-256 over the ``gen`` plane output, one JSON line per graph, recorded
# with the generator that rebuilt the graph after each inserted vertex
PLANE_DIGEST = "8ace8834a2b62dd9aa921c391bbd4aa86305d74419e5bbcae75844029f567215"


def test_plane_generator_golden_digest():
    pairs = [(n, seed) for n in range(1, 61) for seed in range(5)]
    pairs += [(300, 0), (1000, 0), (2000, 1)]
    h = hashlib.sha256()
    for n, seed in pairs:
        h.update(embed.dumps_graph(generate(GenSpec("plane", n, seed))).encode() + b"\n")
    assert h.hexdigest() == PLANE_DIGEST


def test_plane_generator_matches_the_rebuild_oracle():
    # the face-splitting generator against the one that rebuilt the graph
    # after each inserted vertex, on seeds the digest above does not cover
    from support import gen_plane_rebuild

    pairs = [(n, seed) for n in range(1, 61) for seed in range(5, 12)]
    pairs += [(150, 10), (220, 11), (300, 12)]
    for n, seed in pairs:
        spec = GenSpec("plane", n, seed)
        assert embed.dumps_graph(generate(spec)) == embed.dumps_graph(gen_plane_rebuild(spec)), (n, seed)


# SHA-256 over the ``gen`` output of every kind but plane, one JSON line per
# graph: every n up to 40 with three seeds, the first-block rule of the
# bridgeless kind at n = 3..14 with twenty more seeds, triangulations of
# long polygons up to n = 3,001 (one with every chord kept) and n = 1,000
# of each kind
OUTERPLANE_KINDS_DIGEST = "91189fa0c7ffd4e657a28a95deb384cfac135a54068a10620d7b8853b02fdfcb"


def test_non_plane_generators_golden_digest():
    kinds = [kind for kind in gen.KINDS if kind != "plane"]
    specs = [
        GenSpec(kind, n, seed)
        for kind in kinds
        for n in range(gen._MIN_N.get(kind, 1), 41)
        if not (kind == "outerplane_bridgeless" and n == 2)
        for seed in range(3)
    ]
    specs += [GenSpec("outerplane_bridgeless", n, seed) for n in range(3, 15) for seed in range(3, 23)]
    specs += [GenSpec("outerplane_biconnected", n, seed) for n, seed in [(100, 0), (333, 1), (1000, 2), (3001, 3)]]
    specs += [GenSpec(kind, 1000, 7) for kind in kinds]
    specs.append(GenSpec("outerplane_biconnected", 3000, 4, chord_probability=1.0))
    h = hashlib.sha256()
    for spec in specs:
        h.update(embed.dumps_graph(generate(spec)).encode() + b"\n")
    assert h.hexdigest() == OUTERPLANE_KINDS_DIGEST
