import hashlib

import pytest

from thueplane import embed, gen
from thueplane.gen import GenSpec, enumerate_small, generate

from support import biconnected_components, chords


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("nope", 5)
    with pytest.raises(ValueError):
        GenSpec("tree", 0)
    with pytest.raises(ValueError):
        GenSpec("tree", 5, chord_probability=1.5)


def test_cycle_is_cycle():
    G = generate(GenSpec("cycle", 5))
    assert G.n == 5 and all(G.degree(v) == 2 for v in range(5))


def test_every_kind_meets_its_predicate():
    # generate() runs the class predicate internally; survival is the test
    for kind in gen.KINDS:
        for seed in (0, 1, 2):
            n = {"cycle": 9, "outerplane_biconnected": 12, "plane": 30}.get(kind, 17)
            G = generate(GenSpec(kind, n, seed))
            assert G.n == n


def test_biconnected_predicates():
    G = generate(GenSpec("outerplane_biconnected", 12, 7))
    assert embed.is_outerplane(G)
    blocks = biconnected_components(G)
    assert len(blocks) == 1 and len(blocks[0]) == 12


def test_plane_euler_holds():
    G = generate(GenSpec("plane", 30, 1))
    assert G.n - len(G.edges) + len(G.faces) == 2


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
    # free trees on n vertices: 1, 1, 1, 2, 3, 6, 11, 23
    for n, want in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23)]:
        assert sum(1 for _ in enumerate_small("tree", n)) == want


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
            assert all(ring.degree(v) == 2 for v in range(ring.n))


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
