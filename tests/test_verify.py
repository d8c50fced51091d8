import pytest

from thueplane import colour, embed, gen, kernels, verify
from thueplane.verify import exact_pi_f, facial_paths, verify_facial_nonrepetitive

from conftest import path_graph, polygon
from support import all_tree_paths, naive_facial_paths


# -- facial path enumeration -----------------------------------------------------


def test_triangle_paths(triangle):
    lens = sorted(len(p) for p in facial_paths(triangle))
    # two faces, each contributing paths of lengths 1..3
    assert lens.count(1) == 6 and lens.count(2) == 6 and lens.count(3) == 6


def test_path3_subpaths():
    g = path_graph(3)
    got = {p.vertices for p in facial_paths(g)}
    want = {(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)}
    assert got == want


def test_cut_vertex_never_repeats():
    from conftest import two_triangles_shared_vertex

    g = two_triangles_shared_vertex()
    for p in facial_paths(g):
        assert len(set(p.vertices)) == len(p.vertices)


def test_canonical_direction():
    for p in facial_paths(polygon(6)):
        if len(p) >= 2:
            assert p.vertices[0] < p.vertices[-1]


def test_matches_naive_enumerator_small():
    for kind, lo in (("tree", 1), ("cycle", 3), ("outerplane_biconnected", 3)):
        for n in range(lo, 8):
            for G in gen.enumerate_small(kind, n):
                a = {(p.face, p.vertices) for p in facial_paths(G)}
                assert a == naive_facial_paths(G), (kind, n)


# -- verification ------------------------------------------------------------------


def test_triangle_ok(triangle):
    assert verify_facial_nonrepetitive(triangle, [1, 2, 3]) is None


def test_square_alternation_caught():
    bad = verify_facial_nonrepetitive(polygon(4), [1, 2, 1, 2])
    assert bad is not None
    assert len(bad.vertices) == 4


def test_pipeline_output_verifies():
    G = gen.generate(gen.GenSpec("outerplane", 30, 11))
    c = colour.colour_outerplane(G)
    assert verify_facial_nonrepetitive(G, c.colours) is None


def test_partial_colouring_rejected(triangle):
    with pytest.raises(ValueError):
        verify_facial_nonrepetitive(triangle, [1, 2])
    with pytest.raises(ValueError):
        verify_facial_nonrepetitive(triangle, [1, None, 2])


def test_bool_colours_rejected(triangle):
    # True and False are ints to isinstance, but not colours
    with pytest.raises(ValueError, match="non-negative integers"):
        verify_facial_nonrepetitive(triangle, [True, 2, 3])
    with pytest.raises(ValueError, match="non-negative integers"):
        verify_facial_nonrepetitive(triangle, [1, 2, False])
    with pytest.raises(ValueError, match="non-negative integers"):
        verify_facial_nonrepetitive(triangle, [1, -2, 3])


def test_counterexample_is_earliest():
    # the reported face is the smallest failing face id and the block the
    # earliest, shortest repetition on its walk
    g = polygon(6)
    bad = verify_facial_nonrepetitive(g, [1, 1, 2, 3, 2, 3])
    assert bad is not None
    assert bad.vertices == (0, 1)


def test_counterexample_against_definitional_check():
    # agree with a from-scratch check over every facial path
    import random

    from thueplane.kernels import find_square

    rnd = random.Random(3)
    for seed in range(40):
        n = 3 + seed % 10
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        colours = [rnd.randrange(1, 4) for _ in range(G.n)]
        slow_bad = any(
            find_square([colours[v] for v in p.vertices]) is not None
            for p in facial_paths(G)
        )
        fast_bad = verify_facial_nonrepetitive(G, colours) is not None
        assert slow_bad == fast_bad, seed


def test_kernel_reporting_a_false_square_raises(monkeypatch):
    # the check is a raise, not an assert, so it holds under python -O too
    G = polygon(6)
    good = colour.colour_outerplane(G).colours
    assert verify_facial_nonrepetitive(G, good) is None
    monkeypatch.setattr(kernels, "find_square", lambda seq, max_half=0: (0, 1))
    with pytest.raises(RuntimeError, match="the kernel reports a repetition"):
        verify_facial_nonrepetitive(G, good)


def test_facial_path_has_no_instance_dict():
    path = verify_facial_nonrepetitive(polygon(4), [1, 2, 1, 2])
    assert not hasattr(path, "__dict__")
    with pytest.raises(AttributeError):
        path.face = 1


def test_counterexample_json(triangle):
    bad = verify_facial_nonrepetitive(polygon(4), [1, 2, 1, 2])
    doc = verify.counterexample_to_json([1, 2, 1, 2], bad)
    assert set(doc) == {"face", "vertices", "colours"}
    assert doc["colours"] == [1, 2, 1, 2]


# -- exact search ---------------------------------------------------------------------


def test_cycle_exact_values():
    for n, want in [(3, 3), (4, 3), (5, 4), (6, 3), (7, 4), (8, 3), (9, 4), (10, 4), (11, 3), (12, 3)]:
        assert exact_pi_f(polygon(n), 5) == want, n


def test_single_edge_exact():
    g = embed.build(2, [(0, 1)], [[0], [1]], 0)
    assert exact_pi_f(g, 4) == 2


def test_exceeds_max():
    assert exact_pi_f(polygon(5), 3) is None


def test_guard_enforced(monkeypatch):
    with pytest.raises(ValueError):
        exact_pi_f(polygon(13), 4)
    monkeypatch.setattr(verify, "SEARCH_GUARD", 13)
    assert exact_pi_f(polygon(13), 4) == 3


def test_a_star_has_paths_that_are_not_facial():
    # K_{1,4} with rotation (1, 2, 3, 4) at the centre: its one face walk
    # takes no two opposite leaves in a row
    star = embed.build(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [[0, 2, 4, 6], [1], [3], [5], [7]], 0)
    facial = {p.vertices for p in facial_paths(star) if len(p) >= 2}
    paths = {verify._canonical(p) for p in all_tree_paths(star)}
    assert facial < paths
    assert paths - facial == {(1, 0, 3), (2, 0, 4)}


def test_exact_never_exceeds_pipeline():
    for seed in range(25):
        n = 3 + seed % 8
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        c = colour.colour_outerplane(G)
        exact = exact_pi_f(G, 11)
        assert exact is not None
        assert exact <= c.distinct_colours()
