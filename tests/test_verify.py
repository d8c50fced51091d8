import random
import time

import pytest

from thueplane import colour, embed, gen, kernels, verify, words
from thueplane.verify import exact_pi_f, facial_paths, verify_facial_nonrepetitive

from conftest import decorate_multigraph, path_graph, polygon
from square_oracle import first_square_in_face
from support import all_tree_paths, naive_facial_paths
from test_golden import golden_corpus


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


def test_dict_and_set_colourings_rejected():
    # read as a sequence, the dict {v: 1} would be its keys 0..5, which
    # pass, though its colours 1 1 are a square; a set has no vertex order
    G = gen.generate(gen.GenSpec("cycle", 6))
    assert verify_facial_nonrepetitive(G, [1] * 6) == verify.FacialPath(0, (0, 1), True)
    with pytest.raises(ValueError, match="list or tuple, not dict"):
        verify_facial_nonrepetitive(G, {v: 1 for v in range(6)})
    with pytest.raises(ValueError, match="list or tuple, not set"):
        verify_facial_nonrepetitive(G, {1, 2, 3, 4, 5, 6})
    assert verify_facial_nonrepetitive(G, (1, 2, 3, 1, 2, 3)) is not None


def test_counterexample_is_earliest():
    # the reported face is the smallest failing face id and the block the
    # earliest, shortest repetition on its walk
    g = polygon(6)
    bad = verify_facial_nonrepetitive(g, [1, 1, 2, 3, 2, 3])
    assert bad is not None
    assert bad.vertices == (0, 1)


def test_counterexample_against_definitional_check():
    # agree with a from-scratch check over every facial path
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
    # the check is a raise, not an assert, so it holds under python -O too.
    # Each face has more darts than the short-face screen reads, so
    # find_square names the witness: on the cycle once the band is shut,
    # on the path's outer walk by its windows; the verifier's check of the
    # returned path raises on both
    for G in (polygon(65), path_graph(34)):
        good = colour.colour_outerplane(G).colours
        assert verify_facial_nonrepetitive(G, good) is None
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_BAND", 0)
            patch.setattr(kernels, "find_square", lambda seq, max_half=0: (0, 1))
            with pytest.raises(RuntimeError, match="the kernel reports a repetition"):
                verify_facial_nonrepetitive(G, good)


def _path_with_a_late_square():
    # the outer walk runs 0, 1, ..., n - 1 and back; a square-free word along
    # the path, with a square of half 3 planted where the walk turns
    n = 16000
    G = path_graph(n)
    good = list(words.ternary_nonrepetitive(n))
    return G, good, G.face_vertices(G.outer_face), n - 7


def _cycle_with_a_late_square():
    L = 20000
    G = gen.generate(gen.GenSpec("cycle", L))
    walk = G.face_vertices(G.outer_face)
    good = [None] * L
    for v, c in zip(walk, words.cycle_colouring(L)):
        good[v] = c
    return G, good, walk, L - 10


def _best_of_2(G, colours):
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        hit = verify_facial_nonrepetitive(G, colours)
        times.append(time.perf_counter() - t0)
    return min(times), hit


@pytest.mark.parametrize("make", [_path_with_a_late_square, _cycle_with_a_late_square], ids=["path", "cycle"])
def test_rejecting_a_late_square_costs_at_most_twice_accepting(make):
    # the witness search must stay near-linear: a search that tries the
    # starts before the square one by one is quadratic here
    G, good, walk, start = make()
    bad = list(good)
    for t in range(3):
        bad[walk[start + 3 + t]] = bad[walk[start + t]]
    accept, hit = _best_of_2(G, good)
    assert hit is None
    reject, hit = _best_of_2(G, bad)
    assert hit is not None and walk.index(hit.vertices[0]) >= start - 6  # the plant, or a square it made
    assert reject <= 2 * accept, (reject, accept)


# -- the short-face screen ---------------------------------------------------------


def _unscreened(G, colours):
    """verify_facial_nonrepetitive without the short-face screen: the exact
    per-face search on every face."""
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        hit = verify._first_square_in_face(verts, colours)
        if hit is not None:
            s, r = hit
            return verify.FacialPath(f, tuple(verts[(s + k) % len(verts)] for k in range(2 * r)), G.is_outer_face(f))
    return None


def _planted(G, colours, f, start, half):
    """``colours`` with the square of half ``half`` from ``start`` planted on
    the walk of face f; on a walk that repeats a vertex a later write wins."""
    verts = G.face_vertices(f)
    out = list(colours)
    for t in range(half):
        out[verts[(start + half + t) % len(verts)]] = out[verts[(start + t) % len(verts)]]
    return out


def _screen_cases():
    """(name, graph, colouring): the golden corpus (trees, cacti, plane graphs
    and multigraph digons and loops among it), two nested loops with a
    pendant edge (walks (0, 0) and (0, 0, 1)) and cycles of 3 to 65 vertices,
    with pipeline colourings, squares planted on the first simple and the
    first repeating walk of every length from 2 to 65, random colourings, and
    colours past the range of ``chr``."""
    rnd = random.Random(53)
    loops = embed.build(2, [(0, 0), (0, 0), (0, 1)], [[0, 2, 3, 1, 4], [5]], 0)
    graphs = golden_corpus() + [loops] + [polygon(L) for L in range(3, 66)]
    coloured = [(G, colour.colour_plane(G).colours) for G in graphs]
    planted = set()  # (face length, walk is simple)
    for i, (G, good) in enumerate(coloured):
        yield f"graph {i}", G, good
        for palette in (2, 3, 5):
            yield f"graph {i} random {palette}", G, [rnd.randrange(palette) for _ in range(G.n)]
        wide = list(good)
        wide[rnd.randrange(G.n)] += 0x110000
        yield f"graph {i} one wide colour", G, wide
        for f in range(len(G.faces)):
            verts = G.face_vertices(f)
            L = len(verts)
            kind = (L, len(set(verts)) == L)
            if not 2 <= L <= 65 or kind in planted:
                continue
            planted.add(kind)
            for start in {0, L - 1, rnd.randrange(L)}:
                for half in {1, L // 2, rnd.randint(1, L // 2)}:
                    bad = _planted(G, good, f, start, half)
                    yield f"graph {i} face {f} plant {start} {half}", G, bad
                    yield f"graph {i} face {f} wide plant {start} {half}", G, [c + 0x110000 for c in bad]
    assert {L for L, _ in planted} == set(range(2, 66))
    assert {L for L, simple in planted if not simple} >= {2, 3, 4, 8, 64}


def test_screen_gives_the_unscreened_verdict_and_witness():
    rejected = 0
    for name, G, colours in _screen_cases():
        want = _unscreened(G, colours)
        assert verify_facial_nonrepetitive(G, colours) == want, name
        rejected += want is not None
    assert rejected > 1000


def _face_scan(G, colours):
    """The verdict face by face in id order, by the oracle's per-start scan."""
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        hit = first_square_in_face(verts, colours, len(verts))
        if hit is not None:
            s, r = hit
            return verify.FacialPath(f, tuple(verts[(s + k) % len(verts)] for k in range(2 * r)), G.is_outer_face(f))
    return None


def _short_walk_plants():
    """(name, graph, colouring): seeded gen outerplane and plane graphs of
    200 vertices and a multigraph with loops and digons, each with its
    certified colouring and with one edge of a walk of at most 3 darts
    given one colour at both ends: on the first such walk, the last and
    a random one, each also after a square of half 2 planted on an
    earlier, longer face."""
    rnd = random.Random(34)
    base = gen.generate(gen.GenSpec("outerplane", 60, 1))
    graphs = [gen.generate(gen.GenSpec(kind, 200, seed)) for kind in ("outerplane", "plane") for seed in range(3)]
    graphs.append(decorate_multigraph(base, seed=2, parallels=3, loops=3))
    assert {1, 2} <= {len(walk) for walk in graphs[-1].faces}  # a loop and a digon
    for i, G in enumerate(graphs):
        good = colour.colour_plane(G).colours
        yield f"graph {i}", G, good
        origin = G.origin
        short = [f for f, walk in enumerate(G.faces) if len(walk) <= 3 and any(origin[d] != origin[d ^ 1] for d in walk)]
        for f in (short[0], short[-1], rnd.choice(short)):
            d = next(d for d in G.faces[f] if origin[d] != origin[d ^ 1])
            bad = list(good)
            bad[origin[d ^ 1]] = bad[origin[d]]
            yield f"graph {i} face {f}", G, bad
            longer = [g for g in range(f) if len(G.faces[g]) >= 4]
            if longer:
                yield f"graph {i} face {f} after a longer face", G, _planted(G, bad, rnd.choice(longer), 0, 2)


def test_an_equal_coloured_edge_on_a_short_walk_is_found_in_face_order():
    # the first walk of at most 3 darts starts one pass over the edges; only
    # when it finds an edge whose two distinct ends share a colour do the
    # short walks get searched one by one
    faces = []
    for name, G, colours in _short_walk_plants():
        want = _face_scan(G, colours)
        assert verify_facial_nonrepetitive(G, colours) == want, name
        faces.append(None if want is None else len(G.faces[want.face]))
    assert faces.count(None) == 7
    assert any(L is not None and L <= 3 for L in faces) and any(L is not None and L >= 4 for L in faces)


#: one range of names per kernel route: with bytes a cycle takes the per-half
#: pass, with other characters find_square behind the regex screen, and past
#: the range of chr the screen is off everywhere
RENAMING_RANGES = {"byte": range(256), "char": range(256, 0x110000), "past chr": range(0x110000, 1 << 40)}


def test_verdict_does_not_depend_on_the_colours_names():
    rnd = random.Random(12)
    cases = 0
    for name, G, colours in _screen_cases():
        want = verify_facial_nonrepetitive(G, colours)
        names = sorted(set(colours))
        for route, target in RENAMING_RANGES.items():
            rename = dict(zip(names, rnd.sample(target, len(names))))
            assert verify_facial_nonrepetitive(G, [rename[c] for c in colours]) == want, (name, route)
        cases += 1
    assert cases > 2000


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
