"""Verdicts and witnesses on simple cycles around the per-half pass's band.

``verify_facial_nonrepetitive`` and ``support.has_cyclic_repetition`` must
give what a ``find_square(seq + seq, max_half=L // 2)`` decision gives, and
the verifier must name the counterexample ``square_oracle`` names.  The
band is patched down to ``BAND`` labels so that its edges are cheap to
reach.  Labels of 256 or more go to ``find_square`` at any length."""

import random

import pytest

from thueplane import colour, gen, kernels, verify, words

import square_oracle
from conftest import decorate_multigraph, disjoint_union
from support import has_cyclic_repetition

BAND = 600
ONE_BYTE = (64, 65, 127, 128, 129, BAND, BAND + 1)
#: in-band lengths with more than 256 distinct labels, which the pass leaves to find_square
WIDE_LABELS = (BAND // 2, BAND // 2 + 1)


@pytest.fixture(autouse=True)
def _narrow_band(monkeypatch):
    monkeypatch.setattr(kernels, "_BAND", BAND)


def _planted(codes, start, half):
    out = list(codes)
    L = len(out)
    for t in range(half):
        out[(start + half + t) % L] = out[(start + t) % L]
    return out


def _one_byte_words(L, rnd):
    G = gen.generate(gen.GenSpec("cycle", L))
    certified = colour.colour_outerplane(G).colours
    yield "certified", [certified[v] for v in G.face_vertices(G.outer_face)]
    free = list(words.cycle_colouring(L))
    yield "square-free", free
    for palette in (2, 3, 5):
        yield f"random {palette}", [rnd.randrange(palette) for _ in range(L)]
    for start in {0, 1, L // 2, L - 1, rnd.randrange(L)}:
        for half in {1, 2, L // 4, L // 2, rnd.randint(1, L // 2)}:
            yield f"plant {start} {half}", _planted(free, start, half)
    # the earlier start holds the larger half
    yield "two plants", _planted(_planted(free, L - 3, 1), L // 3, L // 5)


def _wide_words(L, rnd):
    # distinct labels, so square-free
    free = [rnd.randrange(4) + 256 * i for i in range(L)]
    yield "square-free", free
    yield "shuffled", rnd.sample(range(1 << 16), L)
    for start in {0, 1, L // 2, L - 1}:
        for half in {1, 3, L - 257}:  # a plant of half h leaves L - h labels
            yield f"plant {start} {half}", _planted(free, start, half)
    many = list(free)
    for _ in range(6):
        many = _planted(many, rnd.randrange(L), rnd.randint(1, 7))
    yield "six plants", many


def _words():
    rnd = random.Random(37)
    for L in ONE_BYTE:
        for name, codes in _one_byte_words(L, rnd):
            yield L, 1, name, codes
    for L in WIDE_LABELS:
        for name, codes in _wide_words(L, rnd):
            assert len(set(codes)) > 256
            yield L, 2, name, codes


WORDS = list(_words())


def _reference(G, colours):
    """The first failing face by a Main–Lorentz decision, and the
    oracle's smallest (start, half) on it."""
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        L = len(verts)
        seq = [colours[v] for v in verts]
        if kernels.find_square(seq + seq, max_half=L // 2) is None:
            continue
        hit = square_oracle.first_square_on_cycle(verts, colours)
        assert hit is not None
        s, r = hit
        return verify.FacialPath(f, tuple(verts[(s + k) % L] for k in range(2 * r)), G.is_outer_face(f))
    return None


@pytest.mark.parametrize("L", sorted({L for L, *_ in WORDS}))
def test_verify_verdicts_and_witnesses_on_cycles(L):
    G = gen.generate(gen.GenSpec("cycle", L))
    outer = G.face_vertices(G.outer_face)
    rejected = 0
    for _, width, name, codes in (w for w in WORDS if w[0] == L):
        colours = [None] * L
        for v, c in zip(outer, codes):
            colours[v] = c
        want = _reference(G, colours)
        assert verify.verify_facial_nonrepetitive(G, colours) == want, (L, width, name)
        rejected += want is not None
        # far-apart colour values relabel to the same witness
        spread = [10**9 + 7919 * c for c in colours]
        assert verify.verify_facial_nonrepetitive(G, spread) == want, (L, width, name)
    assert rejected


def test_has_cyclic_repetition_matches_main_lorentz():
    for L, width, name, codes in WORDS:
        variants = [codes] if width == 2 else [codes, [c + 256 for c in codes]]
        for seq in variants:
            want = kernels.find_square(seq + seq, max_half=L // 2) is not None
            assert has_cyclic_repetition(seq) == want, (L, width, name)


def test_interleaved_search_above_the_band(monkeypatch):
    # every word lies above a band of 32 labels, so find_square on the
    # doubled word names the witness
    monkeypatch.setattr(kernels, "_BAND", 32)
    rnd = random.Random(43)
    for L, width, name, codes in WORDS:
        verts = rnd.sample(range(2 * L), L)
        colours = dict(zip(verts, codes))
        want = square_oracle.first_square_on_cycle(verts, colours)
        assert verify._first_square_in_face(verts, colours) == want, (L, width, name)


def _counting(monkeypatch):
    calls = []
    real = kernels.find_square

    def find_square(seq, max_half=0):
        calls.append(len(seq))
        return real(seq, max_half)

    monkeypatch.setattr(kernels, "find_square", find_square)
    return calls


def test_band_faces_make_no_find_square_call(monkeypatch):
    cases = []
    for L in (64, 65, BAND, BAND + 1):
        G = gen.generate(gen.GenSpec("cycle", L))
        good = colour.colour_outerplane(G).colours
        outer = G.face_vertices(G.outer_face)
        bad = list(good)
        bad[outer[L // 2 + 1]] = bad[outer[L // 2]]
        cases.append((L, G, good, bad))
    calls = _counting(monkeypatch)
    for L, G, good, bad in cases:
        # a band face never goes to find_square, and a short face that the
        # short-face screen flags goes to the per-half pass as well
        in_band = L <= BAND
        del calls[:]
        assert verify.verify_facial_nonrepetitive(G, good) is None
        assert calls == ([] if in_band else [2 * L]), L  # the second face is the first reversed
        del calls[:]
        assert verify.verify_facial_nonrepetitive(G, bad) is not None
        assert calls == ([] if in_band else [2 * L]), L
    for L, G, good, _ in cases[1:3]:
        # labels of 256 or more go to find_square inside the band too
        del calls[:]
        assert verify.verify_facial_nonrepetitive(G, [c + 256 for c in good]) is None
        assert calls == [2 * L], L
    for L in (64, BAND, BAND + 1):
        del calls[:]
        assert not has_cyclic_repetition(words.cycle_colouring(L))
        assert calls == ([] if L <= BAND else [2 * L]), L


def _cycle_words(G):
    """A square-free cycle word along the first face of each component that
    passes all of its vertices, and the walks of those faces."""
    colours = [None] * G.n
    walks = []
    for comp in G.components:
        verts = next(w for w in map(G.face_vertices, range(len(G.faces))) if sorted(w) == list(comp))
        for v, c in zip(verts, words.cycle_colouring(len(verts))):
            colours[v] = c
        walks.append(verts)
    return colours, walks


def _plant(colours, walk, start, half):
    out = list(colours)
    for t in range(half):
        out[walk[(start + half + t) % len(walk)]] = out[walk[(start + t) % len(walk)]]
    return out


@pytest.mark.parametrize("a, b", [(65, 90), (BAND + 1, BAND + 40)])
def test_two_cycle_components_give_the_reference_witness(monkeypatch, a, b):
    G = disjoint_union(gen.generate(gen.GenSpec("cycle", a)), gen.generate(gen.GenSpec("cycle", b)))
    good, walks = _cycle_words(G)
    colourings = [good]
    for walk in walks:  # a square in each component in turn
        for start, half in ((0, 1), (3, 2), (len(walk) // 2, 9), (len(walk) - 1, len(walk) // 2)):
            colourings.append(_plant(good, walk, start, half))
    rejected = 0
    for colours in colourings:
        want = _reference(G, colours)
        assert verify.verify_facial_nonrepetitive(G, colours) == want
        rejected += want is not None
    assert rejected == len(colourings) - 1
    calls = _counting(monkeypatch)
    assert verify.verify_facial_nonrepetitive(G, good) is None
    # one search per component above the band
    assert calls == ([] if b <= BAND else [2 * a, 2 * b])


def test_a_cycle_with_a_doubled_edge_gives_the_reference_witness(monkeypatch):
    L = BAND + 1
    G = decorate_multigraph(gen.generate(gen.GenSpec("cycle", L)), seed=5, parallels=1, loops=0)
    assert len(G.faces) == 3
    good, (walk,) = _cycle_words(G)
    for start, half in ((0, 0), (0, 1), (5, 3), (L // 2, L // 2)):
        colours = _plant(good, walk, start, half)
        assert verify.verify_facial_nonrepetitive(G, colours) == _reference(G, colours)
    calls = _counting(monkeypatch)
    assert verify.verify_facial_nonrepetitive(G, good) is None
    # two vertices of degree 3: the long faces are not a cycle component's, each is searched
    assert calls == [2 * L, 2 * L]


#: colours from 2**48 on reach far past the range of chr
WIDE = 2**48


def _two_cycles(a, b):
    """Cycles of a and b vertices sharing one vertex: the outer walk passes
    that vertex twice."""
    builder = gen._Builder()
    builder.add_polygon_block(builder.new_vertex(), a, [])
    builder.add_polygon_block(a // 2, b, [])
    return builder.finish_outerplane()


@pytest.mark.parametrize(
    "G",
    [
        gen.generate(gen.GenSpec("cycle", 80)),  # in the band by length, not by label
        gen.generate(gen.GenSpec("cycle", 120)),  # 120 do not
        _two_cycles(40, 41),
    ],
    ids=["in band", "above band", "repeated vertex"],
)
def test_wide_colours_give_the_witness_of_their_relabelling(G):
    rnd = random.Random(47)
    good = colour.colour_outerplane(G).colours
    outer = G.face_vertices(G.outer_face)
    L = len(outer)
    colourings = [good]
    for start in (0, 7, L // 2):
        for half in (1, 2, 5, 13):
            bad = list(good)
            for t in range(half):
                bad[outer[(start + half + t) % L]] = bad[outer[(start + t) % L]]
            colourings.append(bad)
    rejected = 0
    for colours in colourings:
        rank = {c: i for i, c in enumerate(sorted(set(colours)))}
        small = [rank[c] for c in colours]
        ladder = rnd.sample(range(WIDE, 2 * WIDE), len(rank))
        wide = [ladder[c] for c in small]
        want = verify.verify_facial_nonrepetitive(G, small)
        assert verify.verify_facial_nonrepetitive(G, wide) == want
        rejected += want is not None
        for f in range(len(G.faces)):
            verts = G.face_vertices(f)
            assert verify._first_square_in_face(verts, wide) == verify._first_square_in_face(verts, small), f
    assert rejected >= 6
