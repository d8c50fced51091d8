"""Verdicts and witnesses on simple cycles around the per-half pass's band.

``verify_facial_nonrepetitive`` and ``support.has_cyclic_repetition`` must
give what a ``find_square(seq + seq, max_half=L // 2)`` decision gives, and
the verifier must name the counterexample ``square_oracle`` names.  The
band is patched down to ``BAND`` labels so that its edges are cheap to
reach; one test restores it.  A cycle above the band, or with a label of
256 or more at any length, goes to ``find_square`` on the linear word plus
one crossing step at the seam."""

import contextlib
import functools
import random

import pytest

from thueplane import colour, gen, kernels, verify, words

import square_oracle
from conftest import decorate_multigraph, disjoint_union
from support import has_cyclic_repetition

#: the band as the package sets it, read before any test patches it
REAL_BAND = kernels._BAND
BAND = 600
ONE_BYTE = (64, 65, 127, 128, 129, BAND, BAND + 1)
#: in-band lengths whose words hold a label past a byte, which the pass leaves to the seam route
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


@contextlib.contextmanager
def _naming(word):
    """An error raised inside the block names the word."""
    try:
        yield
    except Exception as exc:
        raise AssertionError(f"{word}: {exc}") from exc


def _one_byte_words(L, rnd):
    G = gen.generate(gen.GenSpec("cycle", L))
    with _naming((L, 1, "certified")):
        certified = colour.colour_outerplane(G).colours
    yield "certified", [certified[v] for v in G.face_vertices(G.outer_face)]
    free = list(words.cycle_colouring(L))
    yield "square-free", free
    for palette in (2, 3, 5):
        yield f"random {palette}", [rnd.randrange(palette) for _ in range(L)]
    for start in {0, 1, L // 2, L - 1, rnd.randrange(L)}:
        for half in {1, 2, L // 4, L // 2, rnd.randint(1, L // 2)}:
            yield f"plant {start} {half}", _planted(free, start, half)
    for half in {1, 2, 3, L // 3, L // 2}:  # across the seam: start L - 1 above, L - h here
        yield f"plant {L - half} {half}", _planted(free, L - half, half)
    # the earlier start holds the larger half
    yield "two plants", _planted(_planted(free, L - 3, 1), L // 3, L // 5)
    # no bit set, labels apart in bit 7 alone (over zeros, then over ones), any byte
    for labels in ((0,), (0, 128), (127, 255), range(256)):
        word = [rnd.choice(labels) for _ in range(L)]
        yield f"labels {labels}", word
        yield f"labels {labels}, plant", _planted(word, rnd.randrange(L), rnd.randint(1, L // 2))
    for b in range(8):  # the square-free word with its three labels apart in bits b and b + 1
        word = [(0, 1 << b, 1 << (b + 1) % 8)[c] for c in free]
        yield f"bit {b}", word
        yield f"bit {b}, plant", _planted(word, rnd.randrange(L), rnd.randint(1, L // 2))


def _wide_words(L, rnd):
    # distinct labels, so square-free
    free = [rnd.randrange(4) + 256 * i for i in range(L)]
    yield "square-free", free
    yield "shuffled", rnd.sample(range(1 << 16), L)
    for start in {0, 1, L // 2, L - 1}:
        for half in {1, 3, L - 257}:  # a plant of half h leaves L - h labels
            yield f"plant {start} {half}", _planted(free, start, half)
    for half in (1, 3, L - 257):
        yield f"plant {L - half} {half}", _planted(free, L - half, half)
    many = list(free)
    for _ in range(6):
        many = _planted(many, rnd.randrange(L), rnd.randint(1, 7))
    yield "six plants", many
    # the square-free ternary word with one label past a byte
    ternary = [256 if c == 2 else c for c in words.cycle_colouring(L)]
    yield "one label of 256", ternary
    for start, half in ((0, 1), (L // 2, 5), (L - 1, 2), (L - 4, 4), (L - L // 2, L // 2)):
        yield f"one label of 256, plant {start} {half}", _planted(ternary, start, half)


@functools.cache
def _words(L):
    """(width, name, codes) of every word of length L, built on first use:
    the certified words run the kernel under test, so a fault in it fails
    the cases that reach them, not the collection of this module."""
    rnd = random.Random(L)
    if L in ONE_BYTE:
        return [(1, name, codes) for name, codes in _one_byte_words(L, rnd)]
    wide = [(2, name, codes) for name, codes in _wide_words(L, rnd)]
    assert all(max(codes) > 255 for _, _, codes in wide)
    return wide


LENGTHS = sorted(ONE_BYTE + WIDE_LABELS)


def _all_words():
    for L in LENGTHS:
        for width, name, codes in _words(L):
            yield L, width, name, codes


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


@pytest.mark.parametrize("L", LENGTHS)
def test_verify_verdicts_and_witnesses_on_cycles(L):
    G = gen.generate(gen.GenSpec("cycle", L))
    outer = G.face_vertices(G.outer_face)
    rejected = 0
    for width, name, codes in _words(L):
        colours = [None] * L
        for v, c in zip(outer, codes):
            colours[v] = c
        want = _reference(G, colours)
        # far-apart colour values relabel to the same witness
        spread = [10**9 + 7919 * c for c in colours]
        with _naming((L, width, name)):
            verdicts = [verify.verify_facial_nonrepetitive(G, c) for c in (colours, spread)]
        assert verdicts == [want, want], (L, width, name)
        rejected += want is not None
    assert rejected


def test_has_cyclic_repetition_matches_main_lorentz():
    for L, width, name, codes in _all_words():
        variants = [codes] if width == 2 else [codes, [c + 256 for c in codes]]
        for seq in variants:
            want = kernels.find_square(seq + seq, max_half=L // 2) is not None
            with _naming((L, width, name)):
                got = has_cyclic_repetition(seq)
            assert got == want, (L, width, name)


def test_interleaved_search_above_the_band(monkeypatch):
    # every word lies above a band of 32 labels, so the linear word and its
    # seam name the witness
    monkeypatch.setattr(kernels, "_BAND", 32)
    rnd = random.Random(43)
    for L, width, name, codes in _all_words():
        verts = rnd.sample(range(2 * L), L)
        colours = dict(zip(verts, codes))
        want = square_oracle.first_square_on_cycle(verts, colours)
        assert verify._first_square_in_face(verts, colours) == want, (L, width, name)


@pytest.mark.parametrize("L", [REAL_BAND, REAL_BAND + 1])
def test_a_late_plant_at_the_unpatched_band_edge(monkeypatch, L):
    # the last length the pass decides, and the first the seam route does
    monkeypatch.setattr(kernels, "_BAND", REAL_BAND)
    G = gen.generate(gen.GenSpec("cycle", L))
    colours = [None] * L
    for v, c in zip(G.face_vertices(G.outer_face), _planted(words.cycle_colouring(L), L - 10, 4)):
        colours[v] = c
    want = _reference(G, colours)
    assert want is not None
    assert verify.verify_facial_nonrepetitive(G, colours) == want


@pytest.mark.slow
def test_the_seam_route_gives_the_doubled_word_witness_above_the_band():
    rnd = random.Random(97)
    for n in range(REAL_BAND + 1, 3 * 10**4 + 1, 97):
        codes = _planted(words.cycle_colouring(n), rnd.randrange(n), rnd.randint(1, n // 2))
        assert kernels.cyclic_square(codes) == kernels.find_square(codes + codes, max_half=n // 2), n


def _counting(monkeypatch):
    calls = []
    real = kernels.find_square

    def find_square(seq, max_half=0):
        calls.append(len(seq))
        return real(seq, max_half)

    monkeypatch.setattr(kernels, "find_square", find_square)
    return calls


@pytest.mark.parametrize("L", [64, 65, BAND, BAND + 1])
def test_band_faces_make_no_find_square_call(monkeypatch, L):
    G = gen.generate(gen.GenSpec("cycle", L))
    good = colour.colour_outerplane(G).colours
    outer = G.face_vertices(G.outer_face)
    bad = list(good)
    bad[outer[L // 2 + 1]] = bad[outer[L // 2]]
    calls = _counting(monkeypatch)
    # a band face never goes to find_square, and a short face that the
    # short-face screen flags goes to the per-half pass as well
    searched = [] if L <= BAND else [L]  # the second face is the first reversed
    assert verify.verify_facial_nonrepetitive(G, good) is None
    assert calls == searched
    del calls[:]
    assert verify.verify_facial_nonrepetitive(G, bad) is not None
    assert calls == searched
    if 64 < L <= BAND:
        # labels of 256 or more go to the linear word and its seam inside the band too
        del calls[:]
        assert verify.verify_facial_nonrepetitive(G, [c + 256 for c in good]) is None
        assert calls == [L]
    del calls[:]
    assert not has_cyclic_repetition(words.cycle_colouring(L))
    assert calls == searched


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


def _two_cycle_cases():
    """(a, b, plant) for two cycles of a and b vertices: no plant, then a
    square (component, start, half) in each component in turn."""
    for a, b in ((65, 90), (BAND + 1, BAND + 40)):
        yield pytest.param(a, b, None, id=f"{a}-{b}")
        for comp, L in enumerate((a, b)):
            for start, half in ((0, 1), (3, 2), (L // 2, 9), (L - 1, L // 2)):
                yield pytest.param(a, b, (comp, start, half), id=f"{a}-{b}-plant-{comp}-{start}-{half}")


@pytest.mark.parametrize("a, b, plant", list(_two_cycle_cases()))
def test_two_cycle_components_give_the_reference_witness(monkeypatch, a, b, plant):
    G = disjoint_union(gen.generate(gen.GenSpec("cycle", a)), gen.generate(gen.GenSpec("cycle", b)))
    good, walks = _cycle_words(G)
    colours = good if plant is None else _plant(good, walks[plant[0]], *plant[1:])
    want = _reference(G, colours)
    assert (want is None) == (plant is None)
    calls = _counting(monkeypatch)
    assert verify.verify_facial_nonrepetitive(G, colours) == want
    if plant is None:
        # one search per component above the band
        assert calls == ([] if b <= BAND else [a, b])


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
    assert calls == [L, L]


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
    "make",
    [
        lambda: gen.generate(gen.GenSpec("cycle", 80)),  # in the band by length, not by label
        lambda: gen.generate(gen.GenSpec("cycle", 120)),  # 120 do not
        lambda: _two_cycles(40, 41),
    ],
    ids=["in band", "above band", "repeated vertex"],
)
def test_wide_colours_give_the_witness_of_their_relabelling(make):
    G = make()
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
