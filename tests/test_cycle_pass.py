"""Verdicts and witnesses on simple cycles around the per-half pass's band.

``verify_facial_nonrepetitive`` and ``words.has_cyclic_repetition`` must
give what a ``find_square(seq + seq, max_half=L // 2)`` decision gives, and
the verifier must name the counterexample ``square_oracle`` names.  The
band is patched down to ``BAND`` bytes so that its edges are cheap to
reach: ``BAND`` labels of one byte, ``BAND // 2`` of two."""

import random

import pytest

from thueplane import colour, gen, kernels, verify, words

import square_oracle

BAND = 600
ONE_BYTE = (64, 65, 127, 128, 129, BAND, BAND + 1)
#: a relabelled face takes two bytes a label from 257 distinct labels on
TWO_BYTE = (BAND // 2, BAND // 2 + 1)


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


def _two_byte_words(L, rnd):
    # distinct labels whose low bytes mostly agree, so runs of zero bytes
    # start mid-label
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
    for L in TWO_BYTE:
        for name, codes in _two_byte_words(L, rnd):
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
            assert words.has_cyclic_repetition(seq) == want, (L, width, name)


def test_interleaved_search_above_the_band(monkeypatch):
    # every word lies above a band of 32 bytes, so the pass matches one
    # start per kernels._PACE halves as it goes
    monkeypatch.setattr(kernels, "_BAND", 32)
    rnd = random.Random(43)
    for L, width, name, codes in WORDS:
        verts = rnd.sample(range(2 * L), L)
        colours = dict(zip(verts, codes))
        want = square_oracle.first_square_on_cycle(verts, colours)
        assert verify._first_square_in_face(verts, colours) == want, (L, width, name)


def _counting(monkeypatch, module):
    calls = []
    real = kernels.find_square

    def find_square(seq, max_half=0):
        calls.append(len(seq))
        return real(seq, max_half)

    monkeypatch.setattr(module, "find_square", find_square)
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
    calls = _counting(monkeypatch, verify)
    for L, G, good, bad in cases:
        in_band = 2 * L > kernels._SHORT and L <= BAND
        del calls[:]
        assert verify.verify_facial_nonrepetitive(G, good) is None
        assert calls == ([] if in_band else [2 * L, 2 * L]), L  # both faces are the cycle
        del calls[:]
        assert verify.verify_facial_nonrepetitive(G, bad) is not None
        assert len(calls) == (0 if in_band else 1), L
    calls = _counting(monkeypatch, words)
    for L in (64, BAND, BAND + 1):
        del calls[:]
        assert not words.has_cyclic_repetition(words.cycle_colouring(L))
        assert calls == ([] if L <= BAND else [2 * L]), L
