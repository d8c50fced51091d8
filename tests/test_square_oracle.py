"""Witness equality against the reference square searches.

``kernels.find_square`` and ``verify._first_square_in_face`` must
return exactly what the oracles in ``square_oracle`` return, not merely
agree on whether a square exists: the witnesses end up in counterexamples
and in the colourings built from them."""

import random

import pytest

from thueplane import gen, kernels, verify
from thueplane.words import palindrome_free_nonrepetitive, ternary_nonrepetitive

import square_oracle

SHORT = kernels._SHORT  # the screen cutoff


def _lengths():
    around = {0, 1, 2, 3, 5, 8, 31, 63, 64, 65, 2000}
    for k in (SHORT // 2, SHORT, 2 * SHORT, 4 * SHORT):
        around.update((k - 1, k, k + 1))
    return sorted(around)


MAX_HALVES = sorted({0, 1, 2, 3, SHORT // 2 - 1, SHORT // 2, SHORT // 2 + 1, 10**6})


def _same_witness(seq, max_half):
    got = kernels.find_square(seq, max_half)
    want = square_oracle.find_square(seq, max_half)
    assert got == want, (len(seq), max_half, got, want)


def test_random_sequences():
    rnd = random.Random(1)
    for alphabet in range(2, 23):
        for n in _lengths():
            seq = [rnd.randrange(alphabet) for _ in range(n)]
            for max_half in MAX_HALVES:
                _same_witness(seq, max_half)


def _mutated(word, rnd, mutations, alphabet):
    word = list(word)
    for _ in range(mutations):
        if word:
            word[rnd.randrange(len(word))] = rnd.randrange(alphabet)
    return word


@pytest.mark.parametrize("make, alphabet", [(ternary_nonrepetitive, 3), (palindrome_free_nonrepetitive, 4)])
def test_squarefree_words_with_point_mutations(make, alphabet):
    rnd = random.Random(alphabet)
    base = make(2600)
    for n in _lengths():
        for mutations in (0, 1, 2):
            offset = rnd.randrange(len(base) - n + 1)
            word = _mutated(base[offset : offset + n], rnd, mutations, alphabet)
            for max_half in MAX_HALVES:
                _same_witness(word, max_half)


def test_lone_long_square_near_the_cutoff():
    # [3] + x + [3] + x over a square-free ternary x: any square holds both
    # 3s, so the whole block, of half r, is the only square
    rnd = random.Random(3)
    base = ternary_nonrepetitive(600)
    for r in (SHORT // 2 - 1, SHORT // 2, SHORT // 2 + 1, SHORT):
        for _ in range(4):
            a = rnd.randrange(400)
            x = list(base[a : a + r - 1])
            lone = [3] + x + [3] + x
            pad = rnd.randrange(2 * SHORT)
            for seq in (lone, list(base[:pad]) + [4] + lone, lone + [4] + list(base[:pad])):
                for max_half in MAX_HALVES:
                    _same_witness(seq, max_half)


def test_relabelled_squarefree_words_over_large_alphabets():
    # square-free words renamed into alphabets of up to 2·10⁶ symbols, some
    # of them beyond the last code point
    rnd = random.Random(5)
    base = ternary_nonrepetitive(700)
    for top in (23, 1000, 0x10FFFF, 0x110000, 2 * 10**6):
        names = [rnd.randrange(top) for _ in range(3)]
        while len(set(names)) < 3:
            names = [rnd.randrange(top) for _ in range(3)]
        for n in (SHORT - 1, SHORT + 1, 3 * SHORT, 700):
            for mutations in (0, 1, 2):
                word = [names[c] for c in _mutated(base[:n], rnd, mutations, 3)]
                for max_half in (0, 2, SHORT // 2, 10**6):
                    _same_witness(word, max_half)


def test_symbols_beyond_the_last_code_point():
    rnd = random.Random(9)
    for n in _lengths():
        for alphabet in (2, 5, 22):
            seq = [0x110000 + rnd.randrange(alphabet) for _ in range(n)]
            if seq:
                seq[rnd.randrange(n)] = rnd.randrange(alphabet)  # mixed with small symbols
            _same_witness(seq, rnd.choice(MAX_HALVES))
    huge = list(ternary_nonrepetitive(300))
    huge[150] = 10**30
    for max_half in MAX_HALVES:
        _same_witness(huge, max_half)


# -- counterexample search ----------------------------------------------------


def _faces(kind, sizes, seeds):
    for n in sizes:
        for seed in seeds:
            G = gen.generate(gen.GenSpec(kind, n, seed))
            for f in range(len(G.faces)):
                yield G, G.face_vertices(f)


@pytest.mark.parametrize(
    "kind, sizes",
    [
        ("outerplane", (6, 20, 60)),
        ("plane", (8, 25)),
        ("cactus_even", (10, 40)),
        ("outerplane_bridgeless", (30,)),
    ],
)
def test_counterexample_search_matches_oracle(kind, sizes):
    rnd = random.Random(kind)
    simple = repeated = 0
    for G, verts in _faces(kind, sizes, range(6)):
        L = len(verts)
        if len(set(verts)) == L:
            simple += 1
        else:
            repeated += 1
        for palette in (2, 3, 5, 9):
            colours = [rnd.randrange(palette) for _ in range(G.n)]
            got = verify._first_square_in_face(verts, colours)
            assert got == square_oracle.first_square_in_face(verts, colours, L), (kind, verts, colours)
    assert simple and (repeated or kind == "plane")


@pytest.mark.parametrize("chars", [0x110000, 3])
def test_counterexample_search_on_hand_walks(chars, monkeypatch):
    # with fewer characters than colours the search writes two per colour
    monkeypatch.setattr(kernels, "_CHARS", chars)
    rnd = random.Random(13)
    walks = [
        [0, 1],
        [0, 1, 2],
        [0, 1, 0, 2],
        [0, 1, 2, 1, 3, 4, 3, 1],
        [5, 6, 7, 5, 8, 9, 5, 10],
        list(range(40)),
        [v % 7 for v in range(30)],
    ]
    for verts in walks:
        n = max(verts) + 1
        L = len(verts)
        for _ in range(60):
            colours = [rnd.randrange(rnd.choice((2, 3, 4, 10**9, 2 * 10**6))) for _ in range(n)]
            got = verify._first_square_in_face(verts, colours)
            assert got == square_oracle.first_square_in_face(verts, colours, L), (verts, colours)


def test_counterexample_search_on_certified_colourings_with_a_plant():
    # near-misses: a square-free colouring with one vertex recoloured
    from thueplane import colour

    rnd = random.Random(17)
    for seed in range(8):
        G = gen.generate(gen.GenSpec("outerplane", 80, seed))
        good = colour.colour_outerplane(G).colours
        for f in range(len(G.faces)):
            verts = G.face_vertices(f)
            L = len(verts)
            assert verify._first_square_in_face(verts, good) is None
            bad = list(good)
            bad[rnd.choice(verts)] = rnd.randrange(1, 12)
            got = verify._first_square_in_face(verts, bad)
            assert got == square_oracle.first_square_in_face(verts, bad, L)


# -- counterexample search on simple cycles ---------------------------------------


def _planted(codes, start, half):
    """Copy of ``codes``, read as a cycle, whose 2*half symbols from
    ``start`` read XX: the second half takes the symbols of the first."""
    out = list(codes)
    L = len(out)
    for t in range(half):
        out[(start + half + t) % L] = out[(start + t) % L]
    return out


def _on_cycle(codes, rnd):
    """A walk of distinct vertices, in shuffled order, coloured ``codes``."""
    verts = rnd.sample(range(2 * len(codes)), len(codes))
    colours = [None] * (2 * len(codes))
    for v, c in zip(verts, codes):
        colours[v] = c
    return verts, colours


def _same_cycle_witness(codes, rnd):
    verts, colours = _on_cycle(codes, rnd)
    want = square_oracle.first_square_in_face(verts, colours, len(verts))
    assert verify._first_square_in_face(verts, colours) == want, codes
    assert square_oracle.first_square_on_cycle(verts, colours) == want, codes
    return want


def test_counterexample_search_on_random_simple_cycles():
    rnd = random.Random(19)
    base = ternary_nonrepetitive(120)
    for L in range(2, 121):
        for palette in (2, 3, 5):
            for _ in range(3):
                _same_cycle_witness([rnd.randrange(palette) for _ in range(L)], rnd)
        # a square-free word with one plant: late starts and long halves
        for start in {0, L // 2, L - 1, rnd.randrange(L)}:
            for half in {1, max(1, L // 4), L // 2, rnd.randint(1, L // 2)}:
                _same_cycle_witness(_planted(base[:L], start, half), rnd)


def test_counterexample_search_with_two_byte_labels():
    # 300 labels, then pairs (a, a + 256) side by side: the low bytes of
    # neighbouring labels agree, so a run of zero bytes can start mid-label
    rnd = random.Random(23)
    for L in (260, 300, 333, 420):
        for _ in range(4):
            codes = list(range(300)) + [0] * (L - 300) if L > 300 else list(range(L))
            for i in range(min(L, 300), L):
                a = rnd.randrange(44)
                codes[i] = a + 256 * (i % 2)
            for start in (0, 1, 2, rnd.randrange(L), L - 1):
                half = rnd.choice((1, 2, 3, 40, L // 2))
                got = _same_cycle_witness(_planted(codes, start, half), rnd)
                assert got is not None


def test_counterexample_search_with_three_byte_labels():
    # distinct labels with one plant: the plant is the only square, since
    # only its first half's symbols recur, each exactly half later
    rnd = random.Random(29)
    L = 66000
    codes = list(range(L))
    for start, half in ((0, 1), (0, 3), (0, 77), (1, 1), (2, 5), (3, 64), (100, 2), (40, 300)):
        assert L - half > 1 << 16  # labels 0..L - half - 1 take 3 bytes
        verts, colours = _on_cycle(_planted(codes, start, half), rnd)
        want = (start, half) if 2 * half < L else (0, half)
        if start == 0 and half < 100:  # the oracle copies every half it tries
            assert square_oracle.first_square_in_face(verts, colours, L) == want
        assert verify._first_square_in_face(verts, colours) == want


def test_counterexample_search_on_a_long_cycle_whose_only_square_is_the_walk():
    # distinct labels written twice: the only square has half L // 2, so
    # the pass alone would run every half over 2 * L bytes; the start
    # matches interleaved with it find the square at start 0 at once
    import time

    L = 65540
    verts, colours = _on_cycle(list(range(L // 2)) * 2, random.Random(41))
    t0 = time.perf_counter()
    got = verify._first_square_in_face(verts, colours)
    elapsed = time.perf_counter() - t0
    assert got == square_oracle.first_square_on_cycle(verts, colours) == (0, L // 2)
    assert elapsed < 1.0, elapsed


def test_counterexample_search_prefers_the_earlier_start_over_the_shorter_half():
    rnd = random.Random(31)
    codes = list(range(100))
    for first, second in (((2, 3), (10, 1)), ((40, 3), (60, 1)), ((20, 9), (50, 2)), ((0, 30), (70, 1))):
        got = _same_cycle_witness(_planted(_planted(codes, *second), *first), rnd)
        assert got == first
    # one start, two halves: "abababab" holds halves 2 and 4 at its start
    for start in (5, 40):
        got = _same_cycle_witness(codes[:start] + [0, 1] * 4 + codes[start + 8 :], rnd)
        assert got == (start, 2)


@pytest.mark.parametrize("start", [0, 1000, 1999])
def test_verify_on_long_chordless_cycles(start):
    from thueplane import colour

    G = gen.generate(gen.GenSpec("outerplane_biconnected", 2000, 1, chord_probability=0.0))
    good = colour.colour_outerplane_single_block(G).colours
    outer = G.face_vertices(G.outer_face)
    for half in (1, 34, 999, 1000):
        bad = list(good)
        window = [outer[(start + t) % 2000] for t in range(2 * half)]
        for t in range(half):
            bad[window[half + t]] = bad[window[t]]
        want = None
        for f in range(len(G.faces)):
            verts = G.face_vertices(f)
            hit = square_oracle.first_square_on_cycle(verts, bad)
            if hit is not None:
                s, r = hit
                path = tuple(verts[(s + k) % 2000] for k in range(2 * r))
                want = verify.FacialPath(f, path, G.is_outer_face(f))
                break
        assert want is not None
        assert verify.verify_facial_nonrepetitive(G, bad) == want
