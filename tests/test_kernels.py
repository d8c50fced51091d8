import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thueplane import kernels, words
from thueplane.kernels import z_array
from thueplane.verify import _window_ends

from square_oracle import first_square_in_face, leftmost_square


def naive_square(seq, max_half=0):
    """Independent quadratic oracle: scan every (start, half) block."""
    n = len(seq)
    for s in range(n):
        top = (n - s) // 2
        if max_half:
            top = min(top, max_half)
        for r in range(1, top + 1):
            if seq[s : s + r] == seq[s + r : s + 2 * r]:
                return (s, r)
    return None


def naive_z(s):
    n = len(s)
    out = []
    for i in range(n):
        k = 0
        while i + k < n and s[k] == s[i + k]:
            k += 1
        out.append(k if i else n)
    return out


def test_z_array_matches_naive():
    rnd = random.Random(7)
    for _ in range(300):
        s = [rnd.randrange(3) for _ in range(rnd.randrange(0, 30))]
        assert z_array(s) == naive_z(s)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=48), st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_find_square_agrees_with_oracle(seq, max_half):
    assert kernels.find_square(seq, max_half) == naive_square(seq, max_half)


def test_find_square_witness_is_the_leftmost_shortest_square():
    # the kernel must name the smallest (start, half), not merely agree
    # with the reference divide and conquer that a square exists
    from square_oracle import find_square as reference
    from square_oracle import leftmost_square
    from thueplane.words import ternary_nonrepetitive

    rnd = random.Random(11)
    seqs = [[rnd.randrange(4) for _ in range(rnd.randrange(0, 40))] for _ in range(300)]
    word = list(ternary_nonrepetitive(3000))
    for n in (63, 64, 65, 127, 128, 129, 500, 3000):
        seqs.append(word[:n])
        for _ in range(3):
            near = word[:n]
            near[rnd.randrange(n)] = rnd.randrange(3)
            seqs.append(near)
    for seq in seqs:
        for max_half in (0, 1, 3, 63, 64, 65, 10**6):
            got = kernels.find_square(seq, max_half)
            assert got == leftmost_square(seq, max_half), (seq, max_half)
            assert (got is None) == (reference(seq, max_half) is None), (seq, max_half)
            if len(seq) <= 129:
                assert got == naive_square(seq, max_half), (seq, max_half)


def test_long_squarefree_word_is_clean():
    from thueplane.words import ternary_nonrepetitive

    w = list(ternary_nonrepetitive(5000))
    assert kernels.find_square(w) is None
    w[2500] = w[2499]
    assert kernels.find_square(w) is not None


# -- every short word: the kernel routes against the oracle ------------------------
#
# Symbols below 256 take the regex screen and the per-half pass; 256 and up
# send a cycle to find_square; past the range of chr the screen is off, so
# find_square runs its divide and conquer alone.

#: added to every symbol of a word, one shift per route
NARROW, BYTE_WIDE, PAST_CHR = 0, 256, 0x110000


def canonical_words(k, max_len):
    """Every word of at most ``max_len`` symbols over 0..k-1, named
    canonically by first occurrence (symbol c first appears after 0..c-1),
    shortest first."""
    level = [()]
    for _ in range(max_len + 1):
        yield from level
        level = [w + (c,) for w in level for c in range(min(max(w, default=-1) + 2, k))]


def every_word(len3, len4):
    """Each canonical word over 3 symbols up to ``len3`` and over 4 up to ``len4``, once."""
    return list(canonical_words(3, len3)) + [w for w in canonical_words(4, len4) if 3 in w]


def cyclic_leftmost(w):
    """The oracle's square on the cycle ``w``: the leftmost of the doubled
    word with half at most L // 2, if it starts before L."""
    L = len(w)
    hit = leftmost_square(w + w, L // 2) if L >= 2 else None
    return hit if hit is not None and hit[0] < L else None


def check_words(words, shifts):
    for w in words:
        want, cyc = leftmost_square(w), cyclic_leftmost(w)
        for shift in shifts:
            u = [c + shift for c in w]
            assert kernels.find_square(u) == want, (w, shift)
            assert kernels.cyclic_square(u) == cyc, (w, shift)
            # a simple cycle of L >= 2 vertices: the screen clears it exactly
            # when no arc repeats, and never past the range of chr
            cleared = kernels._short_walk_square_free(range(len(w)), range(len(w)), u)
            assert cleared == (len(w) >= 2 and cyc is None and shift < PAST_CHR), (w, shift)


def walks(max_len):
    """(walk, colours): every cyclic walk of at most ``max_len`` positions
    that repeats a vertex, with every colouring of its vertices over at most
    3 colours, both named canonically by first occurrence."""
    colourings = defaultdict(list)
    for c in canonical_words(3, max_len - 1):
        colourings[len(c)].append(c)
    for walk in canonical_words(max_len, max_len):
        if len(set(walk)) < len(walk):
            for col in colourings[max(walk) + 1]:
                yield walk, col


def check_walks(cases, shifts):
    for walk, col in cases:
        L = len(walk)
        want = first_square_in_face(walk, col, L)
        ends = _window_ends(walk)
        for shift in shifts:
            colours = [c + shift for c in col]
            assert kernels.window_square([colours[v] for v in walk], ends) == want, (walk, col, shift)
            # a walk that repeats a vertex may stay uncleared, but a cleared one is square-free
            cleared = kernels._short_walk_square_free(range(L), walk, colours)
            assert not cleared or want is None, (walk, col, shift)


def test_every_short_word_agrees_with_the_oracle():
    words = every_word(12, 9)
    assert len(words) == 142764
    check_words(words, (NARROW,))
    check_words([w for w in words if len(w) <= 8], (BYTE_WIDE, PAST_CHR))


def test_every_short_walk_with_a_repeated_vertex_agrees_with_the_oracle():
    check_walks(walks(7), (NARROW,))
    check_walks(walks(6), (PAST_CHR,))


@pytest.mark.slow
def test_every_word_and_walk_agrees_with_the_oracle_on_every_route():
    check_words(every_word(13, 10), (NARROW, BYTE_WIDE, PAST_CHR))
    check_walks(walks(9), (NARROW, PAST_CHR))


def _long_window_walks():
    """(walk, colours): walks whose maximal windows are longer than the
    regex screen decides alone, so ``find_square`` splits them: a path's
    outer walk, a walk that turns back twice and random walks, coloured
    at random over 2, 3 and 1,000 colours and by a square-free word with
    one square planted late on the walk."""
    rnd = random.Random(34)
    paths = [list(range(n)) + list(range(n - 2, 0, -1)) for n in (kernels._SHORT + 2, 150)]
    turns = list(range(140)) + list(range(138, 69, -1)) + list(range(140, 200)) + list(range(198, 69, -1))
    randoms = [[rnd.randrange(20000) for _ in range(260)] for _ in range(3)]
    for walk in [*paths, turns, *randoms]:
        V = max(walk) + 1
        for palette in (2, 3, 1000):
            yield walk, [rnd.randrange(palette) for _ in range(V)]
        word = list(words.ternary_nonrepetitive(V))
        yield walk, word
        s, half = rnd.randrange(len(walk) // 2, len(walk) - 8), rnd.randint(1, 4)
        if len(set(walk[s : s + 2 * half])) == 2 * half:
            planted = list(word)
            for t in range(half):
                planted[walk[s + half + t]] = planted[walk[s + t]]
            yield walk, planted


def test_window_square_on_windows_longer_than_the_screen():
    cases = list(_long_window_walks())
    longest = [max(e - s for s, e in enumerate(_window_ends(walk))) for walk, _col in cases]
    assert min(longest) > kernels._SHORT
    hits = [first_square_in_face(walk, col, len(walk)) for walk, col in cases]
    assert any(h is None for h in hits) and sum(h is not None and h[0] > 100 for h in hits) >= 3
    check_walks(cases, (NARROW, PAST_CHR))
