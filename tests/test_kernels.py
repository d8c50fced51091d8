import random

from hypothesis import given, settings
from hypothesis import strategies as st

from thueplane import kernels
from thueplane.kernels import z_array


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
