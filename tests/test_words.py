import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thueplane import embed, gen, kernels, words
from thueplane.words import (
    EXCEPTIONAL_CYCLE_LENGTHS,
    cycle_colouring,
    has_repetition,
    palindrome_free_nonrepetitive,
    ternary_nonrepetitive,
    tree_colouring,
)

from conftest import disjoint_union, path_graph, polygon, single_vertex
from support import (
    adjacency,
    all_tree_paths,
    cycle_alphabet_size,
    exact_cycle_word,
    has_cyclic_repetition,
    is_palindrome_free,
    level_pattern,
    levelling_ok,
)


def naive_repetitive(seq):
    n = len(seq)
    return any(
        seq[s : s + r] == seq[s + r : s + 2 * r]
        for s in range(n)
        for r in range(1, (n - s) // 2 + 1)
    )


# -- checkers -------------------------------------------------------------------


def test_repetition_examples():
    rep, witness = has_repetition([1, 3, 1, 2, 1, 2, 4])
    assert rep
    s, r = witness
    assert [1, 3, 1, 2, 1, 2, 4][s : s + 2 * r] == [1, 2, 1, 2]
    assert has_repetition([1, 2, 3, 2, 1, 3]) == (False, None)
    assert has_repetition([1, 2, 1, 3]) == (False, None)
    assert has_repetition([]) == (False, None)
    assert has_repetition([1, 2, 1, 2])[0]


def test_repetition_rejects_negative_symbols():
    with pytest.raises(ValueError):
        has_repetition([1, -1, 2])


@given(st.lists(st.integers(0, 3), max_size=30))
@settings(max_examples=300, deadline=None)
def test_has_repetition_matches_naive(seq):
    assert has_repetition(seq)[0] == naive_repetitive(seq)


def naive_palindrome_free(seq):
    n = len(seq)
    for s in range(n):
        for l in range(2, n - s + 1):
            block = seq[s : s + l]
            if block == block[::-1]:
                return False
    return True


def test_palindrome_examples():
    assert not is_palindrome_free([1, 2, 1])
    assert not is_palindrome_free([1, 1])
    assert is_palindrome_free([1, 2, 3])
    assert is_palindrome_free([])


@given(st.lists(st.integers(0, 3), max_size=20))
@settings(max_examples=300, deadline=None)
def test_palindrome_free_matches_naive(seq):
    assert is_palindrome_free(seq) == naive_palindrome_free(seq)


# -- generators -----------------------------------------------------------------


def test_ternary_empty_and_prefix_stability():
    assert ternary_nonrepetitive(0) == ()
    w = ternary_nonrepetitive(500)
    for n in (1, 7, 100, 499):
        assert ternary_nonrepetitive(n) == w[:n]


def test_ternary_needs_three_symbols():
    w = ternary_nonrepetitive(4)
    assert len(set(w)) == 3  # two symbols cannot reach length four


def test_word_properties_up_to_2000():
    tern = ternary_nonrepetitive(2000)
    assert not has_repetition(tern)[0]
    assert max(tern) <= 2
    pal = palindrome_free_nonrepetitive(2000)
    assert not has_repetition(pal)[0]
    assert is_palindrome_free(pal)
    assert max(pal) <= 3


def test_palindrome_free_small():
    assert len(palindrome_free_nonrepetitive(1)) == 1
    a, b = palindrome_free_nonrepetitive(2)
    assert a != b
    w = palindrome_free_nonrepetitive(50)
    assert not has_repetition(w)[0] and is_palindrome_free(w)


# -- cycle colourings -------------------------------------------------------------


def exists_three_symbol_cycle(n):
    """Independent exhaustive search over ternary assignments with naive
    cyclic checking."""
    seq = []

    def cyclic_ok():
        dbl = seq + seq
        for s in range(n):
            for r in range(1, n // 2 + 1):
                if dbl[s : s + r] == dbl[s + r : s + 2 * r]:
                    return False
        return True

    def suffix_ok(i):
        for r in range(1, (i + 2) // 2 + 1):
            if seq[i - 2 * r + 1 : i - r + 1] == seq[i - r + 1 : i + 1]:
                return False
        return True

    def ext(i):
        for s in range(3):
            seq.append(s)
            if suffix_ok(i):
                if i + 1 == n:
                    if cyclic_ok():
                        return True
                elif ext(i + 1):
                    return True
            seq.pop()
        return False

    return ext(0)


def test_cycle_minimum_alphabet_matches_exhaustive_search_up_to_17():
    for n in range(3, 18):
        assert exists_three_symbol_cycle(n) == (n not in EXCEPTIONAL_CYCLE_LENGTHS), n


def test_cycle_colourings_3_to_20():
    for n in range(3, 21):
        w = cycle_colouring(n)
        assert len(w) == n
        assert not has_cyclic_repetition(w)
        assert len(set(w)) <= cycle_alphabet_size(n)


def test_cycle_colouring_examples():
    assert cycle_colouring(3) == (0, 1, 2)
    assert len(set(cycle_colouring(5))) == 4
    assert len(set(cycle_colouring(18))) == 3


def test_cycle_colouring_large_seam():
    for n in (65, 230, 2001):
        w = cycle_colouring(n)
        assert len(set(w)) == 3
        assert not has_cyclic_repetition(w)


#: the sweep's lengths: every n of the per-half pass's band above the
#: pinned table, then every 10th n up to 10**4
SWEEP = [*range(65, kernels._BAND + 1), *range(kernels._BAND + 4, 10**4 + 1, 10)]


@pytest.mark.slow
def test_every_cycle_word_up_to_ten_thousand_is_ternary_and_square_free():
    bad = []
    for n in SWEEP:
        w = list(cycle_colouring(n))
        if len(w) != n or not set(w) <= {0, 1, 2} or kernels.cyclic_square(w) is not None:
            bad.append(n)
    assert not bad, bad


def test_cycle_colouring_rejects_small():
    with pytest.raises(ValueError):
        cycle_colouring(2)


#: the exact searches up to this length take under 1 s in all
EXACT_FAST = 58


def test_cycle_word_table_is_the_exact_search():
    assert len(words._CYCLE_WORDS) == 62  # n = 3..64
    for n in range(3, EXACT_FAST + 1):
        assert cycle_colouring(n) == exact_cycle_word(n), n


@pytest.mark.slow
def test_cycle_word_table_is_the_exact_search_above_58():
    for n in range(EXACT_FAST + 1, 65):
        assert cycle_colouring(n) == exact_cycle_word(n), n


def test_two_cut_verdicts_match_the_full_cyclic_check(monkeypatch):
    # _closed_word judges a full candidate on a short window of the seam,
    # then, when the window holds no square, on the whole seam and then at
    # the tail's left end; each verdict must be the whole cycle's
    judged = []  # [candidate, the last check run, the check that found a square or None]
    real = words._crossing_squares

    def recorded(s, lo, mid, hi, max_half):
        hits = real(s, lo, mid, hi, max_half)
        if len(s) != 2 * mid:
            assert judged[-1] == [tuple(s), "seam", None]
            judged[-1][1:] = "tail", "tail" if hits else None
        elif judged and judged[-1] == [tuple(s[:mid]), "window", None]:
            assert (lo, hi) == (0, len(s))
            judged[-1][1:] = "seam", "seam" if hits else None
        else:
            judged.append([tuple(s[:mid]), "window", "window" if hits else None])
        return hits

    monkeypatch.setattr(words, "_crossing_squares", recorded)
    for n in range(65, 701):
        word = cycle_colouring(n)
        assert judged[-1] == [word, "tail", None]  # the candidate accepted
    for word, _last, cut in judged:
        assert has_cyclic_repetition(word) == (cut is not None), (len(word), cut)
    cuts = [cut for _word, _last, cut in judged]
    assert cuts.count("window") > 8000 and cuts.count("seam") > 100 and cuts.count("tail") > 10


def test_long_cycle_words_make_no_square_search(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the two-cut test needs no square search")

    for owner, name in ((kernels, "find_square"), (kernels, "cyclic_square"), (words, "find_square")):
        monkeypatch.setattr(owner, name, search)
    w = cycle_colouring(20000)
    assert len(w) == 20000 and set(w) == {0, 1, 2}


# -- levellings -----------------------------------------------------------------


def test_levelling_ok_and_pattern():
    adj = [[1], [0, 2], [1]]
    assert levelling_ok(adj, [0, 1, 2])
    assert not levelling_ok(adj, [0, 2, 3])
    assert level_pattern([2, 1, 0], [5, 6, 7]) == (7, 6, 5)


def test_level_pattern_of_repetitions_matches():
    # colouring by level through a palindrome-free word: any repetitively
    # coloured path must have identical level patterns in its halves
    rnd = random.Random(5)
    word = palindrome_free_nonrepetitive(30)
    for trial in range(30):
        n = rnd.randrange(4, 11)
        G = gen.generate(gen.GenSpec("outerplane", n, trial))
        adj = adjacency(G)
        levels = embed._levels(G, [0], [-1] * G.n)
        colours = [word[levels[v]] for v in range(n)]

        def paths(prefix, used):
            yield prefix
            for w in adj[prefix[-1]]:
                if w not in used:
                    yield from paths(prefix + [w], used | {w})

        for v in range(n):
            for p in paths([v], {v}):
                if len(p) % 2 == 0:
                    half = len(p) // 2
                    cs = [colours[x] for x in p]
                    if cs[:half] == cs[half:]:
                        assert level_pattern(p[:half], levels) == level_pattern(
                            p[half:], levels
                        )


# -- tree colouring ---------------------------------------------------------------


def all_paths_nonrepetitive(T, colours):
    return all(not has_repetition([colours[v] for v in p])[0] for p in all_tree_paths(T))


def test_tree_single_vertex():
    assert tree_colouring(single_vertex()) == (1,)
    assert tree_colouring(embed.build(0, [], [])) == ()


def test_star_two_colours():
    star = embed.build(6, [(0, i) for i in range(1, 6)], [[0, 2, 4, 6, 8], [1], [3], [5], [7], [9]], 0)
    cols = tree_colouring(star)
    assert len(set(cols)) == 2


def test_path10_nonrepetitive():
    P = path_graph(10)
    cols = tree_colouring(P)
    assert len(set(cols)) <= 4
    assert all_paths_nonrepetitive(P, cols)


def test_tree_colouring_rejects_cycles_and_disconnection():
    with pytest.raises(ValueError):
        tree_colouring(polygon(3))
    with pytest.raises(ValueError):
        tree_colouring(disjoint_union(polygon(3), single_vertex()))  # n - 1 edges


def test_trees_exhaustive_paths_small():
    for n in range(1, 10):
        for T in gen.enumerate_small("tree", n):
            cols = tree_colouring(T)
            assert len(set(cols)) <= 4
            assert all_paths_nonrepetitive(T, cols)


def test_random_trees_to_16_exhaustive_paths():
    sizes = [10 + seed % 7 for seed in range(150)]  # 10..16
    sizes += [17 + seed % 24 for seed in range(48)]  # 17..40, twice each
    for seed, n in enumerate(sizes):
        G = gen.generate(gen.GenSpec("tree", n, seed))
        cols = tree_colouring(G)
        assert len(set(cols)) <= 4
        assert all_paths_nonrepetitive(G, cols)


def test_tree_colouring_accepts_embedded_graph():
    G = gen.generate(gen.GenSpec("tree", 12, 5))
    assert all_paths_nonrepetitive(G, tree_colouring(G))


def test_forest_colouring_gives_each_tree_its_own_colouring():
    # a shallower tree's word prefixes a deeper one's, so one forest pass
    # over trees of different depths colours each as it is coloured alone
    trees = [gen.generate(gen.GenSpec("tree", n, seed)) for seed, n in enumerate((1, 2, 40, 3, 9, 60, 5))]
    trees.append(path_graph(30))
    depths = {max(embed._levels(T, [0], [-1] * T.n)) for T in trees}
    assert len(depths) >= 5
    F = disjoint_union(*trees)
    colours = [None] * F.n
    words._colour_forest(F, range(F.n), colours)
    v0 = 0
    for T in trees:
        assert tuple(colours[v0 : v0 + T.n]) == tree_colouring(T)
        v0 += T.n


CYCLE_COLOURING_DIGEST = "716eb734240b4cd4760b3902840e35df5d630da98d09cd70badf139f1bc4c0da"


def test_cycle_colouring_golden_digest():
    import hashlib

    h = hashlib.sha256()
    for n in list(range(3, 401)) + [1000, 2001, 3000]:
        h.update(f"{n}:{''.join(map(str, cycle_colouring(n)))};".encode())
    assert h.hexdigest() == CYCLE_COLOURING_DIGEST


def _judged(monkeypatch, failures):
    """Make the two-cut test find a square in the first ``failures`` full
    candidates and none after; the candidates judged, in order."""
    judged = []

    def crossing(s, lo, mid, hi, max_half):
        if lo:  # the seam's short window: the full checks give the verdict
            return []
        if len(s) == 2 * mid:  # the whole seam, judged first
            judged.append(tuple(s[:mid]))
        return [(0, 1)] if len(judged) <= failures else []

    monkeypatch.setattr(words, "_crossing_squares", crossing)
    return judged


def test_closed_word_budget_ends_the_search(monkeypatch):
    # a tail of 24 symbols on 65 has more than 201 full candidates: 200 may
    # fail, and the 201st failure ends the search
    base = ternary_nonrepetitive(65)
    judged = _judged(monkeypatch, 200)
    assert words._closed_word(list(base), 65 - 24) == judged[-1]
    assert len(judged) == 201
    judged = _judged(monkeypatch, 201)
    assert words._closed_word(list(base), 65 - 24) is None
    assert len(judged) == 201


@pytest.mark.parametrize("n", [65])
def test_cycle_colouring_raises_when_every_search_fails(monkeypatch, n):
    # the tail of 16 runs out after 76 full candidates; the tails of 24, 32
    # and 48 each end at the budget
    judged = _judged(monkeypatch, math.inf)
    with pytest.raises(RuntimeError):
        cycle_colouring(n)
    assert len(judged) == 76 + 3 * 201
