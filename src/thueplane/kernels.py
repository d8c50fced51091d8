r"""Pure-Python repetition-detection kernel.

A *square* (repetition) in a sequence is a block of even length 2*l whose
second half equals its first half position-wise.  Every search here names
the same witness: the smallest square by start, then by half.
``find_square`` finds it in O(n log n) by divide and conquer (Main &
Lorentz, J. Algorithms 1984).  A segment's answer is the smaller of the
left half's answer and the smallest square crossing the midpoint, found
with Z-arrays in both orientations (``_crossing_squares``, which also
checks the two cuts of a candidate cycle word in ``words``); the right half
is searched only when both are empty, so a square-free input costs what a
decision costs.

Short segments are decided in C.  The sequence is written once as a
string, one character per symbol, and a segment of at most ``_SHORT``
symbols is searched with the regular expression ``(.+)\1`` (or
``(.{1,k})\1`` when ``max_half`` = k bounds the half length) by the
engine of ``re``.  The search stops at the leftmost start of a square, and
one lazy ``(.+?)\1`` match there names the shortest half, which is never
longer than the screen's, so it respects ``max_half``.  The screen
backtracks over every (start, half) pair, which is quadratic or worse, but
in C: on square-free ternary words of 128 symbols it took about 0.17 ms
against 1.4 ms for the divide and conquer (2-CPU VM, Python 3.11).
``_SHORT`` = 128 was chosen by replaying the kernel calls of the
benchmark's workloads with cutoffs from 64 to 256; 128 to 192 were
fastest, within noise of each other.  A symbol outside the range of
``chr`` turns the screen off for that call.  Symbols must be non-negative
integers; -1 is reserved as an internal sentinel.

A short facial walk, a cycle (the arcs of a cyclic word) and the
distinct-vertex windows of a facial walk have one function each, and these
three functions alone choose which search runs:

- ``_short_walk_square_free`` clears a walk of L <= ``_SHORT // 2`` darts if
  one search of its doubled colours finds no square of half <= L // 2.
- ``cyclic_square`` decides a cycle of L labels.  A cycle of at most
  ``_BAND`` labels, each below 256, goes to the per-half pass over the
  doubled word as bit planes.  Every other cycle is the smaller of
  ``find_square`` on the word and one ``_crossing_squares`` step at its
  seam, since a square from start L on recurs L earlier.
- ``window_square`` is ``find_square`` on each maximal window, in start
  order, keeping the smallest hit.

The pass compares one label bit at 30 positions per CPython int digit
(Baeza-Yates & Gonnet, CACM 1992): Θ(L²) bit operations, capped by the band.
On square-free words it beat the seam route over 3 labels up to 8,192 (7
against 19 ms at 4,096) but lost over 7 at 8,000 (51 against 41 ms), and a
band of 32,768 slowed verifying ``gen`` ``outerplane_biconnected`` 3*10**4
(0.35 against 0.22 s; best of 3, 2-CPU VM, Python 3.11), so the band is
4,096 labels.  Labels of 256 or more come only from outside input.
"""

import re
from itertools import compress
from operator import gt

#: read by perfbench's context line and by the report of ``thueplane bench``
BACKEND = "python"

_SEP = -1  # sentinel; symbols are assumed non-negative

#: longest segment the regex screen decides on its own
_SHORT = 128
_SQUARE = re.compile(r"(.+)\1", re.S)
#: _SQUARE_UPTO[k] matches squares of half length at most k (any, for k = 0)
_SQUARE_UPTO = (_SQUARE,) + tuple(re.compile(r"(.{1,%d})\1" % k, re.S) for k in range(1, _SHORT // 2))
#: at a fixed start the lazy group tries half lengths 1, 2, ... in order
_FIRST_SQUARE = re.compile(r"(.+?)\1", re.S)


def z_array(s):
    """Z-array of ``s``: z[i] = length of the longest common prefix of
    ``s`` and ``s[i:]`` (with z[0] = len(s))."""
    n = len(s)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    first = s[0]
    l = r = 0
    for i in range(1, n):
        if s[i] != first:  # z[i] = 0: a match of length 0 never moves the window [l, r)
            continue
        k = 0
        if i < r:
            k = z[i - l]
            if k > r - i:  # a branch, not min(): this loop is the kernel's hot spot
                k = r - i
        while i + k < n and s[k] == s[i + k]:
            k += 1
        z[i] = k
        if i + k > r:
            l, r = i, i + k
    return z


def _crossing_centres(s, lo, mid, hi, max_half):
    """(l, first, last) for each half l of a square of s[lo:hi] that
    crosses position mid with its centre in s[lo:mid]: its centres, relative
    to lo, run from first to last."""
    u = s[lo:mid]
    v = s[mid:hi]
    p = len(u)
    q = len(v)
    if p == 0 or q == 0:
        return []
    z1 = z_array(u[::-1])          # z1[l] = longest common suffix of u, u[:p-l]
    z2 = z_array(v + [_SEP] + u)   # z2[q+1+i] = lcp(v, u[i:])
    lmax = p if max_half <= 0 else min(p, max_half)
    out = []
    for l in range(1, lmax + 1):
        k1 = z1[l] if l < p else 0
        k2 = z2[q + 1 + (p - l)]
        if k1 + k2 < l:  # then m_lo >= p - k1 > p - l + k2 >= m_hi
            continue
        # centre position m (relative to lo) of a square u[m-l:m+l];
        # m must keep the centre in u, cross mid, and fit in [lo, hi).
        m_lo = max(l, p - l + 1, p - k1)
        m_hi = min(p, p - l + k2, p + q - l)
        if m_lo <= m_hi:
            out.append((l, m_lo, m_hi))
    return out


def _crossing_squares(s, lo, mid, hi, max_half):
    """(start, half) of the leftmost square of each half, in each
    orientation, among the squares of s[lo:hi] that hold both s[mid - 1]
    and s[mid]: the Main-Lorentz crossing step.  Empty when none crosses
    mid; ``max_half`` bounds the half as in ``find_square``."""
    hits = [(lo + first - l, l) for l, first, _ in _crossing_centres(s, lo, mid, hi, max_half)]
    # squares whose centre lies right of mid: search the reversal
    seg = s[lo:hi]
    seg.reverse()
    hits += [(hi - last - l, l) for l, _, last in _crossing_centres(seg, 0, hi - mid, hi - lo, max_half)]
    return hits


def _find_square_segment(s, lo, hi, max_half, text=None, screen=None):
    if hi - lo < 2:
        return None
    if text is not None and hi - lo <= _SHORT:
        m = screen.search(text, lo, hi)
        return None if m is None else (m.start(), len(_FIRST_SQUARE.match(text, m.start(), hi).group(1)))
    mid = (lo + hi) // 2
    left = _find_square_segment(s, lo, mid, max_half, text, screen)
    hits = _crossing_squares(s, lo, mid, hi, max_half)
    if left is not None:
        hits.append(left)
    # every square left of mid or across it starts before any right of mid
    return min(hits) if hits else _find_square_segment(s, mid, hi, max_half, text, screen)


def find_square(seq, max_half=0):
    """Locate the leftmost repetition in ``seq``.

    Returns (start, half_length) for the block seq[start : start+2*half]
    whose halves are equal with the smallest start, and the smallest half
    at that start, or None if ``seq`` is nonrepetitive.  If ``max_half`` is
    positive, only repetitions with half length <= max_half count.
    """
    s = list(seq)
    if len(s) < 2:
        return None
    try:
        text = "".join(map(chr, s))
    except (ValueError, TypeError, OverflowError):
        return _find_square_segment(s, 0, len(s), max_half)
    # a segment of at most _SHORT symbols holds no square of half > _SHORT // 2
    screen = _SQUARE_UPTO[max_half] if 0 < max_half < len(_SQUARE_UPTO) else _SQUARE
    return _find_square_segment(s, 0, len(s), max_half, text, screen)


def _short_walk_square_free(walk, origin, colours):
    """True clears the walk: its doubled colours hold every square of its facial paths."""
    if not 2 <= len(walk) <= _SHORT // 2:
        return False
    try:
        text = "".join([chr(colours[origin[d]]) for d in walk])
    except (ValueError, OverflowError):  # a colour past the range of chr
        return False
    return _SQUARE_UPTO[len(walk) // 2].search(text + text) is None


#: longest cycle, in labels, that the per-half pass decides on its own
_BAND = 4096
#: the pass hands starts 0..best to the match once _FINISH * (best + 1) is
#: at most the halves left: 16, not 4 or 8, never lost time on 350- to 20,000-cycles
_FINISH = 16


def cyclic_square(codes):
    """(start, half) of a square on the cycle ``codes``, a list of
    non-negative ints: the smallest by start and then half; None when every
    arc is square-free.  Which search runs is the rule in the module
    docstring."""
    L = len(codes)
    if L < 2:
        return None
    top = max(codes)
    if L > _BAND or top > 255:
        # a square from start L on recurs L earlier: the leftmost lies in the word or across its seam
        seam = _crossing_squares(codes + codes, 0, L, 2 * L, L // 2)
        return min(filter(None, [find_square(codes, max_half=L // 2), *seam]), default=None)
    return _cyclic_pass(codes, top.bit_length())


#: _PLANES[b] maps a label to the digit "1" when its bit b is set, else "0"
_PLANES = tuple(bytes(48 + (c >> b & 1) for c in range(256)) for b in range(8))


def _cyclic_pass(codes, width):
    """``cyclic_square`` by the per-half pass, on labels below 2**width <= 256.

    Plane b of the doubled walk is an int P whose bit i is bit b of label i,
    built in C from the reversed walk.  Per half h, the planes' P ^ (P >> h)
    OR to the positions whose label differs from the one h later; their
    complement, cut to runs from starts before the best so far (ties keep
    the smaller half) and AND-doubled, marks the starts of runs of h equal
    positions: the lowest is a square.  Once one is known early enough, one
    lazy match per start finishes.
    """
    L = len(codes)
    rev = bytes(codes[::-1]) * 2
    planes = [int(rev.translate(t), 2) for t in _PLANES[:width]]
    best, best_s = None, L
    for h in range(1, L // 2 + 1):
        diff = 0
        for P in planes:
            diff |= P ^ (P >> h)
        run = ~diff & ((1 << (best_s - 1 + h)) - 1)
        n = 1
        while run and 2 * n < h:
            run &= run >> n
            n *= 2
        run &= run >> (h - n)
        if run:
            best_s = (run & -run).bit_length() - 1
            best = (best_s, h)
            if _FINISH * (best_s + 1) <= L // 2 - h:
                break
    else:
        return best
    text = bytes(codes).decode("latin-1") * 2
    for s in range(best_s):
        m = _FIRST_SQUARE.match(text, s, s + L)
        if m is not None:
            return s, len(m.group(1))
    return best


def window_square(codes, ends):
    """(start, half) of the smallest square, by start and then half, that
    starts at s and ends by ends[s] in the doubled walk ``codes + codes``,
    where ends[s] - s is the length of the longest distinct-vertex window
    from s; None when there is none.  ``find_square`` reads the maximal
    windows in start order, window 0 always, since a wrapped window that
    covers it would name its squares L starts late."""
    dbl = codes + codes
    best = None
    for s in [0, *compress(range(1, len(ends)), map(gt, ends[1:], ends))]:  # the maximal windows
        if best is not None and s >= best[0]:
            break
        hit = find_square(dbl[s : ends[s]])
        if hit is not None and (best is None or (s + hit[0], hit[1]) < best):
            best = (s + hit[0], hit[1])
    return best
