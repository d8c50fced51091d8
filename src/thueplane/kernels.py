"""Pure-Python repetition-detection kernel.

A *square* (repetition) in a sequence is a block of even length 2*l whose
second half equals its first half position-wise.  ``find_square`` locates one
in O(n log n) by divide and conquer (Main & Lorentz, J. Algorithms 1984):
squares inside either half are found recursively, squares crossing the
midpoint are found with Z-arrays.

Short segments are screened first.  The sequence is written once as a
string, one character per symbol, and every segment of at most ``_SHORT``
symbols is searched with the regular expression ``(.+)\1`` (or
``(.{1,k})\1`` when ``max_half`` = k bounds the half length) by the C
engine of ``re``.  A segment the screen finds square-free returns None
without recursing; any other segment runs the divide and conquer unchanged.
The screen only prunes segments for which the recursion would return None,
so the witness is the same as without it.  The screen backtracks over
every (start, half) pair, which is quadratic or worse, but in C: on
square-free ternary words of 128 symbols it took about 0.17 ms against
1.4 ms for the divide and conquer (2-CPU VM, Python 3.11).  ``_SHORT`` = 128
was chosen by replaying the kernel calls of the benchmark's workloads with
cutoffs from 64 to 256; 128 to 192 were fastest, within noise of each other.
A symbol outside the range of ``chr`` turns the screen off for that call.
Symbols must be non-negative integers; -1 is reserved as an internal
sentinel.

A short facial walk, a cycle (the arcs of a cyclic word) and the
distinct-vertex windows of a facial walk have one function each, and these
three functions alone choose which search runs:

- ``_short_walk_square_free`` clears a walk of L <= ``_SHORT // 2`` darts if
  one search of its doubled colours finds no square of half <= L // 2.
- ``cyclic_square`` decides a cycle of L labels of w bytes, w for its
  largest label.  Its exact mode returns the smallest (start, half); its
  first mode returns the first square it finds, a decision.  A cycle with
  w·L <= ``_BAND`` bytes goes to the per-half pass: one XOR pass per half
  length over the doubled word written as bytes.  In the exact mode a
  doubled word of at most ``_SHORT`` symbols goes to the regex screen of
  ``find_square`` instead, and in either mode a cycle above the band goes
  to Main–Lorentz on the doubled word.  A cycle found square-free there is
  done; in the exact mode a failing one then runs the pass.  Above the
  band the pass also matches one start per ``_PACE`` halves, so it costs
  at most about twice the cheaper of the pass and the per-start match.
- ``window_square`` decides a walk with a repeated vertex by
  ``find_square`` on each maximal window, and only a failing walk runs one
  lazy match per start for its smallest (start, half).

The pass costs Θ(w·L²) bytes, quadratic but capped by the band, like the
screen below ``_SHORT``.  On square-free cycles it beat ``find_square`` on
the doubled word 2-9x up to 6,000 bytes and drew level between 12,000 and
16,000 bytes with one- and two-byte labels, so the band is 8,192 bytes.
The pass and the match read only which labels are equal, so labels wider
than a byte are first relabelled 0, 1, ... by first occurrence; the band is
decided on the labels as given.
"""

import re
import sys

#: read by perfbench's context line and by the report of ``thueplane bench``
BACKEND = "python"

_SEP = -1  # sentinel; symbols are assumed non-negative

#: longest segment the regex screen decides on its own
_SHORT = 128
_SQUARE = re.compile(r"(.+)\1", re.S)
#: _SQUARE_UPTO[k] matches squares of half length at most k (any, for k = 0)
_SQUARE_UPTO = (_SQUARE,) + tuple(re.compile(r"(.{1,%d})\1" % k, re.S) for k in range(1, _SHORT // 2))


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
            k = min(r - i, z[i - l])
        while i + k < n and s[k] == s[i + k]:
            k += 1
        z[i] = k
        if i + k > r:
            l, r = i, i + k
    return z


def _crossing_square(s, lo, mid, hi, max_half):
    """Find a square of s[lo:hi] whose centre lies in s[lo:mid] and which
    crosses position mid.  Returns (start, half_length) or None."""
    u = s[lo:mid]
    v = s[mid:hi]
    p = len(u)
    q = len(v)
    if p == 0 or q == 0:
        return None
    z1 = z_array(u[::-1])          # z1[l] = longest common suffix of u, u[:p-l]
    z2 = z_array(v + [_SEP] + u)   # z2[q+1+i] = lcp(v, u[i:])
    lmax = p if max_half <= 0 else min(p, max_half)
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
            return (lo + m_lo - l, l)
    return None


def _find_square_segment(s, lo, hi, max_half, text=None, screen=None):
    if hi - lo < 2:
        return None
    if text is not None and hi - lo <= _SHORT and screen.search(text, lo, hi) is None:
        return None
    mid = (lo + hi) // 2
    res = _find_square_segment(s, lo, mid, max_half, text, screen)
    if res is not None:
        return res
    res = _find_square_segment(s, mid, hi, max_half, text, screen)
    if res is not None:
        return res
    res = _crossing_square(s, lo, mid, hi, max_half)
    if res is not None:
        return res
    # squares whose centre lies right of mid: search the reversal
    seg = s[lo:hi]
    seg.reverse()
    res = _crossing_square(seg, 0, hi - mid, hi - lo, max_half)
    if res is not None:
        a_rel, l = res
        return (hi - a_rel - 2 * l, l)
    return None


def find_square(seq, max_half=0):
    """Locate a repetition in ``seq``.

    Returns (start, half_length) for some block seq[start : start+2*half]
    whose halves are equal, or None if ``seq`` is nonrepetitive.  If
    ``max_half`` is positive, only repetitions with half length <= max_half
    are reported.  The witness is deterministic but not necessarily the
    leftmost one.
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


#: widest cycle, in bytes w·L, that the per-half pass decides on its own
_BAND = 8192
#: above the band the pass matches one start per _PACE halves: a start costs
#: the match 1.7-6 halves of the pass (L = 2,000 to 65,540, w = 1 to 3)
_PACE = 4
#: the pass hands starts s..best to the match once _FINISH * (best - s + 1) is
#: at most the halves left: 16, not 4 or 8, never lost time on 350- to 20,000-cycles
_FINISH = 16
#: at a fixed start the lazy group tries half lengths 1, 2, ... in order;
#: the second pattern reads text written two characters per label
_FIRST_SQUARE = (re.compile(r"(.+?)\1", re.S), re.compile(r"((?:..)+?)\1", re.S))
_CHARS = sys.maxunicode + 1
#: a decision that the search cannot reproduce is a bug that must not pass silently
_DISAGREE = "the kernel reports a repetition the search cannot find"


def _width(top):
    return max(1, (top.bit_length() + 7) // 8)


def _narrow(codes):
    """``codes`` relabelled 0, 1, ... by first occurrence when a label takes
    more than one byte, else ``codes`` as given."""
    if max(codes) < 256:
        return codes
    labels = {}
    return [labels.setdefault(c, len(labels)) for c in codes]


def _first_halves(codes):
    """at(s, end): the smallest half of a square that starts at s and ends
    by ``end`` in the doubled labels ``codes``, else None; one C-level lazy
    match, written one character a label, two once ``chr`` runs out."""
    if max(codes) < _CHARS:
        width, text = 1, "".join(map(chr, codes))
    else:
        width, text = 2, "".join(chr(c // _CHARS) + chr(c % _CHARS) for c in codes)
    match = _FIRST_SQUARE[width - 1].match
    text += text

    def at(s, end):
        m = match(text, width * s, width * end)
        return None if m is None else len(m.group(1)) // width

    return at


def cyclic_square(codes, first=False):
    """(start, half) of a square on the cycle ``codes``, a list of
    non-negative ints: the smallest by start and then half, or with
    ``first`` the first one found; None when every arc is square-free.
    Which search runs is the rule in the module docstring."""
    L = len(codes)
    if L < 2:
        return None
    # for the exact mode below _SHORT, and outside the band, Main–Lorentz
    # decides first and the pass only names a square it found
    decided = not first and 2 * L <= _SHORT or L * _width(max(codes)) > _BAND
    if decided:
        hit = find_square(codes + codes, max_half=L // 2)
        if hit is None or first:
            return None if hit is None else (hit[0] % L, hit[1])
    hit = _cyclic_pass(_narrow(codes), first)
    if hit is None and decided:
        raise RuntimeError(_DISAGREE)
    return hit


def _cyclic_pass(codes, first):
    """``cyclic_square`` by the per-half pass.

    One pass per half h: with the doubled walk read as an int T, w bytes a
    label, the squares of half h are the aligned runs of wh zero bytes in
    T ^ (T >> 8wh), searched among the starts before the best so far, so
    ties keep the smaller half.  Once a square is known early enough, one
    lazy match per start finishes; above the band the pass also matches
    one start per ``_PACE`` halves.
    """
    L = len(codes)
    w = _width(max(codes))
    data = bytes(codes) if w == 1 else b"".join(c.to_bytes(w, "little") for c in codes)
    D = int.from_bytes(data + data, "little")
    pace = _PACE if w * L > _BAND else L
    best, best_s, s, at = None, L, 0, None  # starts below s hold no square
    for h in range(1, L // 2 + 1):
        k = w * (best_s - 1 + 2 * h)
        T = D & ((1 << 8 * k) - 1)
        X = (T ^ (T >> 8 * w * h)).to_bytes(k, "little")
        zero, stop = bytes(w * h), w * (best_s - 1 + h)
        i = X.find(zero, w * s, stop)
        while i > 0 and i % w:
            i = X.find(zero, i - i % w + w, stop)
        if i >= 0:
            best_s, best = i // w, (i // w, h)
            if first:
                return best
            if _FINISH * (best_s - s + 1) <= L // 2 - h:
                break
        if h % pace == 0:
            at = at or _first_halves(codes)
            r = at(s, s + L)
            if r is not None:
                return s, r
            s += 1
            if s == best_s:
                return best
    else:
        return best
    at = at or _first_halves(codes)
    for s in range(s, best_s):
        r = at(s, s + L)
        if r is not None:
            return s, r
    return best


def window_square(codes, ends):
    """(start, half) of the smallest square, by start and then half, that
    starts at s and ends by ends[s] in the doubled walk ``codes + codes``,
    where ends[s] - s is the length of the longest distinct-vertex window
    from s; None when there is none.  Main–Lorentz decides over the maximal
    windows, and only a failing walk runs one lazy match per start."""
    L = len(codes)
    dbl = codes + codes
    # the window from s is maximal when the one from s - 1 ends before it
    if all(find_square(dbl[s:end]) is None for s, end in enumerate(ends) if end > ends[s - 1] - (L if s == 0 else 0)):
        return None
    at = _first_halves(_narrow(codes))
    for s, end in enumerate(ends):
        r = at(s, end)
        if r is not None:
            return s, r
    raise RuntimeError(_DISAGREE)
