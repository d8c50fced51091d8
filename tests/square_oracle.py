"""Reference oracles for square detection: the unscreened Main–Lorentz
divide and conquer of ``kernels.find_square`` and the per-start
counterexample scan of ``verify._first_square_in_face``, as they stood
before the regex screen and the one-sweep search replaced them.  The tests
require the production code to return the *identical* witness."""

_SEP = -1  # sentinel; symbols are assumed non-negative


def z_array(s):
    """Z-array of ``s``: z[i] = length of the longest common prefix of
    ``s`` and ``s[i:]`` (with z[0] = len(s))."""
    n = len(s)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l = r = 0
    for i in range(1, n):
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
        # centre position m (relative to lo) of a square u[m-l:m+l];
        # m must keep the centre in u, cross mid, and fit in [lo, hi).
        m_lo = max(l, p - l + 1, p - k1)
        m_hi = min(p, p - l + k2, p + q - l)
        if m_lo <= m_hi:
            return (lo + m_lo - l, l)
    return None


def _find_square_segment(s, lo, hi, max_half):
    if hi - lo < 2:
        return None
    mid = (lo + hi) // 2
    res = _find_square_segment(s, lo, mid, max_half)
    if res is not None:
        return res
    res = _find_square_segment(s, mid, hi, max_half)
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
    return _find_square_segment(s, 0, len(s), max_half)


def first_square_in_face(verts, colours, L):
    """Smallest (start, half) repetition over the facial paths of a cyclic
    walk; used only to report counterexamples."""
    for s in range(L):
        used = set()
        win = []
        for k in range(L):
            v = verts[(s + k) % L]
            if v in used:
                break
            used.add(v)
            win.append(colours[v])
        for r in range(1, len(win) // 2 + 1):
            if win[:r] == win[r : 2 * r]:
                return s, r
    return None
