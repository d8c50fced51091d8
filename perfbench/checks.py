"""Output checks, run outside every timed region.

A colouring passes when it assigns a colour in 1..bound to every vertex (the
pipeline's palette bound: 11 outerplane, 22 plane, 7 even cactus and single
block) and ``verify_facial_nonrepetitive`` accepts it.  A verdict passes when
it is the one the item expects; a rejection must also name a real facial
repetition, which the benchmark checks with its own code: the returned path
is contiguous on the named face's walk, its vertices are distinct, and its
colours read XX.
"""

from __future__ import annotations

import hashlib
import json

from thueplane import verify


def colouring_problems(G, colouring, bound):
    """Reasons why ``colouring`` is not a certified colouring of ``G`` within
    ``bound`` colours; empty when it is."""
    colours = colouring.colours
    if len(colours) != G.n:
        return [f"colouring has {len(colours)} entries for {G.n} vertices"]
    if colouring.palette_max > bound:
        return [f"palette_max {colouring.palette_max} exceeds the bound {bound}"]
    if any(not isinstance(c, int) or not 1 <= c <= bound for c in colours):
        return [f"a colour lies outside 1..{bound}"]
    bad = verify.verify_facial_nonrepetitive(G, colours)
    if bad is not None:
        return [f"verifier rejects the colouring on face {bad.face}"]
    return []


def _contiguous_on_walk(walk, path):
    L = len(walk)
    m = len(path)
    if m > L:
        return False
    for seq in (path, path[::-1]):
        for s in range(L):
            if all(walk[(s + t) % L] == seq[t] for t in range(m)):
                return True
    return False


def counterexample_problems(G, colours, path):
    """Reasons why ``path`` (a ``verify.FacialPath``) is not a repetitively
    coloured facial path of ``G``; empty when it is one."""
    if not 0 <= path.face < len(G.faces):
        return [f"counterexample names face {path.face}, which does not exist"]
    vs = tuple(path.vertices)
    if len(vs) < 2 or len(vs) % 2:
        return [f"counterexample has odd or short length {len(vs)}"]
    if len(set(vs)) != len(vs):
        return ["counterexample repeats a vertex"]
    if not _contiguous_on_walk(G.face_vertices(path.face), vs):
        return [f"counterexample is not contiguous on the walk of face {path.face}"]
    half = len(vs) // 2
    if [colours[v] for v in vs[:half]] != [colours[v] for v in vs[half:]]:
        return ["counterexample colours do not read XX"]
    if path.is_outer != G.is_outer_face(path.face):
        return ["counterexample misreports whether its face is outer"]
    return []


def verdict_problems(item, verdict):
    """Reasons why ``verdict`` is wrong for a ``workloads.VerifyItem``."""
    if item.expect_reject:
        if verdict is None:
            return ["wrong verdict: accepted a colouring with a planted square"]
        return counterexample_problems(item.graph, item.colours, verdict)
    if verdict is not None:
        return [f"wrong verdict: rejected a certified colouring on face {verdict.face}"]
    return []


def output_record(output):
    """JSON-ready form of one output: a colour list or a verdict."""
    if output is None:
        return None
    if hasattr(output, "colours"):
        return list(output.colours)
    return {"face": output.face, "vertices": list(output.vertices)}


def output_digest(records):
    """SHA-256 of the outputs in item order; equal digests mean identical
    colourings and verdicts."""
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
