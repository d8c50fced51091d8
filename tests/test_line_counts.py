"""Scaling gates from exact work counts: the lines the interpreter runs in
the package (``linecount``), fitted against n.  Unlike a wall-time fit
they do not move with the machine's load, so a bound of 1.05 holds on
clean code and a Python-level scan planted in a loop fails it."""

import pytest

from thueplane import blocking, colour, embed, gen

from linecount import count_lines, fit_exponent

#: the outerplane ``gen`` families the outerplane core colours
CORE_KINDS = ("outerplane", "flower", "outerplane_bridgeless", "cactus_even", "outerplane_biconnected")


def _core_lines(kind, n):
    """Line events of the outerplane core, the even blocking set and the
    colouring of its blocking graph and forest, on ``gen`` kind n, seed 0."""
    G = embed.simplify(gen.generate(gen.GenSpec(kind, n, 0)))
    _, counts = count_lines(lambda: colour._colour_outerplane_core(G, blocking._even_blocking_over_blocks(G)))
    return sum(counts.values())


def _check_core_fit(kind, sizes):
    points = [(n, _core_lines(kind, n)) for n in sizes]
    exp = fit_exponent(points)
    assert exp <= 1.05, f"{kind}: line counts {points} fit n^{exp:.3f} (> 1.05)"


@pytest.mark.parametrize("kind", CORE_KINDS)
def test_outerplane_core_lines_grow_linearly(kind):
    _check_core_fit(kind, (1000, 3000))


@pytest.mark.slow
@pytest.mark.parametrize("kind", CORE_KINDS)
def test_outerplane_core_lines_grow_linearly_at_large_sizes(kind):
    _check_core_fit(kind, (10**4, 3 * 10**4))
