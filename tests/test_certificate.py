"""A certificate that shares no code with the kernel: the pipelines' outputs
and the cycle words, checked face by face with the per-start regex scans of
``square_oracle``.  Neither this module nor the oracle imports
``thueplane.kernels`` or ``thueplane.verify``, so a defect there that hides
a square cannot hide it here too."""

import ast
import pathlib

from thueplane.embed import ClassMismatchError
from thueplane.words import cycle_colouring

import square_oracle
from test_golden import PIPELINES, golden_corpus


def _first_square(verts, colours):
    if len(set(verts)) == len(verts):
        return square_oracle.first_square_on_cycle(verts, colours)
    return square_oracle.first_square_in_face(verts, colours, len(verts))


def test_the_certificate_imports_no_kernel_code():
    for path in (pathlib.Path(__file__), pathlib.Path(square_oracle.__file__)):
        tree = ast.parse(path.read_text())
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not {"thueplane.kernels", "thueplane.verify"} & modules, path.name
        assert not {"kernels", "verify"} & names, path.name


def test_pipeline_outputs_on_the_golden_corpus_pass_the_oracle():
    certified = 0
    for G in golden_corpus():
        for pipeline in PIPELINES:
            try:
                result = pipeline(G)
            except ClassMismatchError:
                continue
            colours = result.colours
            assert len(colours) == G.n and max(colours, default=1) <= result.palette_max
            for f in range(len(G.faces)):
                assert _first_square(G.face_vertices(f), colours) is None, (pipeline.__name__, G.n, f)
            certified += 1
    assert certified > 200


def test_cycle_words_pass_the_oracle():
    # 4,097 is past the 4,096 labels of the kernel's per-half pass
    for n in list(range(3, 401)) + [1000, 2001, 3000, 4097]:
        assert square_oracle.first_square_on_cycle(range(n), cycle_colouring(n)) is None, n
