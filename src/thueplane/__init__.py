"""Facial nonrepetitive vertex colourings of embedded graphs.

Construct colourings in which no facial path repeats a colour block: at
most 11 colours for outerplane graphs, 22 for plane graphs, 7 for even
cacti and for outerplane graphs with a single 2-connected component.
Every pipeline output is certified by an independent verifier, and tiny
instances support exact chromatic-number search.
"""

from thueplane.blocking import (
    BlockingGraph,
    blocking_graph,
    blocking_set_biconnected,
    blocking_set_even,
    blocking_set_even_biconnected,
    blocking_set_even_biconnected_edge,
    blocking_set_even_bridgeless,
    blocking_set_good_size,
    validate_blocking_set,
)
from thueplane.colour import (
    Colouring,
    PeelingLayering,
    augment_plus,
    colour_cactus_even,
    colour_outerplane,
    colour_outerplane_single_block,
    colour_plane,
    peeling_layering,
)
from thueplane.embed import (
    EmbeddedGraph,
    build,
    chords,
    graph_from_json,
    graph_to_json,
    is_outerplane,
)
from thueplane.gen import GenSpec, enumerate_small, generate
from thueplane.verify import exact_pi_f, exact_pi_tree_paths, facial_paths, verify_facial_nonrepetitive
from thueplane.words import (
    cycle_colouring,
    has_repetition,
    is_palindrome_free,
    palindrome_free_nonrepetitive,
    ternary_nonrepetitive,
    tree_colouring,
)

__version__ = "0.1.0"

__all__ = [
    "BlockingGraph",
    "Colouring",
    "EmbeddedGraph",
    "GenSpec",
    "PeelingLayering",
    "augment_plus",
    "blocking_graph",
    "blocking_set_biconnected",
    "blocking_set_even",
    "blocking_set_even_biconnected",
    "blocking_set_even_biconnected_edge",
    "blocking_set_even_bridgeless",
    "blocking_set_good_size",
    "build",
    "chords",
    "colour_cactus_even",
    "colour_outerplane",
    "colour_outerplane_single_block",
    "colour_plane",
    "cycle_colouring",
    "enumerate_small",
    "exact_pi_f",
    "exact_pi_tree_paths",
    "facial_paths",
    "generate",
    "graph_from_json",
    "graph_to_json",
    "has_repetition",
    "is_outerplane",
    "is_palindrome_free",
    "palindrome_free_nonrepetitive",
    "peeling_layering",
    "ternary_nonrepetitive",
    "tree_colouring",
    "validate_blocking_set",
    "verify_facial_nonrepetitive",
]
