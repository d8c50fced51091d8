"""Fuzz the one place outside input is checked: mutated rotation systems of
seeded graphs must either load or raise EmbeddingError, through
``graph_from_json``, ``build`` and the command line alike."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thueplane import embed, gen
from thueplane.embed import EmbeddingError

from support import run_cli

KINDS = ("tree", "cycle", "cactus_even", "outerplane", "plane", "nested")


def _dart_sites(doc):
    return [(v, i) for v, rot in enumerate(doc["rotations"]) for i in range(len(rot))]


def swap_across_vertices(doc, rnd):
    rot = doc["rotations"]
    u, v = rnd.sample([x for x in range(doc["n"]) if rot[x]], 2)
    i, j = rnd.randrange(len(rot[u])), rnd.randrange(len(rot[v]))
    rot[u][i], rot[v][j] = rot[v][j], rot[u][i]
    return True


def drop_dart(doc, rnd):
    v, i = rnd.choice(_dart_sites(doc))
    del doc["rotations"][v][i]
    return True


def duplicate_dart(doc, rnd):
    v, i = rnd.choice(_dart_sites(doc))
    rot = doc["rotations"][rnd.randrange(doc["n"])]
    rot.insert(rnd.randrange(len(rot) + 1), doc["rotations"][v][i])
    return True


def reorder_rotation(doc, rnd):
    rnd.shuffle(doc["rotations"][rnd.randrange(doc["n"])])
    return False  # may still be a plane embedding


def bad_outer_dart(doc, rnd):
    m = 2 * len(doc["edges"])
    doc["outer_dart"] = rnd.choice([m, m + rnd.randrange(50), -2 - rnd.randrange(50), -1])
    return True


def bad_outer_darts(doc, rnd):
    # outer_dart stays one of outer_darts, so only the out-of-range dart breaks it
    m = 2 * len(doc["edges"])
    doc["outer_dart"] = rnd.randrange(m)
    doc["outer_darts"] = [doc["outer_dart"], rnd.choice([m + rnd.randrange(50), -1])]
    return True


def endpoint_out_of_range(doc, rnd):
    e = rnd.randrange(len(doc["edges"]))
    doc["edges"][e][rnd.randrange(2)] = rnd.choice([doc["n"] + rnd.randrange(50), -1])
    return True


MUTATIONS = (
    swap_across_vertices,
    drop_dart,
    duplicate_dart,
    reorder_rotation,
    bad_outer_dart,
    bad_outer_darts,
    endpoint_out_of_range,
)


def mutated_document(kind, n, seed, mutation, rnd):
    """The JSON document of a seeded graph after one mutation, and whether
    the mutation always breaks it."""
    doc = embed.graph_to_json(gen.generate(gen.GenSpec(kind, n, seed)))
    return doc, mutation(doc, rnd)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(3, 24),
    seed=st.integers(0, 40),
    mutation=st.sampled_from(MUTATIONS),
    salt=st.integers(0, 2**31),
)
def test_mutated_rotation_systems_raise_only_embedding_error(kind, n, seed, mutation, salt):
    doc, breaks = mutated_document(kind, n, seed, mutation, random.Random(salt))
    try:
        embed.graph_from_json(doc)
    except EmbeddingError:
        loaded = False
    else:
        loaded = True
    assert not (breaks and loaded)
    if "outer_darts" in doc:
        return  # build takes a single outer dart
    try:
        embed.build(doc["n"], doc["edges"], doc["rotations"], doc["outer_dart"])
    except EmbeddingError:
        assert not loaded
    else:
        assert loaded


@pytest.mark.parametrize("mutation", [m for m in MUTATIONS if m is not reorder_rotation])
def test_colour_exits_2_on_mutated_documents(tmp_path, mutation):
    doc, breaks = mutated_document("outerplane", 12, 1, mutation, random.Random(3))
    assert breaks
    g = tmp_path / "g.json"
    g.write_text(json.dumps(doc))
    r = run_cli(["colour", "--input", str(g)])
    assert r.exit_code == 2
    assert json.loads(r.stderr.strip().splitlines()[-1])["error"] == "parse"
