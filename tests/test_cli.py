import json
import os
import pathlib
import subprocess
import sys

import pytest

from thueplane import bench, cli, colour, embed, gen, verify

from conftest import path_graph, polygon, wheel
from support import run_cli as run


def write_graph(tmp_path, G, name="g.json"):
    p = tmp_path / name
    p.write_text(embed.dumps_graph(G) + "\n")
    return str(p)


def test_gen_colour_verify_round_trip(tmp_path):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    r = run(["gen", "--kind", "outerplane", "--n", "25", "--seed", "3", "--out", str(g)])
    assert r.exit_code == 0
    r = run(["colour", "--input", str(g), "--mode", "outerplane", "--output", str(c)])
    assert r.exit_code == 0
    report = json.loads(r.stdout.strip().splitlines()[-1])
    assert "verified" not in report and report["colours_used"] <= 11
    r = run(["verify", "--input", str(g), "--colouring", str(c)])
    assert r.exit_code == 0
    assert json.loads(r.stdout)["ok"] is True


def test_colour_exit_codes(tmp_path):
    # class mismatch: a wheel is not outerplane
    g = write_graph(tmp_path, wheel(5))
    r = run(["colour", "--input", g, "--mode", "outerplane"])
    assert r.exit_code == 3
    # parse failure
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    r = run(["colour", "--input", str(bad), "--mode", "outerplane"])
    assert r.exit_code == 2
    assert "parse" in r.stderr


def test_plane_mode(tmp_path):
    g = write_graph(tmp_path, wheel(5))
    out = tmp_path / "c.json"
    r = run(["colour", "--input", g, "--mode", "plane", "--output", str(out)])
    assert r.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["palette_max"] == 22 and len(set(doc["colours"])) <= 22


# a path 0-1; each probe breaks one field of it
PATH_DOC = {"n": 2, "edges": [[0, 1]], "rotations": [[0], [1]], "outer_dart": 0}


def _assert_parse_exit(r):
    assert r.exit_code == 2
    assert json.loads(r.stderr.strip().splitlines()[-1])["error"] == "parse"


@pytest.mark.parametrize(
    "probe",
    [
        {"edges": [[0]]},  # was an uncaught ValueError
        {"n": "2"},  # was an uncaught TypeError
        {"edges": [[0, 1.5]]},  # was truncated to (0, 1), exit 0
        {"edges": [[0, True]]},
        {"edges": [[0, 1, 1]]},
        {"rotations": [[0.0], [1]]},
        {"rotations": [0, [1]]},
        {"rotations": [[0]]},
        {"n": -1},
        {"outer_dart": "0"},
        {"outer_dart": -2},
        {"outer_darts": [0.5]},
    ],
)
def test_colour_rejects_malformed_graph_documents(tmp_path, probe):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({**PATH_DOC, **probe}))
    _assert_parse_exit(run(["colour", "--input", str(g)]))


@pytest.mark.parametrize("outer", [{}, {"outer_dart": -1}, {"outer_darts": []}])
def test_colour_rejects_edges_without_an_outer_dart(tmp_path, outer):
    # each was read with face 0 as the outer face, exit 0
    doc = {key: value for key, value in PATH_DOC.items() if key != "outer_dart"}
    g = tmp_path / "g.json"
    g.write_text(json.dumps({**doc, **outer}))
    _assert_parse_exit(run(["colour", "--input", str(g)]))


@pytest.mark.parametrize("outer_dart", ["x", 3.5, True, -7, 1000000, 1])
def test_outer_dart_is_checked_beside_outer_darts(tmp_path, outer_dart):
    # each exited 0, outer_dart unread; dart 1 lies on the face that dart 0
    # does not, so the two keys named different outer faces
    G = polygon(4)
    assert G.face_of[0] != G.face_of[1]
    g = tmp_path / "g.json"
    g.write_text(json.dumps({**embed.graph_to_json(G), "outer_darts": [0], "outer_dart": outer_dart}))
    _assert_parse_exit(run(["colour", "--input", str(g)]))
    g.write_text(json.dumps({**embed.graph_to_json(G), "outer_darts": [0], "outer_dart": 0}))
    assert run(["colour", "--input", str(g)]).exit_code == 0


@pytest.mark.parametrize("text", ["[1, 2]", "[" * 100000 + "]" * 100000])
def test_colour_rejects_non_object_graph_document(tmp_path, text):
    # the deeply nested array was an uncaught RecursionError
    g = tmp_path / "g.json"
    g.write_text(text)
    _assert_parse_exit(run(["colour", "--input", str(g)]))


#: past the 4,300 digits that ``int`` converts by default; ``json.dumps``
#: cannot write it, so each document is raw text
BIG = "9" * 5000


@pytest.mark.parametrize(
    "text",
    [
        '{"n": %s, "edges": [], "rotations": []}' % BIG,
        '{"n": 2, "edges": [[0, %s]], "rotations": [[0], [1]], "outer_dart": 0}' % BIG,
        '{"n": 2, "edges": [[0, 1]], "rotations": [[0], [1]], "outer_dart": %s}' % BIG,
    ],
    ids=["n", "edge-end", "outer-dart"],
)
@pytest.mark.parametrize("command", ["colour", "verify"])
def test_an_integer_past_the_digit_limit_is_a_parse_failure(tmp_path, text, command):
    # json.loads raises a plain ValueError for it, which exited 1 with a traceback
    g = tmp_path / "g.json"
    g.write_text(text)
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": [1, 2], "palette_max": 2}))
    args = {"colour": ["colour", "--input", str(g)], "verify": ["verify", "--input", str(g), "--colouring", str(c)]}
    _assert_parse_exit(run(args[command]))


def test_a_colour_past_the_digit_limit_is_a_parse_failure(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(PATH_DOC))
    c = tmp_path / "c.json"
    c.write_text('{"colours": [1, %s], "palette_max": 2}' % BIG)
    _assert_parse_exit(run(["verify", "--input", str(g), "--colouring", str(c)]))
    # with no digit limit json reads the colour, which verify accepted (exit 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _assert_parse_exit(run(["verify", "--input", str(g), "--colouring", str(c)]))
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_rejects_deeply_nested_colouring_document(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(PATH_DOC))
    c = tmp_path / "c.json"
    c.write_text("[" * 100000 + "]" * 100000)
    _assert_parse_exit(run(["verify", "--input", str(g), "--colouring", str(c)]))


@pytest.mark.parametrize(
    "doc",
    [
        {"colours": [1, 2.5], "palette_max": 2},
        {"colours": [1, "2"], "palette_max": 2},
        {"colours": [1, 2], "palette_max": "2"},
        {"colours": [1, 2], "palette_max": 2.0},
        {"colours": [1, True], "palette_max": 2},
        {"colours": [1, -2], "palette_max": 2},  # was a ValueError traceback in verify
        {"colours": 12, "palette_max": 2},
        [1, 2],
        {"colours": [1, 2], "palette_max": -5},  # verified with exit 0 on a path
        {"colours": [1, 3], "palette_max": 2},
    ],
)
def test_verify_rejects_malformed_colouring_documents(tmp_path, doc):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(PATH_DOC))
    c = tmp_path / "c.json"
    c.write_text(json.dumps(doc))
    _assert_parse_exit(run(["verify", "--input", str(g), "--colouring", str(c)]))


@pytest.mark.parametrize(
    "command", [["verify"], ["export", "--svg", "g.svg"], ["export", "--dot", "g.dot"]]
)
@pytest.mark.parametrize("colours", [[1, 2], [1, 2, 3, 1, 2, 3]])
def test_colouring_of_the_wrong_length_is_a_parse_failure(tmp_path, monkeypatch, command, colours):
    # export exited 1 with an IndexError traceback on the short colouring
    monkeypatch.chdir(tmp_path)
    g = write_graph(tmp_path, polygon(5))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": colours, "palette_max": 3}))
    _assert_parse_exit(run([command[0], "--input", g, "--colouring", str(c), *command[1:]]))
    assert not (tmp_path / "g.svg").exists() and not (tmp_path / "g.dot").exists()


@pytest.mark.parametrize(
    "command", [["verify"], ["export", "--svg", "g.svg"], ["export", "--dot", "g.dot"]]
)
@pytest.mark.parametrize("palette_max", [-5, 2])
def test_palette_max_below_a_colour_is_a_parse_failure(tmp_path, monkeypatch, command, palette_max):
    # {"colours": [1, 2, 1, 3], "palette_max": -5} on a 4-cycle verified with exit 0
    monkeypatch.chdir(tmp_path)
    g = write_graph(tmp_path, polygon(4))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": [1, 2, 1, 3], "palette_max": palette_max}))
    r = run([command[0], "--input", g, "--colouring", str(c), *command[1:]])
    _assert_parse_exit(r)
    assert len(r.stderr.strip().splitlines()) == 1 and "Traceback" not in r.stderr
    assert not (tmp_path / "g.svg").exists() and not (tmp_path / "g.dot").exists()


def test_verify_counterexample_exit(tmp_path):
    g = write_graph(tmp_path, polygon(4))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": [1, 2, 1, 2], "palette_max": 2, "verified": False}))
    r = run(["verify", "--input", g, "--colouring", str(c)])
    assert r.exit_code == 1
    doc = json.loads(r.stdout)
    assert doc["ok"] is False and "counterexample" in doc


@pytest.mark.parametrize("flag", [{}, {"verified": True}, {"verified": False}, {"verified": "yes"}])
@pytest.mark.parametrize("colours, verdict", [([1, 2, 1, 3], 0), ([1, 2, 1, 2], 1)])
def test_verify_verdict_ignores_a_verified_key(tmp_path, flag, colours, verdict):
    # colourings no longer carry the key; an old file's is read like any extra key
    g = write_graph(tmp_path, polygon(4))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": colours, "palette_max": 3, **flag}))
    r = run(["verify", "--input", g, "--colouring", str(c)])
    assert r.exit_code == verdict
    assert json.loads(r.stdout)["ok"] is (verdict == 0)


def test_gen_deterministic_stdout():
    a = run(["gen", "--kind", "cactus_even", "--n", "14", "--seed", "9"])
    b = run(["gen", "--kind", "cactus_even", "--n", "14", "--seed", "9"])
    assert a.stdout == b.stdout and a.exit_code == 0


def test_search_cycles():
    r = run(["search", "--kind", "cycle", "--max-n", "7", "--max-colours", "4"])
    assert r.exit_code == 0
    rows = [json.loads(l) for l in r.stdout.strip().splitlines()]
    by_n = {row["n"]: row["max_exact"] for row in rows}
    assert by_n[5] == 4 and by_n[6] == 3


#: (instances, max_exact) per n of ``search --max-n 8``, from n = 1 for
#: trees and n = 3 for polygons with chords
SEARCH_PINNED = {
    "tree": [(1, 1), (1, 2), (1, 2), (2, 3), (3, 3), (6, 3), (11, 3), (23, 3)],
    "outerplane_biconnected": [(1, 3), (2, 3), (3, 4), (9, 4), (20, 4), (75, 4)],
}


@pytest.mark.parametrize("kind", sorted(SEARCH_PINNED))
def test_search_output_is_pinned(kind):
    r = run(["search", "--kind", kind, "--max-n", "8"])
    assert r.exit_code == 0
    lo = 9 - len(SEARCH_PINNED[kind])
    want = "".join(
        json.dumps({"instances": c, "kind": kind, "max_exact": x, "n": n}, sort_keys=True) + "\n"
        for n, (c, x) in enumerate(SEARCH_PINNED[kind], lo)
    )
    assert r.stdout == want


def test_export(tmp_path):
    g = write_graph(tmp_path, gen.generate(gen.GenSpec("outerplane", 12, 2)))
    c = tmp_path / "c.json"
    r = run(["colour", "--input", g, "--output", str(c)])
    assert r.exit_code == 0
    svg = tmp_path / "g.svg"
    dot = tmp_path / "g.dot"
    r = run(["export", "--input", g, "--colouring", str(c), "--svg", str(svg), "--dot", str(dot)])
    assert r.exit_code == 0
    assert svg.read_text().startswith("<svg")
    assert "graph G {" in dot.read_text()
    # plane layout branch
    g2 = write_graph(tmp_path, wheel(6), "w.json")
    r = run(["export", "--input", g2, "--svg", str(svg)])
    assert r.exit_code == 0


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    r = run(["bench", "--corpus", "60,120", "--kind", "outerplane", "--seed", "1", "--out", str(out)])
    assert r.exit_code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2
    assert doc["fitted_exponent"] is not None


def test_colour_report_has_phases(tmp_path):
    g = write_graph(tmp_path, gen.generate(gen.GenSpec("outerplane", 20, 4)))
    r = run(["colour", "--input", g])
    assert r.exit_code == 0
    report = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(report["phases"]) == {"parse", "colour"}


def test_bench_plot(tmp_path):
    plot = tmp_path / "scaling.svg"
    r = run(["bench", "--corpus", "50,150", "--seed", "2", "--plot", str(plot)])
    assert r.exit_code == 0
    assert plot.read_text().startswith("<svg")


def test_bench_nested_kind(tmp_path):
    out = tmp_path / "bench.json"
    r = run(["bench", "--corpus", "30,60", "--kind", "nested", "--seed", "1", "--out", str(out)])
    assert r.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "nested" and [row["n"] for row in doc["rows"]] == [30, 60]
    assert doc["fitted_exponent"] is not None
    assert all(row["colours_used"] <= 22 for row in doc["rows"])


def test_colour_exit_4_when_the_certificate_fails(tmp_path, monkeypatch):
    from thueplane import verify

    g = write_graph(tmp_path, gen.generate(gen.GenSpec("outerplane", 20, 4)))
    monkeypatch.setattr(
        verify, "verify_facial_nonrepetitive", lambda G, colours: verify.FacialPath(0, (0,), False)
    )
    r = run(["colour", "--input", g])
    assert r.exit_code == 4
    assert json.loads(r.stderr.strip().splitlines()[-1])["error"] == "internal-verification-failure"


def _kernel_index_error(seq, max_half=0):
    raise IndexError("list index out of range")


def _kernel_bare_assertion(seq, max_half=0):
    raise AssertionError()


@pytest.mark.parametrize(
    "command, kernel, names",
    [
        ("colour", lambda seq, max_half=0: (0, 1), None),
        ("verify", lambda seq, max_half=0: (0, 1), None),
        ("colour", _kernel_index_error, "IndexError"),  # exited 1 with a traceback and no diagnostic
        ("verify", _kernel_index_error, "IndexError"),
        ("colour", _kernel_bare_assertion, "AssertionError"),  # its detail was ""
        ("verify", _kernel_bare_assertion, "AssertionError"),
    ],
    ids=["colour", "verify", "colour-index-error", "verify-index-error",
         "colour-bare-assertion", "verify-bare-assertion"],
)
def test_a_kernel_naming_a_false_square_exits_4(tmp_path, monkeypatch, command, kernel, names):
    # the path's outer walk of 66 darts goes to find_square window by
    # window, and the verifier's check of the named path raises; a kernel
    # that raises anything else is a bug as well, and the diagnostic names
    # the exception's type
    from thueplane import colour, kernels

    G = path_graph(34)
    g = write_graph(tmp_path, G)
    c = tmp_path / "c.json"
    c.write_text(colour.colour_outerplane(G).dumps())
    monkeypatch.setattr(kernels, "find_square", kernel)
    args = {"colour": ["colour", "--input", g], "verify": ["verify", "--input", g, "--colouring", str(c)]}
    r = run(args[command])
    assert r.exit_code == 4
    diag = json.loads(r.stderr.strip().splitlines()[-1])
    assert diag["error"] == "internal-verification-failure"
    if names:
        assert diag["detail"].startswith(names)


@pytest.mark.parametrize(
    "args",
    [["--corpus", "0"], ["--kind", "cycle", "--corpus", "2"], ["--corpus", ""], ["--corpus", ","], ["--corpus", " ; "]],
)
def test_bench_rejects_sizes_the_generator_rejects(args):
    # the first two exited 1 with a ValueError traceback; a corpus of no
    # sizes timed nothing and exited 0 with "rows": []
    r = run(["bench", *args])
    _assert_parse_exit(r)


class Planted(Exception):
    """The error a test plants in one call a command makes."""


def _raise_planted(*args, **kwargs):
    raise Planted("planted")


#: per command: a command line, and the owner and name of one call it makes
INTERNAL_CALLS = {
    "colour": (["colour", "--input", "{g}", "--mode", "plane"], cli._MODES, "plane"),  # the mode's pipeline
    "verify": (["verify", "--input", "{g}", "--colouring", "{c}"], verify, "verify_facial_nonrepetitive"),
    "gen": (["gen", "--kind", "cycle", "--n", "5"], gen, "generate"),
    "search": (["search", "--kind", "cycle", "--max-n", "4"], verify, "exact_pi_f"),
    "export": (["export", "--input", "{g}", "--svg", "{svg}"], colour, "peeling_layering"),
    "bench": (["bench", "--corpus", "30,60"], bench, "run_bench"),
}


@pytest.mark.parametrize("command", list(INTERNAL_CALLS))
def test_an_error_inside_any_command_exits_4_with_one_line(tmp_path, monkeypatch, command):
    # gen, search, export and bench exited 1 with a traceback
    args, owner, name = INTERNAL_CALLS[command]
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, _raise_planted)
    else:
        monkeypatch.setattr(owner, name, _raise_planted)
    g = write_graph(tmp_path, wheel(5))  # not outerplane: export lays it out by its peeling layers
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": [1, 2, 1, 2, 3, 4], "palette_max": 4}))
    r = run([arg.format(g=g, c=c, svg=tmp_path / "g.svg") for arg in args])
    assert r.exit_code == 4 and "Traceback" not in r.stderr
    [line] = r.stderr.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "internal-verification-failure"
    assert diag["detail"] == "Planted: planted"
    assert diag.get("mode") == ("plane" if command == "colour" else None)


def test_importing_the_cli_does_not_load_bench():
    # bench, and statistics with it, load only when the bench command runs
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}  # the package under test
    code = "import sys, thueplane.cli; print(sorted({'thueplane.bench', 'statistics'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_search_rejects_sizes_past_the_enumeration_guard():
    # exited 1 with a ValueError traceback after printing the smaller sizes
    r = run(["search", "--kind", "tree", "--max-n", str(gen.ENUM_GUARD + 1)])
    _assert_parse_exit(r)
    assert r.stdout == ""


@pytest.mark.parametrize("kind, max_n", [("cycle", "2"), ("tree", "0"), ("tree", "-5")])
def test_search_rejects_a_max_n_below_the_smallest_size(kind, max_n):
    # exited 0 without printing a size
    r = run(["search", "--kind", kind, "--max-n", max_n])
    _assert_parse_exit(r)
    assert r.stdout == ""


def _forbid_timing(monkeypatch):
    from thueplane import bench

    def timing(*args, **kwargs):
        raise AssertionError("bench timed a run")

    monkeypatch.setattr(bench, "run_bench", timing)


@pytest.mark.parametrize("repeat", ["0", "-5"])
def test_bench_rejects_a_repeat_below_one(monkeypatch, repeat):
    # ran once and reported the repeat as given
    _forbid_timing(monkeypatch)
    r = run(["bench", "--corpus", "60", "--repeat", repeat])
    _assert_parse_exit(r)
    assert r.stdout == ""


@pytest.mark.parametrize("corpus", ["30", "30,30"])
def test_bench_rejects_a_plot_of_one_size_before_timing(tmp_path, monkeypatch, corpus):
    # timed the corpus, then exited 0 without writing the plot
    _forbid_timing(monkeypatch)
    plot = tmp_path / "one.svg"
    r = run(["bench", "--corpus", corpus, "--plot", str(plot)])
    _assert_parse_exit(r)
    assert r.stdout == "" and not plot.exists()


@pytest.mark.parametrize("option", ["--out", "--plot"])
def test_bench_finds_an_unwritable_output_before_timing(tmp_path, monkeypatch, option):
    # timed the whole corpus before finding the path unwritable
    _forbid_timing(monkeypatch)
    out = str(tmp_path / "missing" / "x.json")
    r = run(["bench", "--corpus", "30,60", option, out])
    assert r.exit_code == 2 and r.stdout == ""
    diag = json.loads(r.stderr.strip().splitlines()[-1])
    assert (diag["error"], diag["path"]) == ("output", out)


@pytest.mark.parametrize("repeat", [0, -5])
def test_run_bench_rejects_a_repeat_below_one(repeat):
    # failed deep inside with a TypeError from round(None)
    from thueplane import bench

    with pytest.raises(ValueError, match="repeat"):
        bench.run_bench([30], repeat=repeat)


@pytest.mark.parametrize("max_colours", ["0", "-1"])
def test_search_rejects_max_colours_below_one(max_colours):
    # printed "exceeds -1" for every size and exited 0
    r = run(["search", "--kind", "cycle", "--max-colours", max_colours])
    _assert_parse_exit(r)
    assert r.stdout == ""


@pytest.mark.parametrize(
    "command",
    [
        ["colour", "--input", "{g}", "--output", "{out}"],
        ["gen", "--kind", "cycle", "--n", "5", "--out", "{out}"],
        ["export", "--input", "{g}", "--svg", "{out}"],
        ["export", "--input", "{g}", "--dot", "{out}"],
        ["bench", "--corpus", "30,40", "--out", "{out}"],
        ["bench", "--corpus", "30,40", "--plot", "{out}"],
    ],
)
@pytest.mark.parametrize("target", ["missing/x.json", ""])
def test_an_unwritable_output_exits_2(tmp_path, command, target):
    # each write exited 1 with a FileNotFoundError or IsADirectoryError
    # traceback; "" names the directory itself
    g = write_graph(tmp_path, polygon(5))
    out = str(tmp_path / target)
    r = run([arg.format(g=g, out=out) for arg in command])
    assert r.exit_code == 2
    diag = json.loads(r.stderr.strip().splitlines()[-1])
    assert (diag["error"], diag["path"]) == ("output", out) and diag["detail"]


#: every option that reads a file, each in a command line whose other files are good
FILE_OPTIONS = {
    "colour-input": ["colour", "--input", "{bad}"],
    "verify-input": ["verify", "--input", "{bad}", "--colouring", "{c}"],
    "verify-colouring": ["verify", "--input", "{g}", "--colouring", "{bad}"],
    "export-input": ["export", "--input", "{bad}", "--colouring", "{c}", "--svg", "{svg}"],
    "export-colouring": ["export", "--input", "{g}", "--colouring", "{bad}", "--svg", "{svg}"],
}
BAD_FILES = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "non-utf-8": lambda path: path.write_bytes(b'{"n": "\xff"}'),
    "empty": lambda path: path.write_bytes(b""),
}


@pytest.mark.parametrize("bad_file", list(BAD_FILES))
@pytest.mark.parametrize("option", list(FILE_OPTIONS))
def test_an_unreadable_input_file_is_one_parse_line(tmp_path, option, bad_file):
    # a missing path exited 2 with a four-line plain-text usage error; the
    # other three were already one parse line
    g = write_graph(tmp_path, polygon(4))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colours": [1, 2, 1, 3], "palette_max": 3}))
    bad = tmp_path / "bad.json"
    BAD_FILES[bad_file](bad)
    r = run([arg.format(g=g, c=c, bad=bad, svg=tmp_path / "g.svg") for arg in FILE_OPTIONS[option]])
    assert r.exit_code == 2 and r.stdout == "" and "Traceback" not in r.stderr
    [line] = r.stderr.splitlines()
    diag = json.loads(line)
    assert (diag["error"], diag["path"]) == ("parse", str(bad)) and diag["detail"]
    assert not (tmp_path / "g.svg").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["colour", "--input", "g.json", "--mode", "nope"],
        ["verify", "--colouring", "c.json"],
        ["gen", "--kind", "cycle", "--n", "x"],
        ["search", "--kind", "tree", "--max-c", "3"],  # a prefix of --max-colours
        ["export", "--svg", "g.svg"],
        ["bench", "--corpus", "30", "--nope"],
        ["colour", "--input", "g.json", "-h"],
        [],
    ],
    ids=["colour-bad-choice", "verify-no-input", "gen-bad-int", "search-abbreviation",
         "export-no-input", "bench-unknown-option", "colour-short-help", "no-command"],
)
def test_a_usage_error_exits_2_with_the_usage(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    r = run(args)
    assert r.exit_code == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.startswith("usage: thueplane") and "error: " in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, shown",
    [
        ("colour", "--mode {outerplane,plane,cactus,single-block} (default: outerplane)"),
        ("verify", "--colouring"),
        ("gen", "--attach-p ATTACH_P (default: 0.35)"),
        ("search", "--max-n MAX_N (default: 8)"),
        ("export", "--dot"),
        ("bench", "(default: 1000,3200,10000,32000,100000)"),
    ],
    ids=["colour", "verify", "gen", "search", "export", "bench"],
)
def test_help_shows_each_option_with_its_choices_and_default(command, shown):
    r = run([command, "--help"])
    assert r.exit_code == 0 and r.stderr == ""
    assert r.stdout.startswith(f"usage: thueplane {command}")
    assert shown in " ".join(r.stdout.split())
