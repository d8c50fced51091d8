"""Tests of the benchmark itself, on small versions of each workload.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import speed
import workloads
from thueplane import colour, embed, gen, kernels, verify, words
from thueplane.colour import Colouring
from thueplane.verify import FacialPath
from tracer import Tracer
from workloads import VerifyItem

SMALL = {
    "outerplane-large": {"count": 2, "n": 300},
    "plane-nested": {"shapes": [(3, 6), (4, 5)]},
    "small-mixed": {"per_pipeline": 3, "lo": 10, "hi": 30},
    "verify-reject": {"cycles": [40, 60], "cycle_plants": 3, "outerplane": [200]},
}

# layers whose calls each workload must reach; gen runs in set-up only
EXPECTED_CALLS = {
    "outerplane-large": ["kernels", "verify", "blocking", "words"],
    "plane-nested": ["kernels", "verify", "blocking", "words"],
    "small-mixed": ["kernels", "verify", "blocking", "words"],
    "verify-reject": ["kernels", "verify"],
}
BUILDS_GRAPHS = {"outerplane-large", "plane-nested", "small-mixed"}
USES_GEN = {"outerplane-large", "small-mixed", "verify-reject"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_input_digest_depends_only_on_seed(workload):
    digest = [workloads.input_digest(workloads.build_inputs(workload, s, SMALL[workload]))
              for s in (5, 5, 6)]
    assert digest[0] == digest[1]
    assert digest[0] != digest[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reaches_every_expected_layer(workload):
    result = harness.run_workload(workload, 3, 0, trace=True, sizes=SMALL[workload])
    assert result["correct"], result["context"]["problems"]
    assert result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in EXPECTED_CALLS[workload]:
        assert m[f"{layer}.calls"] > 0, layer
    assert m["kernels.symbols"] > 0
    assert m["verify.calls_per_item"] >= 1
    if workload in BUILDS_GRAPHS:
        assert m["embed.graphs_built"] > 0
        assert m["embed.simplify_calls"] > 0
        assert m["embed.block_decompositions"] > 0
        assert m["embed.parse_s"] > 0
        assert m["colour.self_s"] > 0
    if workload in USES_GEN:
        assert m["gen.self_s"] > 0
    assert m["trace.overhead_ratio"] > 0
    ctx = result["context"]
    assert ctx["trace"]["traced_digest"] == ctx["output_digest"]
    assert ctx["kernel_backend"] == kernels.BACKEND


def test_untraced_run_reports_every_end_to_end_metric():
    result = harness.run_workload("small-mixed", 3, 0, sizes=SMALL["small-mixed"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["context"]["items_by_pipeline"] == {p: 3 for p in workloads.PIPELINES}


def test_metric_names_and_units_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END_UNITS
    layer = harness.layer_metrics({"layers": {}, "names": {}, "kernel_symbols": 0}, {"layers": {}}, 1, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(k, v["unit"]) for k, v in layer.items()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_rebinds_every_binding_site_and_restores_them():
    original = kernels.find_square
    assert verify.find_square is original and words.find_square is original
    tracer = Tracer()
    with tracer:
        assert kernels.find_square is not original
        assert verify.find_square is kernels.find_square is words.find_square
        assert colour.tree_colouring is words.tree_colouring
        words.has_repetition([0, 1, 0, 1])
        embed.build(1, [], [[]])
    assert verify.find_square is original and words.find_square is original
    assert "__wrapped__" not in vars(embed.EmbeddedGraph.__init__)
    s = tracer.summary()
    assert s["names"]["embed.EmbeddedGraph"]["count"] == 1
    assert s["kernel_symbols"] == 4


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer, tracer.span("root"):
        for _ in range(50):
            words.has_repetition(list(range(200)))
    s = tracer.summary()
    layers, names = s["layers"], s["names"]
    total = names["words.has_repetition"]["total_s"]
    kernel = names["kernels.find_square"]["total_s"]
    assert layers["kernels"]["self_s"] == pytest.approx(kernel)
    assert layers["words"]["self_s"] == pytest.approx(total - kernel)
    assert layers["words"]["calls"] == 50 and layers["kernels"]["calls"] == 50
    root = names["bench.root"]["total_s"]
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(root)


def _outerplane_with_colouring():
    G = gen.generate(gen.GenSpec("outerplane", 60, 1))
    return G, colour.colour_outerplane(G)


def test_colouring_check_rejects_planted_square_and_palette_overflow():
    G, col = _outerplane_with_colouring()
    assert checks.colouring_problems(G, col, 11) == []
    face = G.inner_faces()[0]
    bad = workloads.plant_square(G, col.colours, face, 0, 1)
    assert checks.colouring_problems(G, Colouring(bad, 11), 11)
    over = (12,) + col.colours[1:]
    assert checks.colouring_problems(G, Colouring(over, 11), 11)
    assert checks.colouring_problems(G, col, 7)  # uses more than 7 colours


def test_verdict_check_rejects_wrong_verdicts_and_false_witnesses():
    G, col = _outerplane_with_colouring()
    face = G.inner_faces()[0]
    planted = workloads.plant_square(G, col.colours, face, 0, 1)
    reject = VerifyItem(G, planted, G.n, True)
    accept = VerifyItem(G, col.colours, G.n, False)
    witness = verify.verify_facial_nonrepetitive(G, planted)
    assert checks.verdict_problems(reject, witness) == []
    assert checks.verdict_problems(reject, None)
    assert checks.verdict_problems(accept, witness)
    scrambled = FacialPath(witness.face, witness.vertices[::2] + witness.vertices[1::2], witness.is_outer)
    if len(witness.vertices) > 2:
        assert checks.verdict_problems(reject, scrambled)
    wrong_face = FacialPath(len(G.faces), witness.vertices, witness.is_outer)
    assert checks.verdict_problems(reject, wrong_face)
    clean = FacialPath(witness.face, witness.vertices, witness.is_outer)
    assert checks.verdict_problems(VerifyItem(G, col.colours, G.n, True), clean)


def test_bad_outputs_count_as_failed_items(monkeypatch):
    def repetitive(G):
        return Colouring(tuple([1] * G.n), 11)

    monkeypatch.setattr(colour, "colour_outerplane", repetitive)
    result = harness.run_workload("outerplane-large", 3, 0, sizes=SMALL["outerplane-large"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * harness.MIN_PASSES
    assert result["context"]["failed_share"] == 1.0


def test_wrong_verdicts_count_as_failed_items(monkeypatch):
    monkeypatch.setattr(verify, "verify_facial_nonrepetitive", lambda G, colours: None)
    result = harness.run_workload("verify-reject", 3, 0, sizes=SMALL["verify-reject"])
    planted = result["context"]["items"] - 3  # three accepted colourings
    assert not result["correct"]
    assert result["failed"] == planted * harness.MIN_PASSES


def test_nested_polygon_check_is_not_vacuous():
    items = workloads.build_inputs("plane-nested", 1, SMALL["plane-nested"])
    with pytest.raises(ValueError):
        workloads.check_nested(items, [(3, 7), (4, 5)])


def test_tail_percentile_depends_on_item_count():
    assert harness.tail_percentile(4) == 100
    assert harness.tail_percentile(102) == 90
    assert harness.tail_percentile(300) == 95
    assert harness.tail_percentile(1000) == 99
    times = list(range(1, 101))
    samples = [(i,) for i in range(100)]
    assert harness.tail_latency(samples, times, 90) == (90, 10)
    # at 100, the slowest item by the median of its runs
    assert harness.tail_latency([(0,), (1,), (1,), (1,)], [5, 2, 9, 3], 100) == (5, 0)


def test_speed_probe_scales_by_the_probes_around_an_item():
    probe = speed.SpeedProbe()
    probe.times = [(0.0, 0.010), (1.0, 0.030), (2.0, 0.020), (9.0, 0.040), (10.0, 0.050)]
    # probes within WINDOW_S of the item: the median of 0.010, 0.030, 0.020
    assert probe.scale(1.2, 1.5) == pytest.approx(speed.REFERENCE_S / 0.020)
    # the probes on each side count even when farther away
    assert probe.scale(5.0, 5.5) == pytest.approx(speed.REFERENCE_S / 0.030)
    with pytest.raises(ValueError):
        probe.scale(10.1, 10.2)
    assert probe.measure() > 0 and len(probe.times) == 6


def test_run_fails_without_the_package(tmp_path):
    bench_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench_dir, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
