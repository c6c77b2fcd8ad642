"""Tests of the benchmark itself: seeded inputs, the printed metrics, a tiny
run of each workload, traced and untraced, and the refusal to run without
sources. Run with `python -m pytest perfbench/tests` from the repo root."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = workloads.Sizes(
    setup_repeats=2,
    train_pairs=6,
    trace_epochs=2,
    prep_pairs=32,
    prep_epochs=1,
    heldout=12,
    min_lines=6,
    trace_lines=4,
    score_rows=40,
    kb_rules=200,
    block_rows=10,
    min_blocks=3,
    trace_blocks=2,
)


def _inputs(seed):
    lines = inputs.make_lines(seed, "train", 40)
    return lines, inputs.large_kb_rows(seed, lines, 100)


def test_same_seed_gives_identical_inputs():
    assert _inputs(5) == _inputs(5)


def test_different_seeds_give_different_inputs():
    lines_a, kb_a = _inputs(5)
    lines_b, kb_b = _inputs(6)
    assert lines_a != lines_b
    assert kb_a != kb_b


def test_seeds_and_streams_change_words_not_shapes():
    a = inputs.make_lines(5, "train", 32)
    b = inputs.make_lines(5, "heldout", 32)
    c = inputs.make_lines(6, "train", 32)
    assert [x.normal for x in a] != [x.normal for x in b]
    for other in (b, c):
        assert [x.complex_clauses for x in a] == [x.complex_clauses for x in other]
        assert inputs.describe(a) == inputs.describe(other)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    return {
        (name, trace): workloads.run(name, ROOT, 3, 0.2, trace, sizes=TINY, work_root=work)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_is_correct(outcomes, name):
    for trace in (False, True):
        outcome = outcomes[(name, trace)]
        assert outcome.record["problems"] == []
        assert outcome.correct
        assert outcome.attempted >= 1
        assert outcome.failed == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_listed_metric_is_printed_with_its_unit(outcomes, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        printed = outcomes[(name, trace)].result()["metrics"]
        assert list(printed) == [m["name"] for m in SPEC[section]]
        for spec in SPEC[section]:
            metric = printed[spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"])
        if not trace:
            assert all(m["value"] > 0 for m in printed.values())


def test_result_line_is_json_with_exactly_the_contract_keys(outcomes):
    result = json.loads(json.dumps(outcomes[("score", False)].result()))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_record_describes_environment_and_sizes(outcomes):
    record = outcomes[("train-desk", False)].record
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "src_lines", "seed", "model", "corpus"):
        assert key in record
    assert outcomes[("simplify-beam5", False)].record["output_digest"]
    assert outcomes[("score", False)].record["kb_rules"] > 200


def test_controls_bypass_what_they_should(outcomes):
    score = outcomes[("score", True)].result()["metrics"]
    for name in ("autodiff.ops", "model.decode_step_calls", "decoding.passes_per_sentence",
                 "training.loss_forward_s", "autodiff.self_share", "model.self_share"):
        assert score[name]["value"] == 0.0
    train = outcomes[("train-desk", True)].result()["metrics"]
    for name in ("decoding.passes_per_sentence", "metrics.evaluate_corpus_s", "lexsub.identify_calls"):
        assert train[name]["value"] == 0.0
    assert train["autodiff.ops"]["value"] > 0
    simplify = outcomes[("simplify-beam5", True)].result()["metrics"]
    assert simplify["model.decode_step_calls"]["value"] > 0
    assert simplify["decoding.passes_per_sentence"]["value"] >= 1.0


def test_tracer_restores_every_patched_name(outcomes):
    import sentsimp.decoding
    import sentsimp.model
    import sentsimp.training

    for module in (sentsimp.model, sentsimp.decoding, sentsimp.training):
        assert not hasattr(module.decode_step, "__wrapped__")
    assert not hasattr(sentsimp.autodiff.Tape.backward, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
