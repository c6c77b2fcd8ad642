import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sentsimp import cli, decoding
from sentsimp.cli import main
from sentsimp.corpus import build_vocab, read_parallel_tokens, tokenize
from sentsimp.lexsub import FrequencyTable
from sentsimp.model import ModelConfig, Seq2SeqModel, load_checkpoint, save_checkpoint
from sentsimp.pipeline import PipelineConfig, SimplifyPipeline
from sentsimp.toydata import build_toy_corpus

from resources import step1_resources


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One small end-to-end training run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = build_toy_corpus(12, seed=3)
    src, tgt, kb = root / "normal.txt", root / "simple.txt", root / "rules.tsv"
    data.write(str(src), str(tgt), str(kb))
    cfg = root / "run.cfg"
    cfg.write_text(
        "vocab_size = 120\n"
        "embed_dim = 8\n"
        "hidden_dim = 12\n"
        "beam = 3\n"
        "max_decode_len = 16\n"
        "epochs = 2\n"
        "batch_size = 4\n"
        "seed = 5\n",
        encoding="utf-8",
    )
    out_dir = root / "run"
    code = main(
        [
            "train",
            "--config", str(cfg),
            "--source", str(src),
            "--target", str(tgt),
            "--kb", str(kb),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return root, out_dir, src, tgt, kb


def record_searches(monkeypatch):
    """The keyword arguments of every beam search run from here on."""
    calls = []
    real_beam_search = decoding.beam_search

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return real_beam_search(*args, **kwargs)

    monkeypatch.setattr(decoding, "beam_search", recorded)
    return calls


def test_train_writes_artifacts(trained_run):
    root, out_dir, *_ = trained_run
    # the checkpoints hold the vocabulary: no vocab.txt is written next to them
    assert {p.name for p in out_dir.iterdir()} == {
        "training_log.csv", "config.echo", "epoch0001.ckpt", "epoch0002.ckpt"
    }
    log = (out_dir / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,valid_loss,seconds"
    assert len(log) == 3


def test_train_checkpoint_is_loadable_and_self_contained(trained_run):
    _, out_dir, src, tgt, _ = trained_run
    ckpt_path = sorted(out_dir.glob("*.ckpt"))[-1]
    ckpt = load_checkpoint(str(ckpt_path))
    # the vocabulary of the corpus at the config's cap, and the table of the
    # sources at the default complexity_percentile
    token_pairs, _ = read_parallel_tokens(str(src), str(tgt))
    assert ckpt.vocab.kept_tokens() == build_vocab((s + t for s, t in token_pairs), 120).kept_tokens()
    expected = FrequencyTable.from_sequences(s for s, _ in token_pairs)
    assert ckpt.freq_table.counts == expected.counts
    assert ckpt.freq_table.threshold == expected.threshold
    assert ckpt.model.config.hidden_dim == 12


@pytest.mark.parametrize("percentile", [0.0, 100.0])
def test_simplify_takes_the_frequency_threshold_from_the_checkpoint(trained_run, percentile):
    """`complexity_percentile` is a training setting: a pipeline keeps the
    threshold training stored, whatever its own config says."""
    _, out_dir, *_, kb = trained_run
    ckpt_path = str(sorted(out_dir.glob("*.ckpt"))[-1])
    stored = load_checkpoint(ckpt_path).freq_table
    config = PipelineConfig(checkpoint=ckpt_path, kb=str(kb), complexity_percentile=percentile)
    table = SimplifyPipeline.from_config(config).freq_table
    assert (table.counts, table.threshold) == (stored.counts, stored.threshold)


def test_trained_beam_is_not_stored_and_simplify_decodes_at_the_pipeline_beam(trained_run, monkeypatch):
    """`beam = 3` in the training config is a decoding setting: the
    checkpoint keeps no width, and a pipeline searches at its own."""
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    with np.load(ckpt, allow_pickle=False) as archive:
        assert "config.beam_size" not in archive.files
    searches = record_searches(monkeypatch)
    line = build_toy_corpus(12, seed=3).pairs[1][0]
    base = PipelineConfig(checkpoint=str(ckpt), kb=str(kb))
    for config in (base, dataclasses.replace(base, beam=2)):
        searches.clear()
        SimplifyPipeline.from_config(config).simplify(line)
        assert searches and {call["beam_size"] for call in searches} == {config.beam}


@pytest.mark.parametrize("cap", [5, 40])
def test_simplify_decodes_at_the_pipeline_cap_not_a_stored_one(trained_run, monkeypatch, cap):
    """`max_decode_len = 16` in the training config is a decoding setting:
    the checkpoint keeps no cap, and a pipeline stops every stage at what is
    left of its own."""
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    with np.load(ckpt, allow_pickle=False) as archive:
        assert "config.max_decode_len" not in archive.files
    searches = record_searches(monkeypatch)
    pipeline = SimplifyPipeline.from_config(PipelineConfig(checkpoint=str(ckpt), kb=str(kb), max_decode_len=cap))
    for normal, _ in build_toy_corpus(12, seed=3).pairs[:6]:
        output, trace = pipeline.simplify(normal)
        assert len(tokenize(output)) <= cap
        assert all(len(tokenize(p["output"])) <= cap for p in trace["passes"])
    budgets = [call["max_new"] for call in searches]
    assert budgets and max(budgets) <= cap
    if cap > 16:
        assert max(budgets) > 16


def test_simplify_reads_a_config_file_and_its_flags_override_it(trained_run, tmp_path, monkeypatch, capsys):
    """`simplify --config` sets the decode cap, which no flag sets, and a
    flag overrides the width the file gives."""
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    cfg = tmp_path / "simplify.cfg"
    cfg.write_text("max_decode_len = 5\nbeam = 2\n", encoding="utf-8")
    lines = [normal for normal, _ in build_toy_corpus(12, seed=3).pairs[:6]]
    input_file = tmp_path / "in.txt"
    input_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    searches = record_searches(monkeypatch)
    code = main(
        ["simplify", "--config", str(cfg), "--model", str(ckpt), "--kb", str(kb),
         "--input", str(input_file), "--beam", "3"]
    )
    assert code == 0
    outputs = capsys.readouterr().out.splitlines()
    assert len(outputs) == len(lines)
    assert all(len(tokenize(text)) <= 5 for text in outputs)
    assert searches and {call["beam_size"] for call in searches} == {3}


def test_simplify_takes_the_checkpoint_from_a_config_file(trained_run, tmp_path, capsys):
    """`--model` may be left out when the config names the checkpoint; with
    neither, simplify is a usage error."""
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    input_file = tmp_path / "in.txt"
    input_file.write_text(build_toy_corpus(12, seed=3).pairs[1][0] + "\n", encoding="utf-8")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"checkpoint = {ckpt}\nkb = {kb}\n", encoding="utf-8")
    assert main(["simplify", "--config", str(cfg), "--input", str(input_file)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1

    cfg.write_text(f"kb = {kb}\n", encoding="utf-8")
    assert main(["simplify", "--config", str(cfg), "--input", str(input_file)]) == 1
    assert capsys.readouterr().err == "usage error: simplify needs --model (or a config with checkpoint =)\n"


@pytest.mark.parametrize("sink", ["--output", "--trace"])
def test_simplify_to_an_unwritable_path_is_data_error_before_any_line_is_decoded(
    trained_run, tmp_path, monkeypatch, capsys, sink
):
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    input_file = tmp_path / "in.txt"
    input_file.write_text(build_toy_corpus(12, seed=3).pairs[1][0] + "\n", encoding="utf-8")
    decoded = []
    monkeypatch.setattr(SimplifyPipeline, "simplify", lambda self, line: decoded.append(line))
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = main(["simplify", "--model", str(ckpt), "--kb", str(kb), "--input", str(input_file), sink, str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(target) in err and len(err.splitlines()) == 1
    assert decoded == []


def test_train_into_an_out_dir_under_a_regular_file_is_data_error(tmp_path, monkeypatch, capsys):
    data = build_toy_corpus(8, seed=2)
    src, tgt = tmp_path / "n.txt", tmp_path / "s.txt"
    data.write(str(src), str(tgt), str(tmp_path / "kb.tsv"))
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "run"
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
    code = main(["train", "--source", str(src), "--target", str(tgt), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(out) in err and len(err.splitlines()) == 1
    assert trained == []


class ClosedStdout:
    """A stdout whose reader has gone, as after `| head -3`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_simplify_to_a_closed_stdout_exits_0_and_still_writes_the_trace(
    trained_run, tmp_path, monkeypatch, capsys
):
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    lines = [normal for normal, _ in build_toy_corpus(12, seed=3).pairs[:4]]
    input_file, trace_file = tmp_path / "in.txt", tmp_path / "trace.jsonl"
    input_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    code = main(
        ["simplify", "--model", str(ckpt), "--kb", str(kb), "--input", str(input_file), "--trace", str(trace_file)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    traces = [json.loads(line) for line in trace_file.read_text(encoding="utf-8").splitlines()]
    assert [t["input"] for t in traces] == lines


def test_simplify_into_a_closed_pipe_exits_0_without_a_traceback(trained_run, tmp_path):
    """The same in a real process whose stdout is a pipe with no reader left,
    so the interpreter's own flush at exit must not fail either."""
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    lines = [normal for normal, _ in build_toy_corpus(12, seed=3).pairs[:3]]
    input_file, trace_file = tmp_path / "in.txt", tmp_path / "trace.jsonl"
    input_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # stdout block-buffered, as it is by default for a pipe
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sentsimp.cli", "simplify", "--model", str(ckpt), "--kb", str(kb),
             "--input", str(input_file), "--trace", str(trace_file)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(trace_file.read_text(encoding="utf-8").splitlines()) == len(lines)


def test_simplify_end_to_end(trained_run, tmp_path, capsys):
    root, out_dir, src, tgt, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    data = build_toy_corpus(12, seed=3)
    input_file = tmp_path / "input.txt"
    # normal sentences from the corpus itself, so rule targets are in-vocabulary
    input_file.write_text(f"{data.pairs[1][0]}\n\n{data.pairs[3][0]}\n", encoding="utf-8")
    trace_file = tmp_path / "trace.jsonl"
    code = main(
        [
            "simplify",
            "--model", str(ckpt),
            "--kb", str(kb),
            "--input", str(input_file),
            "--beam", "3",
            "--max-constraints", "2",
            "--trace", str(trace_file),
        ]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 3
    assert out_lines[1] == ""  # blank line in, blank line out

    traces = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert len(traces) == 3
    first = traces[0]
    assert first["tokens"] == data.pairs[1][0].split()
    for constraint, trace_pass in zip(
        [c for c in first["constraints"] if not c["skipped"]], first["passes"]
    ):
        words = trace_pass["output"].split()
        pos = trace_pass["position"] - 1
        assert words[pos : pos + len(trace_pass["constraint"])] == trace_pass["constraint"]


def test_simplify_input_drops_a_leading_byte_order_mark(trained_run, tmp_path, capsys):
    _, out_dir, *_, kb = trained_run
    ckpt = sorted(out_dir.glob("*.ckpt"))[-1]
    line = build_toy_corpus(12, seed=3).pairs[1][0]
    input_file = tmp_path / "input.txt"
    input_file.write_text("\ufeff" + line + "\n", encoding="utf-8")
    trace_file = tmp_path / "trace.jsonl"
    code = main(["simplify", "--model", str(ckpt), "--kb", str(kb), "--input", str(input_file),
                 "--trace", str(trace_file)])
    assert code == 0
    capsys.readouterr()
    (trace,) = [json.loads(row) for row in trace_file.read_text(encoding="utf-8").splitlines()]
    assert trace["tokens"] == line.split()


def test_simplify_missing_checkpoint_is_model_error(tmp_path):
    input_file = tmp_path / "in.txt"
    input_file.write_text("hello\n", encoding="utf-8")
    code = main(["simplify", "--model", str(tmp_path / "nope.ckpt"), "--input", str(input_file)])
    assert code == 3


def test_simplify_truncated_checkpoint_is_model_error(tmp_path, capsys):
    # cut one byte short: the archive's central directory is incomplete
    ckpt = tmp_path / "cut.ckpt"
    model = Seq2SeqModel.create(ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3))
    save_checkpoint(str(ckpt), model, *step1_resources(model))
    ckpt.write_bytes(ckpt.read_bytes()[:-1])
    input_file = tmp_path / "in.txt"
    input_file.write_text("hello\n", encoding="utf-8")
    code = main(["simplify", "--model", str(ckpt), "--input", str(input_file)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("model error:") and str(ckpt) in err


def test_simplify_flipped_checkpoint_byte_is_model_error(tmp_path, capsys):
    ckpt = tmp_path / "flipped.ckpt"
    model = Seq2SeqModel.create(ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3))
    save_checkpoint(str(ckpt), model, *step1_resources(model))
    data = bytearray(ckpt.read_bytes())
    data[len(data) // 2] ^= 0x01
    ckpt.write_bytes(bytes(data))
    input_file = tmp_path / "in.txt"
    input_file.write_text("hello\n", encoding="utf-8")
    code = main(["simplify", "--model", str(ckpt), "--input", str(input_file)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("model error:") and str(ckpt) in err


@pytest.mark.parametrize(
    "flag, value", [("--beam", "0"), ("--beam", "-2"), ("--max-constraints", "-1")]
)
def test_simplify_out_of_range_flag_is_data_error(tmp_path, capsys, flag, value):
    """A flag is judged by the range check of its config key, as in a config file."""
    ckpt = tmp_path / "model.ckpt"
    model = Seq2SeqModel.create(ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3))
    save_checkpoint(str(ckpt), model, *step1_resources(model, ["hello"], {"hello": 1}))
    input_file = tmp_path / "in.txt"
    input_file.write_text("hello\n", encoding="utf-8")
    code = main(["simplify", "--model", str(ckpt), "--input", str(input_file), flag, value])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {flag} has out-of-range value {value}\n"


def test_train_with_zero_epochs_is_config_error(tmp_path, capsys):
    data = build_toy_corpus(8, seed=2)
    src, tgt, kb = tmp_path / "n.txt", tmp_path / "s.txt", tmp_path / "kb.tsv"
    data.write(str(src), str(tgt), str(kb))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("embed_dim = 4\nhidden_dim = 6\nepochs = 0\n", encoding="utf-8")
    code = main(
        ["train", "--config", str(cfg), "--source", str(src), "--target", str(tgt),
         "--out-dir", str(tmp_path / "run")]
    )
    assert code == 2
    assert capsys.readouterr().err == "data error: line 3: key 'epochs' has out-of-range value 0\n"
    assert not (tmp_path / "run").exists()


def test_train_with_a_valid_size_that_leaves_no_training_pair_is_config_error(tmp_path, capsys):
    data = build_toy_corpus(8, seed=2)
    src, tgt = tmp_path / "n.txt", tmp_path / "s.txt"
    data.write(str(src), str(tgt), str(tmp_path / "kb.tsv"))
    usable = len(read_parallel_tokens(str(src), str(tgt))[0])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"embed_dim = 4\nhidden_dim = 6\nvalid_size = {usable}\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--source", str(src), "--target", str(tgt), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: valid_size {usable} leaves no training pair: the corpus has {usable} usable pairs\n"
    )
    assert not out.exists()


def test_train_with_a_missing_source_is_data_error_and_creates_no_out_dir(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--source", str(tmp_path / "missing.txt"), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_evaluate_text_and_csv(tmp_path, capsys):
    (tmp_path / "i.txt").write_text("the big cat sat .\ndogs run very fast .\n", encoding="utf-8")
    (tmp_path / "o.txt").write_text("the cat sat .\ndogs run fast .\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("the cat sat .\ndogs run fast .\n", encoding="utf-8")
    code = main(
        ["evaluate", "--input", str(tmp_path / "i.txt"), "--output", str(tmp_path / "o.txt"),
         "--reference", str(tmp_path / "r.txt")]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "BLEU(O, R)" in text and "100.00" in text

    code = main(
        ["evaluate", "--input", str(tmp_path / "i.txt"), "--output", str(tmp_path / "o.txt"),
         "--reference", str(tmp_path / "r.txt"), "--report", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    header, values = rows
    assert header[1:] == ["FK", "BLEU(O, R)", "BLEU(O, I)", "iBLEU", "SARI"]
    assert float(values[2]) == 100.0  # BLEU(O, R): outputs equal references


def test_evaluate_drops_a_leading_byte_order_mark(tmp_path, capsys):
    (tmp_path / "i.txt").write_text("\ufeffthe big cat sat .\n", encoding="utf-8")
    (tmp_path / "o.txt").write_text("\ufeffthe cat sat .\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("the cat sat .\n", encoding="utf-8")
    code = main(
        ["evaluate", "--input", str(tmp_path / "i.txt"), "--output", str(tmp_path / "o.txt"),
         "--reference", str(tmp_path / "r.txt"), "--report", "csv"]
    )
    assert code == 0
    _, values = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert float(values[2]) == 100.0  # BLEU(O, R): the output's first token matches


def test_evaluate_malformed_rows_exit_2(tmp_path, capsys):
    (tmp_path / "i.txt").write_text("one line\n", encoding="utf-8")
    (tmp_path / "o.txt").write_text("one line\nextra\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("one line\n", encoding="utf-8")
    code = main(
        ["evaluate", "--input", str(tmp_path / "i.txt"), "--output", str(tmp_path / "o.txt"),
         "--reference", str(tmp_path / "r.txt")]
    )
    assert code == 2

    (tmp_path / "o.txt").write_text("\n", encoding="utf-8")
    code = main(
        ["evaluate", "--input", str(tmp_path / "i.txt"), "--output", str(tmp_path / "o.txt"),
         "--reference", str(tmp_path / "r.txt")]
    )
    assert code == 2


def test_kb_check_reports_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.tsv"
    good.write_text("hub\tcenter\t0.9\nkey\timportant\t0.8\n", encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the key hub\nthe plain town\n", encoding="utf-8")
    code = main(["kb-check", "--kb", str(good), "--source", str(corpus)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 rules loaded, 0 rows rejected" in out
    assert "coverage: 1/2 sentences (50.0%)" in out

    bad = tmp_path / "bad.tsv"
    bad.write_text("hub\tcenter\t0.9\nbroken row\n", encoding="utf-8")
    code = main(["kb-check", "--kb", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "line 2" in out


def test_vocab_cap_larger_than_corpus_still_decodes(tmp_path, capsys):
    # the model must be sized to the built vocabulary, not the configured
    # cap, or decoding can emit ids that no token renders
    (tmp_path / "n.txt").write_text("the vast river flows .\nthe sky is vast .\n", encoding="utf-8")
    (tmp_path / "s.txt").write_text("the big river flows .\nthe sky is big .\n", encoding="utf-8")
    (tmp_path / "kb.tsv").write_text("vast\tbig\t0.9\n", encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "vocab_size = 1900\nembed_dim = 6\nhidden_dim = 8\nepochs = 1\nmax_decode_len = 12\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert main(
        ["train", "--config", str(cfg), "--source", str(tmp_path / "n.txt"),
         "--target", str(tmp_path / "s.txt"), "--kb", str(tmp_path / "kb.tsv"),
         "--out-dir", str(out)]
    ) == 0
    ckpt = sorted(out.glob("*.ckpt"))[-1]
    assert load_checkpoint(str(ckpt)).model.config.vocab_size < 1900
    (tmp_path / "in.txt").write_text("the vast river flows .\n", encoding="utf-8")
    assert main(
        ["simplify", "--model", str(ckpt), "--kb", str(tmp_path / "kb.tsv"),
         "--input", str(tmp_path / "in.txt")]
    ) == 0
    assert capsys.readouterr().out.strip()


def test_usage_errors_exit_1():
    assert main(["simplify"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


def test_train_seed_determinism(tmp_path):
    data = build_toy_corpus(8, seed=2)
    src, tgt, kb = tmp_path / "n.txt", tmp_path / "s.txt", tmp_path / "kb.tsv"
    data.write(str(src), str(tgt), str(kb))

    def run(out):
        code = main(
            ["train", "--source", str(src), "--target", str(tgt), "--out-dir", str(out),
             "--config", str(cfg), "--seed", "11"]
        )
        assert code == 0
        rows = (out / "training_log.csv").read_text().splitlines()
        return [row.rsplit(",", 1)[0] for row in rows]  # drop wall-clock seconds

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "vocab_size = 80\nembed_dim = 6\nhidden_dim = 8\nepochs = 2\nbatch_size = 4\nmax_decode_len = 16\n",
        encoding="utf-8",
    )
    assert run(tmp_path / "a") == run(tmp_path / "b")
