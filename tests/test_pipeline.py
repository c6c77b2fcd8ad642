import dataclasses
import json
from pathlib import Path

import pytest

from sentsimp.corpus import BOS_ID, EOS_ID
from sentsimp.errors import ConfigError, ConstraintError
from sentsimp.lexsub import FrequencyTable, KnowledgeBase, ParaphraseRule
from sentsimp.pipeline import (
    _PATH_FIELDS,
    PipelineConfig,
    SimplifyPipeline,
    echo_config,
    parse_config,
)
from sentsimp.corpus import build_vocab

from test_decoding import chain_model


# ---------------------------------------------------------------- config files


def test_parse_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("", encoding="utf-8")
    assert parse_config(str(path)) == PipelineConfig()


def test_shipped_configs_parse_and_desk_cfg_sets_every_non_path_key():
    """Both shipped configs list every non-path key, and configs/desk.cfg
    sets each at its default; the benchmark builds its configs from it, so
    a stale key in either must fail here."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    fields = [f.name for f in dataclasses.fields(PipelineConfig) if f.name not in _PATH_FIELDS]
    for name in ("desk.cfg", "full_scale.cfg"):
        text = (configs / name).read_text(encoding="utf-8")
        lines = (line.split("#", 1)[0] for line in text.splitlines())
        keys = [line.partition("=")[0].strip() for line in lines if line.strip()]
        assert sorted(keys) == sorted(fields), name
    assert parse_config(str(configs / "desk.cfg")) == PipelineConfig()
    assert parse_config(str(configs / "full_scale.cfg")).hidden_dim == 1000


def test_parse_config_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "beam = 7\n"
        "rho = 0.9   # inline comment\n"
        "source = data/normal.txt\n"
        "\n",
        encoding="utf-8",
    )
    config = parse_config(str(path))
    assert config.beam == 7
    assert config.rho == 0.9
    assert config.source == "data/normal.txt"
    assert config.epochs == PipelineConfig().epochs


def test_parse_config_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeffbeam = 3\n", encoding="utf-8")
    assert parse_config(str(path)).beam == 3


def test_parse_config_keeps_a_line_separator_inside_its_line(tmp_path):
    path = tmp_path / "sep.cfg"
    path.write_text("out_dir = runs\u2028a\nbeam = 3\n", encoding="utf-8")
    config = parse_config(str(path))
    assert (config.out_dir, config.beam) == ("runs\u2028a", 3)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("beem = 7\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "beem" in str(err.value) and "line 1" in str(err.value)


def test_parse_config_refuses_the_removed_length_norm_key(tmp_path):
    """Beam search ranks by summed log-probability only: a config that
    still sets length_norm is refused, as one setting share_decoders is."""
    path = tmp_path / "old.cfg"
    path.write_text("beam = 4\nlength_norm = 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert str(err.value) == "line 2: unknown key 'length_norm'"


def test_parse_config_refuses_the_removed_max_passes_key(tmp_path):
    """Step 2 runs one pass per constraint: a config that still caps the
    passes is refused, as one setting length_norm is."""
    path = tmp_path / "old.cfg"
    path.write_text("beam = 4\nmax_passes = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert str(err.value) == "line 2: unknown key 'max_passes'"


def test_parse_config_rejects_bad_type_and_range(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = fast\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "epochs" in str(err.value)

    path.write_text("beam = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "beam" in str(err.value)

    path.write_text("rho = 1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_config_echo_roundtrip(tmp_path):
    config = dataclasses.replace(
        PipelineConfig(),
        source="a/b.txt",
        kb="rules.tsv",
        beam=9,
        rho=0.875,
        eps=3e-7,
        max_constraints=2,
        seed=99,
    )
    path = tmp_path / "echo.cfg"
    echo_config(config, str(path))
    assert parse_config(str(path)) == config


def test_config_echo_roundtrip_keeps_a_hash_inside_a_value(tmp_path):
    config = dataclasses.replace(PipelineConfig(), out_dir="/tmp/x/run#3", kb="rules#2.tsv")
    path = tmp_path / "echo.cfg"
    echo_config(config, str(path))
    assert parse_config(str(path)) == config


def test_config_echo_roundtrip_keeps_a_line_separator_inside_a_value(tmp_path):
    config = dataclasses.replace(PipelineConfig(), out_dir="runs\u2028a", kb="rules\x0c.tsv")
    path = tmp_path / "echo.cfg"
    echo_config(config, str(path))
    assert parse_config(str(path)) == config


@pytest.mark.parametrize(
    "out_dir", ["/tmp/x/run #3", "#3", "/tmp/x\nbeam = 2", "/tmp/x\rbeam = 2", "/tmp/x/ "]
)
def test_config_echo_refuses_a_value_that_would_not_read_back(tmp_path, out_dir):
    path = tmp_path / "echo.cfg"
    with pytest.raises(ConfigError) as err:
        echo_config(dataclasses.replace(PipelineConfig(), out_dir=out_dir), str(path))
    assert "out_dir" in str(err.value)
    assert not path.exists()


# ---------------------------------------------------------------- pipeline


def showcase_pipeline():
    """Chain-model pipeline over a tiny vocabulary with two rules."""
    words = ["a", "town", "hub", "key", "center", "important", "became", "."]
    vocab = build_vocab([words], max_size=20)
    kb = KnowledgeBase(
        [
            ParaphraseRule(("hub",), ("center",), 0.9),
            ParaphraseRule(("key",), ("important",), 0.9),
        ]
    )
    freqs = FrequencyTable({"hub": 1, "key": 2, "a": 50, "town": 40}, threshold=10)
    tok = vocab.lookup
    # pass 1 (constraint "center"): backward center -> a -> BOS, forward center -> town -> EOS
    # pass 2 (constraint "important"): backward important -> BOS... build chains over ids
    fwd = {
        tok("center"): tok("town"),
        tok("town"): EOS_ID,
        tok("important"): tok("center"),
    }
    bwd = {
        tok("center"): tok("a"),
        tok("a"): BOS_ID,
        tok("important"): BOS_ID,
    }
    model = chain_model(fwd, bwd, vocab_size=len(vocab))
    config = PipelineConfig(beam=3, max_constraints=3, max_decode_len=12)
    return SimplifyPipeline(model, vocab, kb, freqs, config), vocab


def test_simplify_applies_both_steps():
    pipeline, _ = showcase_pipeline()
    out, trace = pipeline.simplify("a key hub .")
    # step 1 rewrites both words; step 2 decodes with "center" (rarer) first
    assert trace["substituted"] == ["a", "important", "center", "."]
    assert [c["simple"] for c in trace["constraints"]] == [["center"], ["important"]]
    assert len(trace["passes"]) == 2
    assert trace["passes"][0]["output"] == "a center town"
    assert out == "important center town"
    assert "center" in out and "important" in out


def test_simplify_trace_records_why_each_search_stopped():
    pipeline, _ = showcase_pipeline()
    _, trace = pipeline.simplify("a key hub .")
    stops = [(p["backward_stop"], p["forward_stop"]) for p in trace["passes"]]
    assert stops == [("boundary", "boundary"), ("boundary", "boundary")]
    json.dumps(trace)  # still one JSON line


def test_simplify_without_matches_is_unconstrained():
    pipeline, _ = showcase_pipeline()
    out, trace = pipeline.simplify("a town .")
    assert trace["constraints"] == []
    assert trace["passes"] == []
    assert isinstance(out, str)


def test_simplify_empty_line():
    pipeline, _ = showcase_pipeline()
    out, trace = pipeline.simplify("   ")
    assert out == ""
    assert trace["output"] == ""


def test_simplify_deterministic():
    pipeline, _ = showcase_pipeline()
    assert pipeline.simplify("a key hub .") == pipeline.simplify("a key hub .")


def test_oov_constraint_raises():
    pipeline, vocab = showcase_pipeline()
    pipeline.kb = KnowledgeBase([ParaphraseRule(("hub",), ("unseen",), 0.9)])
    with pytest.raises(ConstraintError):
        pipeline.simplify("a hub .")


def test_constraint_containment_propagates_to_trace():
    pipeline, _ = showcase_pipeline()
    _, trace = pipeline.simplify("a key hub .")
    for entry, trace_pass in zip(
        [c for c in trace["constraints"] if not c["skipped"]], trace["passes"]
    ):
        position = trace_pass["position"]
        out_tokens = trace_pass["output"].split()
        phrase = trace_pass["constraint"]
        assert out_tokens[position - 1 : position - 1 + len(phrase)] == phrase
