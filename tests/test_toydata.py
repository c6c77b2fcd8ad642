import pytest

from sentsimp.corpus import tokenize
from sentsimp.errors import ContractError
from sentsimp.lexsub import load_kb
from sentsimp.toydata import SHOWCASE_PAIR, build_toy_corpus, toy_token_pairs


def test_corpus_is_deterministic_and_unique():
    a = build_toy_corpus(50, seed=17)
    b = build_toy_corpus(50, seed=17)
    assert a.pairs == b.pairs
    assert len(a.pairs) == 50
    assert len({normal for normal, _ in a.pairs}) == 50
    assert a.pairs[0] == SHOWCASE_PAIR


def test_pairs_are_pretokenized_text():
    data = build_toy_corpus(10, seed=1)
    for normal, simple in data.pairs:
        assert tokenize(normal) == normal.split()
        assert tokenize(simple) == simple.split()


def test_written_kb_loads_cleanly(tmp_path):
    data = build_toy_corpus(10, seed=1)
    src, tgt, kb_path = tmp_path / "n.txt", tmp_path / "s.txt", tmp_path / "kb.tsv"
    data.write(str(src), str(tgt), str(kb_path))
    kb = load_kb(str(kb_path))
    assert len(kb) == len(data.kb_rows)
    assert kb.rejected == []
    assert len(src.read_text().splitlines()) == 10


def test_token_pairs_align():
    data = build_toy_corpus(10, seed=1)
    pairs = toy_token_pairs(data)
    assert len(pairs) == 10
    assert all(s and t for s, t in pairs)


def test_corpus_size_is_capped_at_template_capacity():
    assert len(set(build_toy_corpus(402, seed=17).pairs)) == 402
    with pytest.raises(ContractError):
        build_toy_corpus(403, seed=17)
