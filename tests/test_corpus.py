import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    PUNCTUATION,
    UNK_ID,
    SentencePair,
    build_vocab,
    detokenize,
    read_parallel_tokens,
    split_corpus,
    split_lines,
    tokenize,
)
from sentsimp.errors import ContractError, IngestionError

from oracles import tokenize_chars, top_k_tokens


# ---------------------------------------------------------------- tokenize


def test_tokenize_detaches_punctuation():
    assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_known_sentence_prefix():
    text = "In the last decades of his life, dukas became well known as a teacher of composition, with many famous students."
    assert tokenize(text)[:6] == ["in", "the", "last", "decades", "of", "his"]


def test_tokenize_all_listed_marks():
    assert tokenize('a"b\'c(d)e!f?g;h:i,j.') == [
        "a", '"', "b", "'", "c", "(", "d", ")", "e", "!",
        "f", "?", "g", ";", "h", ":", "i", ",", "j", ".",
    ]


@settings(max_examples=50)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=40))
def test_tokenize_deterministic_and_no_blanks(text):
    toks = tokenize(text)
    assert toks == tokenize(text)
    assert all(tok and not tok.isspace() for tok in toks)


@settings(max_examples=300)
@given(st.text() | st.text(st.sampled_from(sorted(PUNCTUATION) + [" ", "\t", "\n", "a", "B", "\u0130"])))
def test_tokenize_equals_the_per_character_oracle(text):
    """Any text, and text dense in marks, whitespace and "\u0130" (whose
    lowercase is two characters long)."""
    assert tokenize(text) == tokenize_chars(text)


def test_detokenize_reattaches_punctuation():
    assert detokenize(["the", "cat", "sat", "."]) == "the cat sat."
    assert detokenize(["built", "in", "1893", ",", "fast"]) == "built in 1893, fast"


# ---------------------------------------------------------------- vocabulary


def test_build_vocab_small():
    vocab = build_vocab([["a", "a", "b"]], max_size=6)
    assert len(vocab) == 6
    assert "a" in vocab and "b" in vocab
    assert vocab.lookup("a") == 4  # most frequent gets the first free id


def test_build_vocab_lexicographic_tie_break():
    vocab = build_vocab([["x", "y"]], max_size=5)  # one free slot
    assert "x" in vocab
    assert "y" not in vocab


def test_build_vocab_matches_frequency_oracle_on_zipf_corpus():
    # synthetic Zipf-ish corpus: token t_i appears about 1000/i times
    seqs = []
    for i in range(1, 60):
        seqs.append([f"t{i:02d}"] * (1000 // i))
    k = 20
    vocab = build_vocab(seqs, max_size=k + 4)
    assert sorted(vocab.kept_tokens()) == sorted(top_k_tokens(seqs, k))


def test_vocab_reserved_ids_and_unk():
    vocab = build_vocab([["cat"]], max_size=10)
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    assert vocab.lookup("never-seen") == UNK_ID
    assert vocab.render(UNK_ID) == "unk"
    assert vocab.lookup("unk") == UNK_ID  # the literal string maps to the reserved id


def test_vocab_rejects_tiny_max_size():
    with pytest.raises(ContractError):
        build_vocab([["a"]], max_size=4)


def test_vocab_roundtrip_in_vocab_identity():
    vocab = build_vocab([["the", "cat", "sat", "."]], max_size=20)
    toks = ["the", "cat", "sat", "."]
    assert vocab.decode(vocab.encode(toks)) == toks


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["a", "b", "c", "dog", "."]), min_size=1, max_size=12))
def test_vocab_oov_renders_unk(tokens):
    vocab = build_vocab([["a", "b"]], max_size=6)
    rendered = vocab.decode(vocab.encode(tokens))
    for orig, out in zip(tokens, rendered):
        assert out == (orig if orig in ("a", "b") else "unk")


def test_build_vocab_deterministic_byte_for_byte():
    seqs = [["b", "a", "a", "c"], ["c", "b", "d"]]
    first = build_vocab(seqs, max_size=7).kept_tokens()
    assert build_vocab(list(seqs), max_size=7).kept_tokens() == first
    assert first == ["a", "b", "c"]


# ---------------------------------------------------------------- parallel loading


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_parallel_two_files(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    _write(src, ["The cat sat.", "A big dog"])
    _write(tgt, ["the cat sat", "a dog"])
    pairs, skipped = read_parallel_tokens(str(src), str(tgt))
    assert len(pairs) == 2
    assert skipped == []
    assert pairs[0] == (["the", "cat", "sat", "."], ["the", "cat", "sat"])


def test_load_parallel_blank_line_rejected_with_line_number(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    _write(src, ["good line", "", "another"])
    _write(tgt, ["fine", "fine", "fine"])
    pairs, skipped = read_parallel_tokens(str(src), str(tgt))
    assert len(pairs) == 2
    assert skipped == [(2, "blank sentence")]


def test_load_parallel_unequal_counts(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    _write(src, ["one", "two"])
    _write(tgt, ["one"])
    with pytest.raises(IngestionError) as err:
        read_parallel_tokens(str(src), str(tgt))
    assert "2" in str(err.value) and "1" in str(err.value)


def test_load_parallel_tsv(tmp_path):
    tsv = tmp_path / "data.tsv"
    tsv.write_text("Normal one.\tsimple one\nshort\n", encoding="utf-8")
    pairs, skipped = read_parallel_tokens(str(tsv))
    assert pairs == [(["normal", "one", "."], ["simple", "one"])]
    assert skipped == [(2, "expected two tab-separated fields")]


def test_load_parallel_drops_a_leading_byte_order_mark(tmp_path):
    src, tgt, tsv = tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "data.tsv"
    src.write_text("\ufeffWe left.\n", encoding="utf-8")
    tgt.write_text("\ufeffwe went .\n", encoding="utf-8")
    tsv.write_text("\ufeffWe left.\twe went .\n", encoding="utf-8")
    want = [(["we", "left", "."], ["we", "went", "."])]
    assert read_parallel_tokens(str(src), str(tgt)) == (want, [])
    assert read_parallel_tokens(str(tsv)) == (want, [])


# characters that str.splitlines breaks at but the package's line rule does not
NOT_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_split_lines_breaks_only_at_newline_sequences():
    text = "".join(f"a{ch}b" for ch in NOT_LINE_BREAKS) + "\nc\r\nd\re\n\nf"
    assert split_lines(text) == ["".join(f"a{ch}b" for ch in NOT_LINE_BREAKS), "c", "d", "e", "", "f"]
    assert split_lines("") == []
    assert split_lines("a\n") == split_lines("a") == ["a"]


@settings(max_examples=100)
@given(st.lists(st.text(st.characters(blacklist_characters="\r\n")), max_size=5))
def test_split_lines_inverts_joining_with_newlines(lines):
    assert split_lines("".join(line + "\n" for line in lines)) == lines


def test_load_parallel_keeps_a_line_separator_inside_its_sentence(tmp_path):
    """U+2028 is whitespace to the tokenizer, not a line break: the two-file
    form reads two pairs here, as the TSV form does. "\r\n" and "\r" end lines."""
    src, tgt, tsv = tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "data.tsv"
    src.write_text("We left\u2028early.\nThey stayed.\n", encoding="utf-8")
    tgt.write_bytes("we went .\r\nthey stayed .\r".encode("utf-8"))
    tsv.write_text("We left\u2028early.\twe went .\nThey stayed.\tthey stayed .\n", encoding="utf-8")
    want = [
        (["we", "left", "early", "."], ["we", "went", "."]),
        (["they", "stayed", "."], ["they", "stayed", "."]),
    ]
    assert read_parallel_tokens(str(src), str(tgt)) == (want, [])
    assert read_parallel_tokens(str(tsv)) == (want, [])


def test_load_roundtrip_renders_lowercased_tokenization(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    text = "Parkes became a KEY location, serving well."
    _write(src, [text])
    _write(tgt, ["parkes was a key place ."])
    vocab = build_vocab(
        [tokenize(text), tokenize("parkes was a key place .")], max_size=50
    )
    pairs, _ = read_parallel_tokens(str(src), str(tgt))
    assert pairs[0][0] == tokenize(text)
    assert vocab.decode(vocab.encode(pairs[0][0])) == tokenize(text)


# ---------------------------------------------------------------- filtering / splits


def _pair(a, b):
    return SentencePair(tuple(a), tuple(b))


def test_split_corpus_disjoint_and_seeded():
    pairs = [_pair([i + 4], [i + 5]) for i in range(20)]
    split_a = split_corpus(pairs, valid_size=4, seed=7)
    split_b = split_corpus(pairs, valid_size=4, seed=7)
    assert (len(split_a.train), len(split_a.validation)) == (16, 4)
    ids = lambda lst: {id_ for p in lst for id_ in p.source}
    assert not (ids(split_a.train) & ids(split_a.validation))
    assert split_a == split_b


@pytest.mark.parametrize("valid_size", [-1, 6])
def test_split_corpus_rejects_a_valid_size_outside_the_corpus(valid_size):
    pairs = [_pair([i + 4], [i + 5]) for i in range(5)]
    with pytest.raises(ContractError, match=f"cannot hold out {valid_size} pairs from 5"):
        split_corpus(pairs, valid_size=valid_size, seed=7)


def test_sentence_pair_rejects_empty():
    with pytest.raises(ContractError):
        _pair([], [4])
