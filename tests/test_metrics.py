import csv
import io
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp import metrics
from sentsimp.corpus import PUNCTUATION
from sentsimp.errors import ContractError
from sentsimp.metrics import (
    EvalTriple,
    MetricReport,
    bleu,
    count_syllables,
    evaluate_corpus,
    fk_grade,
    ibleu,
    ibleu_from_bleu,
    render_csv,
    render_text,
    sari,
)

from oracles import bleu_loops, fk_from_counts, ngrams_list, sari_counter, sari_loops, syllables_heuristic

WORDS = ["the", "cat", "sat", "on", "a", "mat", "dogs", "run", "fast", "."]
corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8), min_size=1, max_size=6
)


# ---------------------------------------------------------------- n-gram counts


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(WORDS[:3]), max_size=8),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_count_ngrams_equals_the_counter_oracle_in_key_order(tokens, max_n, as_tuple):
    """Three words repeat n-grams, and sentences shorter than n have none."""
    tokens = tuple(tokens) if as_tuple else tokens
    counts = metrics._count_ngrams(tokens, max_n)
    assert len(counts) == max_n
    for n, got in enumerate(counts, start=1):
        want = Counter(ngrams_list(tokens, n))
        assert got == want
        assert list(got.items()) == list(want.items())


def test_evaluate_corpus_counts_each_sentence_once(monkeypatch):
    counted = []
    count_ngrams = metrics._count_ngrams

    def spy(tokens, max_n):
        counted.append(tuple(tokens))
        return count_ngrams(tokens, max_n)

    monkeypatch.setattr(metrics, "_count_ngrams", spy)
    triples = _triples() * 3
    evaluate_corpus(triples)
    assert len(counted) == 3 * len(triples)
    assert Counter(counted) == Counter(s for t in triples for s in (t.input, t.output, t.reference))


# ---------------------------------------------------------------- BLEU


def test_bleu_identity_is_exactly_100():
    corpus = [["the", "cat", "sat", "."], ["a", "dog"]]
    assert bleu(corpus, corpus) == 100.0


def test_bleu_disjoint_unigrams_is_zero():
    assert bleu([["a", "b"]], [["c", "d"]]) == 0.0


def test_bleu_five_token_hand_case():
    # candidate and reference share 3 unigrams and 1 bigram; the trigram
    # precision is zero, so the unsmoothed 4-gram score collapses to 0
    cand = [["a", "b", "c", "d", "e"]]
    ref = [["a", "b", "x", "d", "y"]]
    assert bleu(cand, ref) == 0.0
    # hand-computed modified precisions: p1 = 3/5, p2 = 1/4, lengths equal
    expected = 100.0 * math.exp((math.log(3 / 5) + math.log(1 / 4)) / 2)
    assert bleu(cand, ref, max_n=2) == pytest.approx(expected, abs=1e-12)
    assert bleu(cand, ref, max_n=2) == pytest.approx(38.72983346207417, abs=1e-9)


def test_bleu_brevity_penalty_short_candidate():
    got = bleu([["a", "b"]], [["a", "b", "c", "d"]])
    expected = 100.0 * math.exp(1.0 - 4 / 2) * math.exp((math.log(2 / 2) + math.log(1 / 1)) / 2)
    assert got == pytest.approx(expected, abs=1e-9)


def test_bleu_clipping_counts_repeats_once():
    # "the the the" against a reference with one "the": clipped p1 = 1/3
    cand, ref = [["the", "the", "the"]], [["the", "cat", "runs"]]
    assert bleu(cand, ref, max_n=1) == pytest.approx(100.0 / 3.0, abs=1e-9)
    # at order 2 the precision is zero ("the the" never appears), so no smoothing means 0
    assert bleu(cand, ref) == 0.0


def test_bleu_matches_loop_oracle_on_fixed_cases():
    cases = [
        ([["a", "b", "c", "d", "e"]], [["a", "b", "c", "x", "e"]]),
        ([["the", "cat", "sat", "on", "the", "mat"]], [["the", "cat", "sat", "on", "a", "mat"]]),
        ([["a", "b"], ["c", "d", "e"]], [["a", "b"], ["c", "x", "e"]]),
    ]
    for cand, ref in cases:
        assert bleu(cand, ref) == pytest.approx(bleu_loops(cand, ref), abs=1e-9)


@settings(max_examples=60)
@given(corpora)
def test_bleu_identity_and_oracle_agreement(corpus):
    assert bleu(corpus, corpus) == 100.0
    shifted = [row[::-1] for row in corpus]
    assert bleu(corpus, shifted) == pytest.approx(bleu_loops(corpus, shifted), abs=1e-9)


short_sentences = st.lists(st.sampled_from(WORDS[:3]), max_size=6)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(short_sentences, short_sentences), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=4),
)
def test_bleu_equals_the_loop_oracle_exactly(rows, max_n):
    """Three words repeat n-grams, and candidates shorter than n (or empty)
    leave orders unpopulated, so every branch of the score is reached."""
    candidates, references = (list(column) for column in zip(*rows))
    assert bleu(candidates, references, max_n) == bleu_loops(candidates, references, max_n)


@settings(max_examples=30)
@given(corpora, st.randoms(use_true_random=False))
def test_bleu_symmetric_under_corpus_permutation(corpus, rng):
    refs = [row + ["."] for row in corpus]
    paired = list(zip(corpus, refs))
    rng.shuffle(paired)
    shuffled_c = [c for c, _ in paired]
    shuffled_r = [r for _, r in paired]
    assert bleu(shuffled_c, shuffled_r) == pytest.approx(bleu(corpus, refs), abs=1e-9)


def test_bleu_contract_errors():
    with pytest.raises(ContractError):
        bleu([], [])
    with pytest.raises(ContractError):
        bleu([["a"]], [["a"], ["b"]])


# ---------------------------------------------------------------- iBLEU


def test_ibleu_reproduces_published_rows():
    assert ibleu_from_bleu(28.19, 100.0) == pytest.approx(15.37, abs=0.005)
    assert ibleu_from_bleu(100.0, 30.41) == pytest.approx(86.96, abs=0.005)


def test_ibleu_identity_triple():
    # alpha*100 - (1-alpha)*100 = 100*(2*alpha - 1) = 80 at alpha = 0.9
    corpus = [["the", "cat", "sat", "."]]
    assert ibleu(corpus, corpus, corpus) == pytest.approx(80.0, abs=1e-9)


@settings(max_examples=50)
@given(
    st.floats(0, 100),
    st.floats(0, 100),
    st.floats(0, 1),
)
def test_ibleu_linear_in_both_components(b1, b2, alpha):
    assert ibleu_from_bleu(b1, b2, alpha) == pytest.approx(alpha * b1 - (1 - alpha) * b2, abs=1e-9)


# ---------------------------------------------------------------- SARI


def test_sari_all_identical_takes_vacuous_convention():
    toks = ("a", "b", "c")
    assert sari(toks, toks, [toks]) == pytest.approx(100.0, abs=1e-9)
    assert sari(toks, toks, [toks], vacuous=0.0) == pytest.approx(
        sari_loops(list(toks), list(toks), [list(toks)], vacuous=0.0), abs=1e-9
    )


def test_sari_three_token_hand_case():
    i, r, o = ["a", "b", "c"], ["a", "c"], ["a", "c"]
    assert sari(i, o, [r]) == pytest.approx(sari_loops(i, o, [r]), abs=1e-12)


def test_sari_copy_scores_below_correct_simplification():
    i = ["the", "big", "cat", "sat"]
    r = ["the", "cat", "sat"]
    assert sari(i, i, [r]) < sari(i, r, [r])


def test_sari_multi_reference_replication():
    i = ["x", "y", "z"]
    o = ["x", "z"]
    refs = [["x", "z"], ["x", "y"]]
    assert sari(i, o, refs) == pytest.approx(sari_loops(i, o, refs), abs=1e-12)


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(WORDS[:6]), min_size=1, max_size=6),
    st.lists(st.sampled_from(WORDS[:6]), min_size=1, max_size=6),
    st.lists(st.lists(st.sampled_from(WORDS[:6]), min_size=1, max_size=6), min_size=1, max_size=3),
)
def test_sari_bounds_and_oracle_agreement(i, o, refs):
    got = sari(i, o, refs)
    assert 0.0 <= got <= 100.0
    assert got == pytest.approx(sari_loops(i, o, refs), abs=1e-9)


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(WORDS[:3]), min_size=1, max_size=10),
    st.lists(st.sampled_from(WORDS[:3]), min_size=1, max_size=10),
    st.lists(st.lists(st.sampled_from(WORDS[:4]), min_size=1, max_size=10), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1.0, 0.0, 0.5, 0.3]),
)
def test_sari_equals_the_counter_oracle_bit_for_bit(i, o, refs, max_n, vacuous):
    """Three words repeat n-grams, and a short output has no n-grams at the
    higher orders, so empty components take `vacuous`."""
    got = sari(i, o, refs, max_n=max_n, vacuous=vacuous)
    assert got == sari_counter(i, o, refs, max_n=max_n, vacuous=vacuous)


@settings(max_examples=30)
@given(
    st.lists(st.sampled_from(WORDS[:6]), min_size=1, max_size=5),
    st.lists(st.sampled_from(WORDS[:6]), min_size=1, max_size=5),
    st.permutations([["the", "cat"], ["a", "mat", "sat"], ["dogs", "run"]]),
)
def test_sari_invariant_under_reference_permutation(i, o, refs):
    assert sari(i, o, list(refs)) == pytest.approx(sari(i, o, sorted(refs)), abs=1e-12)


# ---------------------------------------------------------------- Flesch-Kincaid


def test_syllable_heuristic_cases():
    for word, expected in [
        ("the", 1), ("cat", 1), ("cake", 1), ("see", 1), ("able", 2),
        ("syllable", 3), ("readability", 5), ("please", 1), ("1893", 1), ("rhythm", 1),
    ]:
        assert count_syllables(word) == expected, word
        assert count_syllables(word) == syllables_heuristic(word), word


def test_fk_hand_counted_sentence():
    assert fk_grade(["the", "cat", "sat", "."]) == pytest.approx(-2.62, abs=1e-9)


def test_fk_matches_formula_from_hand_counts():
    tokens = "it is easy . it is fun .".split()
    # hand counts: 6 words, 2 sentences, 7 syllables
    assert fk_grade(tokens) == pytest.approx(fk_from_counts(6, 2, 7), abs=1e-12)


def test_fk_invariant_under_duplication():
    tokens = "simple sentences please simple people .".split()
    assert fk_grade(tokens * 2) == pytest.approx(fk_grade(tokens), abs=1e-12)


def test_fk_within_class_punctuation_swaps_do_not_matter():
    base = ["the", "cat", ",", "sat", "."]
    assert fk_grade(base) == fk_grade(["the", "cat", '"', "sat", "!"])
    assert fk_grade(base) == fk_grade(["the", "cat", "(", "sat", "?"])


def test_fk_monotone_in_syllables_per_word():
    shorter = fk_grade(["the", "cat", "sat", "."])
    longer = fk_grade(["the", "feline", "reclined", "."])
    assert longer > shorter


def test_fk_rejects_word_free_input():
    with pytest.raises(ContractError):
        fk_grade([".", "!"])


# ---------------------------------------------------------------- corpus report


def _triples():
    rows = [
        ("the big cat sat on the mat .", "the cat sat on the mat .", "the cat sat on a mat ."),
        ("dogs run very fast .", "dogs run fast .", "dogs run fast ."),
    ]
    return [
        EvalTriple(tuple(i.split()), tuple(o.split()), tuple(r.split()))
        for i, o, r in rows
    ]


def test_evaluate_corpus_columns_and_copy_penalty():
    triples = _triples()
    report = evaluate_corpus(triples)
    assert MetricReport.COLUMNS == ("FK", "BLEU(O, R)", "BLEU(O, I)", "iBLEU", "SARI")
    copy_rows = [EvalTriple(t.input, t.input, t.reference) for t in triples]
    copy_report = evaluate_corpus(copy_rows)
    assert copy_report.bleu_output_input == 100.0
    assert copy_report.ibleu == pytest.approx(
        0.9 * copy_report.bleu_output_reference - 10.0, abs=1e-9
    )
    assert report.ibleu > copy_report.ibleu


sentences = st.lists(st.sampled_from(WORDS[:4] + ["."]), min_size=1, max_size=8)


@settings(max_examples=60)
@given(st.lists(st.tuples(sentences, sentences, sentences), min_size=1, max_size=5))
def test_evaluate_corpus_equals_the_oracle_composition_exactly(rows):
    rows = [(i, ["cat"] + o, r) for i, o, r in rows]  # every output has a word
    report = evaluate_corpus([EvalTriple(tuple(i), tuple(o), tuple(r)) for i, o, r in rows])
    inputs, outputs, references = (list(column) for column in zip(*rows))

    words = [[tok for tok in out if tok not in PUNCTUATION] for out in outputs]
    fk = fk_from_counts(
        sum(len(w) for w in words),
        sum(max(1, sum(tok in {".", "!", "?"} for tok in out)) for out in outputs),
        sum(syllables_heuristic(tok) for w in words for tok in w),
    )
    bleu_or = bleu_loops(outputs, references)
    bleu_oi = bleu_loops(outputs, inputs)
    sari_mean = sum(sari_counter(i, o, [r]) for i, o, r in rows) / len(rows)
    assert report.values() == (fk, bleu_or, bleu_oi, 0.9 * bleu_or - (1.0 - 0.9) * bleu_oi, sari_mean)


def test_report_csv_roundtrips_to_identical_floats():
    report = evaluate_corpus(_triples())
    text = render_csv(report, label="toy")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["system", "FK", "BLEU(O, R)", "BLEU(O, I)", "iBLEU", "SARI"]
    parsed = [float(v) for v in rows[1][1:]]
    assert tuple(parsed) == report.values()


def test_report_text_layout():
    out = render_text(evaluate_corpus(_triples()), label="toy")
    lines = out.splitlines()
    assert "FK" in lines[0] and "SARI" in lines[0]
    assert lines[0].index("BLEU(O, R)") < lines[0].index("BLEU(O, I)") < lines[0].index("iBLEU")


def test_eval_triple_rejects_empty():
    with pytest.raises(ContractError):
        EvalTriple((), ("a",), ("b",))
