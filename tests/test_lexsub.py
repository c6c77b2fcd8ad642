import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp.errors import ContractError
from sentsimp.lexsub import (
    Constraint,
    ConstraintSet,
    FrequencyTable,
    KnowledgeBase,
    ParaphraseRule,
    identify_and_substitute,
    load_kb,
)


def kb_from(rows):
    return KnowledgeBase([ParaphraseRule(tuple(c.split()), tuple(s.split()), sc) for c, s, sc in rows])


def freq_table(counts, threshold):
    return FrequencyTable(counts, threshold=threshold)


# ---------------------------------------------------------------- rules / loading


def test_rule_validation():
    with pytest.raises(ContractError):
        ParaphraseRule(("same",), ("same",), 0.5)
    with pytest.raises(ContractError):
        ParaphraseRule(("a", "b", "c", "d", "e", "f"), ("x",), 0.5)
    with pytest.raises(ContractError):
        ParaphraseRule(("a",), ("b",), 1.5)


def test_load_kb_basic_rows(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("hub\tcenter\t0.9\na great deal of\tmany\t0.8\n", encoding="utf-8")
    kb = load_kb(str(path))
    assert len(kb) == 2
    assert kb.rejected == []
    (rule,) = kb.matches_at(["a", "great", "deal", "of"], 0)
    assert rule.simple == ("many",)
    assert rule.complex == ("a", "great", "deal", "of")


def test_load_kb_rejects_bad_rows(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(
        "hub\tcenter\n"            # 2 fields
        "big\tlarge\t1.4\n"        # score out of range
        "ok\tfine\t0.5\n"
        "bad\tworse\tnot-a-number\n",
        encoding="utf-8",
    )
    kb = load_kb(str(path))
    assert len(kb) == 1
    assert [lineno for lineno, _ in kb.rejected] == [1, 2, 4]


def test_load_kb_rejection_reason_names_line_number(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("good\tfine\t0.5\nhub\tcenter\n", encoding="utf-8")
    kb = load_kb(str(path))
    [(lineno, reason)] = kb.rejected
    assert lineno == 2
    assert "line 2" in reason


# ---------------------------------------------------------------- frequency table


def test_frequency_table_percentile_threshold():
    table = FrequencyTable.from_sequences([[f"t{i}"] * i for i in range(1, 11)], 30.0)  # counts 1..10
    assert table.counts == {f"t{i}": i for i in range(1, 11)}
    assert table.threshold == pytest.approx(3.7)
    assert table.phrase_count(["t1"]) < table.threshold and table.phrase_count(["t3"]) < table.threshold
    assert not table.phrase_count(["t5"]) < table.threshold
    assert table.phrase_count(["unseen-token"]) < table.threshold


def test_frequency_table_from_sequences():
    table = FrequencyTable.from_sequences([["a", "a", "b"], ["a"]], complexity_percentile=50)
    assert table.count("a") == 3
    assert table.count("b") == 1
    assert table.count("zzz") == 0
    assert table.threshold == 2.0  # the median of the counts 3 and 1
    assert FrequencyTable.from_sequences([], 30.0).threshold == 0.0


# ---------------------------------------------------------------- substitution


TABLE_STYLE_SENTENCE = (
    "parkes became a key country location after the completion of the railway in 1893 , "
    "serving as a hub for a great deal of passenger and freight transport until the 1980s ."
).split()


def test_substitution_on_table_style_sentence():
    kb = kb_from([("hub", "center", 0.9), ("a great deal of", "many", 0.8)])
    freqs = freq_table({"hub": 2, "a": 500, "great": 40}, threshold=10)
    constraints, out = identify_and_substitute(TABLE_STYLE_SENTENCE, kb, freqs, max_constraints=5)
    assert " ".join(out) == (
        "parkes became a key country location after the completion of the railway in 1893 , "
        "serving as a center for many passenger and freight transport until the 1980s ."
    )
    assert [c.simple for c in constraints] == [("many",), ("center",)]  # freq 0 < freq 2
    assert [c.complex_freq for c in constraints] == [0, 2]
    for c in constraints:
        lo, hi = c.output_span
        assert tuple(out[lo:hi]) == c.simple


def test_no_matches_returns_unchanged():
    kb = kb_from([("hub", "center", 0.9)])
    constraints, out = identify_and_substitute(["no", "hits", "here"], kb, freq_table({}, 10), 3)
    assert len(constraints) == 0
    assert out == ["no", "hits", "here"]


def test_leftmost_longest_wins_against_all_matchings():
    # toy 6-token sentence with overlapping 2-token rules
    sentence = "in the last decades of his".split()
    kb = kb_from([("last decades", "later", 0.9), ("decades of", "years", 0.9)])
    freqs = freq_table({}, threshold=10)
    constraints, out = identify_and_substitute(sentence, kb, freqs, 3)
    assert out == ["in", "the", "later", "of", "his"]
    assert [c.span for c in constraints] == [(2, 4)]

    # enumerate every maximal set of non-overlapping matches and confirm the
    # greedy result is the one whose first match starts leftmost and is longest
    spans = [(2, 4), (3, 5)]
    overlap = lambda a, b: a[0] < b[1] and b[0] < a[1]
    matchings = []
    for r in range(1, len(spans) + 1):
        for picks in itertools.combinations(spans, r):
            if all(not overlap(a, b) for a, b in itertools.combinations(picks, 2)):
                matchings.append(sorted(picks))
    maximal = [
        m for m in matchings
        if not any(set(m) < set(other) for other in matchings)
    ]
    assert sorted(maximal) == [[(2, 4)], [(3, 5)]]
    best = min(maximal, key=lambda picks: (picks[0][0], -(picks[0][1] - picks[0][0])))
    assert [c.span for c in constraints] == best


def test_frequency_gate_blocks_common_phrases():
    kb = kb_from([("hub", "center", 0.9)])
    freqs = freq_table({"hub": 1000}, threshold=10)
    constraints, out = identify_and_substitute(["a", "hub", "here"], kb, freqs, 3)
    assert len(constraints) == 0
    assert out == ["a", "hub", "here"]


def test_max_constraints_keeps_lowest_frequency():
    kb = kb_from([("alpha", "a1", 0.9), ("beta", "b1", 0.9), ("gamma", "c1", 0.9)])
    freqs = freq_table({"alpha": 5, "beta": 1, "gamma": 3}, threshold=10)
    constraints, out = identify_and_substitute(
        ["alpha", "x", "beta", "y", "gamma"], kb, freqs, max_constraints=2
    )
    assert [c.simple for c in constraints] == [("b1",), ("c1",)]
    # the dropped match stays unsubstituted
    assert out == ["alpha", "x", "b1", "y", "c1"]


def test_score_then_shorter_simple_breaks_ties():
    kb = kb_from([("hub", "center", 0.7), ("hub", "middle point", 0.9), ("hub", "core", 0.9)])
    freqs = freq_table({}, threshold=10)
    constraints, _ = identify_and_substitute(["hub"], kb, freqs, 1)
    assert constraints[0].simple == ("core",)  # 0.9 beats 0.7; shorter simple wins the tie


def test_constraint_set_invariants():
    make = lambda span, freq: Constraint(span, ("x",), freq, span)
    with pytest.raises(ContractError):
        ConstraintSet([make((0, 1), 5), make((2, 3), 1)])  # out of order
    with pytest.raises(ContractError):
        ConstraintSet([make((0, 2), 1), make((1, 3), 2)])  # overlap


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(["hub", "key", "plain", "word", "deal"]), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=3),
)
def test_substituted_sentence_contains_every_simple_phrase(tokens, max_constraints):
    kb = kb_from([("hub", "center", 0.9), ("key", "important", 0.8)])
    freqs = freq_table({"hub": 1, "key": 2}, threshold=10)
    constraints, out = identify_and_substitute(tokens, kb, freqs, max_constraints)
    assert len(constraints) <= max_constraints
    freqs_seq = [c.complex_freq for c in constraints]
    assert freqs_seq == sorted(freqs_seq)
    for c in constraints:
        lo, hi = c.output_span
        assert tuple(out[lo:hi]) == c.simple


def test_idempotent_when_no_chains():
    kb = kb_from([("hub", "center", 0.9), ("key", "important", 0.8)])
    freqs = freq_table({"hub": 1, "key": 2}, threshold=10)
    sentence = ["a", "key", "hub", "town"]
    _, once = identify_and_substitute(sentence, kb, freqs, 5)
    again_constraints, twice = identify_and_substitute(once, kb, freqs, 5)
    assert twice == once
    assert len(again_constraints) == 0
