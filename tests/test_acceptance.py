"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion. The overfit-based criteria share one trained model (module-scoped
fixture), so the whole module stays within a desk-scale time budget.
"""

import random

import numpy as np
import pytest

from sentsimp.corpus import BOS_ID, EOS_ID, CorpusSplit, SentencePair, build_vocab
from sentsimp.decoding import _search, decode_multi
from sentsimp.lexsub import FrequencyTable, KnowledgeBase, ParaphraseRule
from sentsimp.metrics import EvalTriple, bleu, evaluate_corpus, fk_grade, ibleu_from_bleu, sari
from sentsimp.model import ModelConfig, Seq2SeqModel, encode, init_decoder_state
from sentsimp.pipeline import PipelineConfig
from sentsimp.autodiff import Tape, affine
from sentsimp.training import select_training_constraint, train, training_loss
from sentsimp.toydata import build_toy_corpus, toy_token_pairs

from gradcheck import finite_difference, max_relative_error
from oracles import decode_step_per_step, decode_step_with_logits, exhaustive_best, fk_from_counts, sari_loops, softmax


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# ----------------------------------------------------------- criterion 1


def test_criterion_1_ibleu_reproduction():
    wiki_row = ibleu_from_bleu(28.19, 100.0, alpha=0.9)
    simple_row = ibleu_from_bleu(100.0, 30.41, alpha=0.9)
    ok = abs(wiki_row - 15.37) <= 0.005 and abs(simple_row - 86.96) <= 0.005
    report(1, "iBLEU reproduction", ok, f"{wiki_row:.4f} vs 15.37, {simple_row:.4f} vs 86.96")


# ----------------------------------------------------------- criterion 2


def test_criterion_2_bleu_identity():
    corpora = [
        [["the", "cat", "sat", "on", "the", "mat", "."]],
        [["a"], ["b", "c"]],  # shorter than the maximum n-gram order
        [["one", "two", "three"], ["four", "five", "six", "seven", "eight"]],
    ]
    rng = random.Random(2024)
    words = ["the", "cat", "dog", "sat", "ran", "on", "mat", "."]
    for _ in range(25):
        corpus = [
            [rng.choice(words) for _ in range(rng.randint(1, 9))]
            for _ in range(rng.randint(1, 6))
        ]
        corpora.append(corpus)
    ok = all(bleu(corpus, corpus) == 100.0 for corpus in corpora)
    report(2, "BLEU identity equals 100.0 exactly", ok, f"{len(corpora)} corpora")


# ----------------------------------------------------------- criterion 3


def test_criterion_3_gradient_correctness():
    model = Seq2SeqModel.create(
        ModelConfig(vocab_size=12, embed_dim=2, hidden_dim=3),
        seed=42,
    )
    pair = SentencePair((4, 9, 6), (7, 5, 11))
    position = 2

    def loss():
        return training_loss([pair], [position], model)

    named = list(model.named_parameters())
    model.zero_grad()
    with Tape() as tape:
        tape.backward(loss())
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy()) for name, t in named}
    model.zero_grad()

    worst = 0.0
    worst_name = ""
    for name, tensor in named:
        numeric = finite_difference(loss, tensor, eps=1e-5)
        err = max_relative_error(analytic[name], numeric)
        if err > worst:
            worst, worst_name = err, name
    report(3, "training-loss gradients vs finite differences", worst < 1e-4,
           f"max rel err {worst:.3e} at {worst_name}, {len(named)} parameters")


# ----------------------------------------------------------- criterion 4


def test_criterion_4_constraint_satisfaction():
    cfg = ModelConfig(vocab_size=12, embed_dim=3, hidden_dim=4)
    rng = random.Random(7)
    content = list(range(4, 12))
    decodes = 0
    satisfied = 0
    checked_constraints = 0
    while decodes < 500:
        model = Seq2SeqModel.create(cfg, seed=1000 + decodes)
        for _ in range(5):
            if decodes >= 500:
                break
            source = [rng.choice(content) for _ in range(rng.randint(2, 6))]
            k = rng.randint(1, 3)
            blocks = []
            for _ in range(k):
                width = rng.randint(1, 2)
                blocks.append([rng.choice(content) for _ in range(width)])
            result = decode_multi(source, blocks, model, beam_size=3, max_decode_len=10)
            ok = True
            for trace in result.passes:
                lo = trace.position - 1
                if trace.output[lo : lo + len(trace.constraint)] != trace.constraint:
                    ok = False
                checked_constraints += 1
            # the final output is the last pass's output, so its constraint
            # must be present in the final sequence as well
            if result.passes:
                last = result.passes[-1]
                lo = last.position - 1
                if result.tokens[lo : lo + len(last.constraint)] != last.constraint:
                    ok = False
            satisfied += ok
            decodes += 1
    report(4, "constraint satisfaction over random decodes", satisfied == 500,
           f"{satisfied}/500 decodes, {checked_constraints} non-skipped constraints")


# ----------------------------------------------------------- criterion 5


def test_criterion_5_beam_equals_exhaustive_search():
    cfg = ModelConfig(vocab_size=5, embed_dim=2, hidden_dim=2)
    beam_size = 200  # > 1 + 4 + 16 + 64 complete sequences
    agreements = 0
    for seed in range(50):
        model = Seq2SeqModel.create(cfg, seed=seed)
        source = [4, 4, 4]
        constraint = [4]

        annotations, h_mean = encode([source], model.encoder)

        def stepper(params):
            keys = affine(annotations, params.att_u, params.att_b)

            def step(prev, state):
                new_state, logits = decode_step_with_logits([prev], state, annotations, keys, params)
                return new_state, softmax(logits).data[0]
            return step

        encoded = (annotations, h_mean)
        backward = _search(encoded, model.backward_decoder, tuple(constraint), BOS_ID, 3, beam_size)
        state = init_decoder_state(h_mean, model.backward_decoder)
        score, tokens = exhaustive_best(
            stepper(model.backward_decoder), state, 4, BOS_ID,
            [i for i in range(5) if i != BOS_ID], max_new=3,
        )
        back_ok = backward.tokens == tokens and abs(backward.log_prob - score) < 1e-9

        forward = _search(encoded, model.forward_decoder, (BOS_ID, 4), EOS_ID, 3, beam_size)
        state = init_decoder_state(h_mean, model.forward_decoder)
        keys = affine(annotations, model.forward_decoder.att_u, model.forward_decoder.att_b)
        _, state, _ = decode_step_per_step([BOS_ID], state, annotations, keys, model.forward_decoder)
        score, tokens = exhaustive_best(
            stepper(model.forward_decoder), state, 4, EOS_ID,
            [i for i in range(5) if i != EOS_ID], max_new=3,
        )
        fwd_ok = forward.tokens == tokens and abs(forward.log_prob - score) < 1e-9
        agreements += back_ok and fwd_ok
    report(5, "beam equals exhaustive search on toy models", agreements == 50, f"{agreements}/50 models")


# ----------------------------------------------------------- criteria 6 & 8


OVERFIT_MAX_LEN = 30  # the decode cap of the overfit model


@pytest.fixture(scope="module")
def overfit_run():
    data = build_toy_corpus(50, seed=17)
    token_pairs = toy_token_pairs(data)
    vocab = build_vocab((s + t for s, t in token_pairs), max_size=200)
    pairs = [
        SentencePair(tuple(vocab.encode(s)), tuple(vocab.encode(t))) for s, t in token_pairs
    ]
    kb = KnowledgeBase(
        [ParaphraseRule(tuple(c.split()), tuple(s.split()), sc) for c, s, sc in data.kb_rows]
    )
    freq_table = FrequencyTable.from_sequences((s for s, _ in token_pairs))
    model = Seq2SeqModel.create(
        ModelConfig(vocab_size=len(vocab), embed_dim=16, hidden_dim=32),
        seed=1,
    )
    config = PipelineConfig(epochs=170, batch_size=8, seed=13)
    result = train(
        CorpusSplit(train=pairs), model, config, vocab, kb=kb, freq_table=freq_table
    )
    return data, vocab, pairs, kb, freq_table, model, result


def test_criterion_6_overfit_end_to_end(overfit_run):
    data, vocab, pairs, kb, freq_table, model, result = overfit_run
    final_loss = result.history[-1].train_loss
    exact = 0
    for pair in pairs:
        s = select_training_constraint(pair, kb, freq_table, vocab)
        block = [pair.target[s - 1]]
        decoded = decode_multi(pair.source, [block], model, beam_size=5, max_decode_len=OVERFIT_MAX_LEN)
        exact += decoded.tokens == pair.target
    ok = final_loss < 0.1 and exact >= 45
    report(6, "overfit training and constrained reproduction", ok,
           f"loss {final_loss:.4f} per token, {exact}/50 exact")


def test_criterion_8_metric_direction(overfit_run):
    data, vocab, pairs, kb, freq_table, model, result = overfit_run
    triples = []
    copies = []
    for pair in pairs:
        s = select_training_constraint(pair, kb, freq_table, vocab)
        block = [pair.target[s - 1]]
        decoded = decode_multi(pair.source, [block], model, beam_size=5, max_decode_len=OVERFIT_MAX_LEN)
        source_tokens = tuple(vocab.decode(pair.source))
        output_tokens = tuple(vocab.decode(decoded.tokens))
        reference_tokens = tuple(vocab.decode(pair.target))
        triples.append(EvalTriple(source_tokens, output_tokens, reference_tokens))
        copies.append(EvalTriple(source_tokens, source_tokens, reference_tokens))
    constrained = evaluate_corpus(triples)
    copy_baseline = evaluate_corpus(copies)
    ok = (
        constrained.bleu_output_input < copy_baseline.bleu_output_input
        and constrained.ibleu > copy_baseline.ibleu
    )
    report(8, "constrained beats the copy baseline on iBLEU", ok,
           f"BLEU(O,I) {constrained.bleu_output_input:.2f} < {copy_baseline.bleu_output_input:.2f}, "
           f"iBLEU {constrained.ibleu:.2f} > {copy_baseline.ibleu:.2f}")


def test_showcase_two_constraints_both_in_final_output(overfit_run):
    # multi-constraint decode on the showcase sentence: with (center,
    # important) as ordered constraints, the final output must contain both,
    # whether the second pass runs or is skipped as already satisfied
    data, vocab, pairs, kb, freq_table, model, result = overfit_run
    showcase = pairs[0]
    blocks = [[vocab.lookup("center")], [vocab.lookup("important")]]
    decoded = decode_multi(showcase.source, blocks, model, beam_size=5, max_decode_len=OVERFIT_MAX_LEN)
    words = vocab.decode(decoded.tokens)
    assert "center" in words and "important" in words
    assert 1 <= len(decoded.passes) <= 2


# ----------------------------------------------------------- criterion 7


def test_criterion_7_sari_and_fk_oracles():
    sari_triples = [
        ("a b c", "a c", ["a c"]),
        ("the cat sat", "the cat", ["the cat"]),
        ("a b c d", "a b x d", ["a x d", "a b d"]),
        ("one two three four five", "one three five", ["one three five"]),
        ("big words here", "big words here", ["small words here"]),
        ("x y", "y x", ["x y"]),
        ("p q r s", "p q r s", ["p q r s"]),
        ("alpha beta gamma delta epsilon zeta", "alpha beta zeta", ["alpha zeta"]),
        ("m n o", "m n o p", ["m n o p"]),
        ("u v w x y z", "u w y", ["u w y", "u v w"]),
    ]
    sari_ok = True
    worst_gap = 0.0
    for i_text, o_text, refs in sari_triples:
        i, o, rs = i_text.split(), o_text.split(), [r.split() for r in refs]
        gap = abs(sari(i, o, rs) - sari_loops(i, o, rs))
        worst_gap = max(worst_gap, gap)
        sari_ok = sari_ok and gap <= 1e-9

    # hand counts: (tokens, words, sentences, syllables)
    fk_cases = [
        ("the cat sat .", 3, 1, 3),
        ("readability scores require careful syllable counting .", 6, 1, 17),
        ("it is easy . it is fun .", 6, 2, 7),
        ("simple sentences please simple people .", 5, 1, 10),
        ("why ?", 1, 1, 1),
    ]
    fk_ok = True
    for text, words, sentences, syllables in fk_cases:
        got = fk_grade(text.split())
        expected = fk_from_counts(words, sentences, syllables)
        fk_ok = fk_ok and abs(got - expected) <= 1e-9
    report(7, "SARI and FK oracle agreement", sari_ok and fk_ok,
           f"worst SARI gap {worst_gap:.2e}, {len(fk_cases)} FK sentences")
