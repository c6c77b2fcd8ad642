import warnings

import numpy as np
import pytest

from sentsimp import autodiff as ad
from sentsimp.corpus import BOS_ID, EOS_ID, UNK_ID
from sentsimp.decoding import DecodeResult, PassTrace, _search, beam_search, decode_multi
from sentsimp.errors import ConstraintError, ContractError
from sentsimp.model import ModelConfig, Seq2SeqModel, decode_step, encode, init_decoder_state

from oracles import exhaustive_best

CFG = ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3, beam_size=3, max_decode_len=8)


def random_model(seed, cfg=CFG):
    return Seq2SeqModel.create(cfg, seed=seed)


def chain_model(fwd_succ, bwd_succ, vocab_size=9, max_decode_len=8):
    """All-zero model whose decoders deterministically emit successor chains.

    The decoder embedding is the identity and the output projection maps the
    previous token's embedding block to a huge logit on its successor, so
    the distribution is sharply peaked and independent of state/context.
    """
    cfg = ModelConfig(
        vocab_size=vocab_size, embed_dim=vocab_size, hidden_dim=3,
        beam_size=3, max_decode_len=max_decode_len,
    )
    model = Seq2SeqModel.create(cfg, seed=0)
    for _, t in model.named_parameters():
        t.data[...] = 0.0
    for dec, succ in ((model.forward_decoder, fwd_succ), (model.backward_decoder, bwd_succ)):
        dec.embedding.data[...] = np.eye(vocab_size)
        for prev, nxt in succ.items():
            dec.out_w.data[nxt, prev] = 50.0
    return model


def underflow_model(target, seed=4):
    """Random model whose decoders give target a logit about 800 below the
    rest, so its softmax probability underflows to exactly zero."""
    model = random_model(seed)
    for dec in (model.forward_decoder, model.backward_decoder):
        dec.out_b.data[target] = -800.0
    return model


def greedy_rollout(source, prefix, model, boundary, max_new):
    """Independent argmax chain used to pin down beam-1 semantics."""
    annotations, h_mean = encode(source, model.encoder)
    params = model.forward_decoder if boundary == EOS_ID else model.backward_decoder
    state = init_decoder_state(h_mean, params)
    for tok in prefix[:-1]:
        state, _ = decode_step(tok, state, annotations, params)
    prev = prefix[-1]
    out = []
    for _ in range(max_new):
        state, logits = decode_step(prev, state, annotations, params)
        prev = int(np.argmax(logits.data))
        if prev == boundary:
            break
        out.append(prev)
    return out


def stages(trace):
    """(backward tokens right-to-left, realized prefix, forward tokens) of a pass."""
    lo = trace.position - 1
    hi = lo + len(trace.constraint)
    return trace.output[:lo][::-1], trace.output[:hi], trace.output[hi:]


# ---------------------------------------------------------------- beam basics


def test_beam_zero_budget_returns_empty():
    hyp = beam_search(None, ad.zeros((3,)), 4, EOS_ID, beam_size=3, max_new=0)
    assert hyp.tokens == () and hyp.finished and hyp.log_prob == 0.0


def test_beam_rejects_bad_size():
    with pytest.raises(ContractError):
        beam_search(None, ad.zeros((3,)), 4, EOS_ID, beam_size=0, max_new=3)


def test_beam_one_equals_greedy_forward_and_backward():
    model = random_model(21)
    source = [4, 5, 6, 7]
    backward, prefix, forward = stages(decode_multi(source, [[5]], model, beam_size=1).passes[0])
    assert list(backward) == greedy_rollout(source, [5], model, BOS_ID, CFG.max_decode_len - 1)
    max_new = CFG.max_decode_len - len(prefix)
    assert list(forward) == greedy_rollout(source, [BOS_ID, *prefix], model, EOS_ID, max_new)


def test_hypothesis_log_probs_are_cumulative_and_nonincreasing():
    model = random_model(3)
    source = [4, 8, 6]
    trace = decode_multi(source, [[4]], model, beam_size=3).passes[0]
    backward, prefix, forward = stages(trace)
    annotations, h_mean = encode(source, model.encoder)
    for params, given, generated, boundary, log_prob in (
        (model.backward_decoder, [4], backward, BOS_ID, trace.backward_log_prob),
        (model.forward_decoder, [BOS_ID, *prefix], forward, EOS_ID, trace.forward_log_prob),
    ):
        state = init_decoder_state(h_mean, params)
        for tok in given[:-1]:
            state, _ = decode_step(tok, state, annotations, params)
        prev = given[-1]
        running = 0.0
        partials = []
        for tok in [*generated, boundary]:
            state, logits = decode_step(prev, state, annotations, params)
            running += float(np.log(ad.softmax(logits).data[tok]))
            partials.append(running)
            prev = tok
        assert partials[-1] == pytest.approx(log_prob, abs=1e-10)
        assert all(b <= a + 1e-12 for a, b in zip(partials, partials[1:]))


def test_beam_wider_never_scores_worse():
    for seed in range(8):
        model = random_model(seed)
        encoded = encode([4, 5, 6], model.encoder)
        for params, given, boundary in (
            (model.backward_decoder, (7,), BOS_ID),
            (model.forward_decoder, (BOS_ID, 7), EOS_ID),
        ):
            max_new = CFG.max_decode_len - 1
            narrow = _search(encoded, params, given, boundary, max_new, 1, 0.0)
            wide = _search(encoded, params, given, boundary, max_new, 4, 0.0)
            assert wide.log_prob >= narrow.log_prob - 1e-12


def test_decode_determinism():
    model = random_model(12)
    source = [5, 6, 7, 8]
    a = decode_multi(source, [[4], [8]], model)
    b = decode_multi(source, [[4], [8]], model)
    assert a == b


# ---------------------------------------------------------------- exhaustive oracle


def _oracle_setup(model, params, source, seed_tokens):
    annotations, h_mean = encode(source, model.encoder)
    state = init_decoder_state(h_mean, params)
    for tok in seed_tokens[:-1]:
        state, _ = decode_step(tok, state, annotations, params)

    def step_fn(prev, st):
        new_state, logits = decode_step(prev, st, annotations, params)
        return new_state, ad.softmax(logits).data

    return step_fn, state, seed_tokens[-1]


@pytest.mark.parametrize("seed", range(5))
def test_beam_matches_exhaustive_search_tiny_vocab(seed):
    cfg = ModelConfig(vocab_size=5, embed_dim=2, hidden_dim=2, beam_size=100, max_decode_len=4)
    model = Seq2SeqModel.create(cfg, seed=seed)
    source = [4, 4]
    constraint = [4]
    max_new = cfg.max_decode_len - 1  # 3 generated tokens after the 1-token block

    encoded = encode(source, model.encoder)
    bwd = _search(encoded, model.backward_decoder, tuple(constraint), BOS_ID, max_new, 100, 0.0)
    step_fn, state, seed_tok = _oracle_setup(model, model.backward_decoder, source, [4])
    content = [i for i in range(5) if i != BOS_ID]
    score, tokens = exhaustive_best(step_fn, state, seed_tok, BOS_ID, content, max_new)
    assert bwd.tokens == tokens
    assert bwd.log_prob == pytest.approx(score, abs=1e-10)

    fwd = _search(encoded, model.forward_decoder, (BOS_ID, 4), EOS_ID, max_new, 100, 0.0)
    step_fn, state, seed_tok = _oracle_setup(model, model.forward_decoder, source, [BOS_ID, 4])
    content = [i for i in range(5) if i != EOS_ID]
    score, tokens = exhaustive_best(step_fn, state, seed_tok, EOS_ID, content, max_new)
    assert fwd.tokens == tokens
    assert fwd.log_prob == pytest.approx(score, abs=1e-10)


# ---------------------------------------------------------------- backward/forward


def test_backward_immediate_boundary_gives_empty_prefix():
    # backward successor of the constraint is BOS itself
    model = chain_model(fwd_succ={5: EOS_ID}, bwd_succ={5: BOS_ID})
    result = decode_multi([4, 5], [[5]], model)
    assert result.passes[0].position == 1
    assert result.tokens == (5,)
    assert result.outcomes[0].final_position == 1


def test_backward_rejects_oov_or_reserved_constraints():
    model = random_model(1)
    with pytest.raises(ConstraintError):
        decode_multi([4, 5], [[UNK_ID]], model)
    with pytest.raises(ConstraintError):
        decode_multi([4, 5], [[99]], model)
    with pytest.raises(ContractError):
        decode_multi([4, 5], [[]], model)


def test_forward_prefix_at_cap_generates_nothing():
    model = random_model(2)
    block = (4,) * CFG.max_decode_len
    result = decode_multi([4, 5], [block], model)
    assert result.tokens == block
    assert result.passes[0].backward_log_prob == result.passes[0].forward_log_prob == 0.0


def test_multitoken_block_teacher_forced_as_unit():
    # block (5, 6): backward from 5 reaches BOS via 4; forward continues 6 -> 7 -> EOS
    model = chain_model(
        fwd_succ={6: 7, 7: EOS_ID},
        bwd_succ={6: 5, 5: 4, 4: BOS_ID},  # reverse-block feed: 6 then 5, then generate
    )
    result = decode_multi([4, 5, 6, 7], [[5, 6]], model)
    assert result.tokens == (4, 5, 6, 7)
    assert result.outcomes[0].final_position == 2
    assert result.passes[0].position == 2


def test_position_bookkeeping_matches_backward_length():
    model = chain_model(
        fwd_succ={5: EOS_ID},
        bwd_succ={5: 8, 8: 7, 7: BOS_ID},
    )
    result = decode_multi([4], [[5]], model)
    trace = result.passes[0]
    backward_len = len(trace.output) - trace.position  # tokens before block? no: after
    assert result.tokens == (7, 8, 5)
    assert trace.position == 3  # |y_b| = 2, so the block starts at position 3


# ---------------------------------------------------------------- constrained/multi


def test_constraint_containment_over_random_models():
    hits = 0
    for seed in range(12):
        model = random_model(seed + 100)
        source = [4 + (seed % 4), 5, 6]
        block = [4 + ((seed + 1) % 5)]
        result = decode_multi(source, [block], model)
        pos = result.outcomes[0].final_position
        assert pos is not None
        assert result.tokens[pos - 1 : pos - 1 + len(block)] == tuple(block)
        hits += 1
    assert hits == 12


def test_multi_with_single_constraint_reduces_to_constrained():
    model = random_model(7)
    source = [4, 5, 6, 7]
    multi = decode_multi(source, [[8]], model)
    # one pass is the backward stage, the block, then the forward stage
    encoded = encode(source, model.encoder)
    max_len = CFG.max_decode_len
    back = _search(encoded, model.backward_decoder, (8,), BOS_ID, max_len - 1, CFG.beam_size, 0.0)
    prefix = back.tokens[::-1] + (8,)
    fwd = _search(
        encoded, model.forward_decoder, (BOS_ID, *prefix), EOS_ID, max_len - len(prefix), CFG.beam_size, 0.0
    )
    assert multi.tokens == prefix + fwd.tokens
    assert multi.passes == (PassTrace((8,), multi.tokens, len(back.tokens) + 1, back.log_prob, fwd.log_prob),)


def test_multi_skips_constraint_already_emitted():
    # pass 1 on block [5] already produces the 6 needed by constraint 2
    model = chain_model(
        fwd_succ={5: 6, 6: EOS_ID},
        bwd_succ={5: BOS_ID, 6: 5},
    )
    result = decode_multi([4, 5, 6], [[5], [6]], model)
    assert len(result.passes) == 1
    first, second = result.outcomes
    assert not first.skipped and first.pass_index == 1
    assert second.skipped and second.pass_index is None
    assert second.final_position is not None  # present in the final output anyway
    assert result.tokens == (5, 6)


def test_multi_two_passes_rewrites_with_second_constraint():
    # pass 1 output (5, 6); pass 2 must contain 7: backward 7->6->5->BOS, forward 7->EOS
    model = chain_model(
        fwd_succ={5: 6, 6: EOS_ID, 7: EOS_ID},
        bwd_succ={5: BOS_ID, 7: 6, 6: 5},
    )
    result = decode_multi([4, 5], [[5], [7]], model)
    assert len(result.passes) == 2
    assert result.passes[0].output == (5, 6)
    assert result.passes[1].output == (5, 6, 7)
    assert result.tokens == (5, 6, 7)
    # each pass contains its own constraint at the recorded position
    for trace in result.passes:
        lo = trace.position - 1
        assert trace.output[lo : lo + len(trace.constraint)] == trace.constraint


def test_multi_without_constraints_is_plain_beam_decode():
    model = chain_model(fwd_succ={BOS_ID: 6, 6: 7, 7: EOS_ID}, bwd_succ={})
    result = decode_multi([4, 5], [], model)
    encoded = encode([4, 5], model.encoder)
    cfg = model.config
    plain = _search(encoded, model.forward_decoder, (BOS_ID,), EOS_ID, cfg.max_decode_len, cfg.beam_size, 0.0)
    assert result.tokens == plain.tokens == (6, 7)
    assert result.passes == ()


def test_multi_respects_max_passes_cap():
    model = chain_model(
        fwd_succ={5: EOS_ID, 6: EOS_ID, 7: EOS_ID},
        bwd_succ={5: BOS_ID, 6: BOS_ID, 7: BOS_ID},
    )
    result = decode_multi([4], [[5], [6], [7]], model, max_passes=2)
    assert len(result.passes) == 2
    assert result.outcomes[2].skipped


def test_decode_result_records_passes_in_order():
    model = chain_model(
        fwd_succ={5: EOS_ID, 6: EOS_ID},
        bwd_succ={5: BOS_ID, 6: BOS_ID},
    )
    result = decode_multi([4], [[5], [6]], model)
    assert isinstance(result, DecodeResult)
    assert [t.constraint for t in result.passes] == [(5,), (6,)]
    assert result.tokens == result.passes[-1].output


def test_decode_has_no_warning_when_a_probability_underflows():
    model = underflow_model(target=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = decode_multi([4, 5, 6], [[5], [7]], model)
    assert 6 not in result.tokens
    assert all(np.isfinite([t.backward_log_prob, t.forward_log_prob]).all() for t in result.passes)
