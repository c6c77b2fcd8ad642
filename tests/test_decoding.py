import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp import autodiff as ad
from sentsimp.corpus import BOS_ID, EOS_ID, UNK_ID
from sentsimp.decoding import DecodeResult, Hypothesis, PassTrace, _expand, _search, beam_search, decode_multi
from sentsimp.errors import ConstraintError, ContractError, NumericError
from sentsimp.model import ModelConfig, Seq2SeqModel, encode, init_decoder_state

from oracles import (
    beam_search_nested_greedy,
    beam_search_per_hypothesis,
    decode_step_per_step,
    decode_step_with_logits,
    exhaustive_best,
    expand_and_rank,
    search_by_decode_step,
    softmax,
)

CFG = ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3)
MAX_LEN = 8  # the decode cap of every decode_multi call here
BEAM = 3


def random_model(seed, cfg=CFG):
    return Seq2SeqModel.create(cfg, seed=seed)


def chain_model(fwd_succ, bwd_succ, vocab_size=9):
    """All-zero model whose decoders deterministically emit successor chains.

    The decoder embedding is the identity and the output projection maps the
    previous token's embedding block to a huge logit on its successor, so
    the distribution is sharply peaked and independent of state/context.
    """
    model = Seq2SeqModel.create(ModelConfig(vocab_size=vocab_size, embed_dim=vocab_size, hidden_dim=3), seed=0)
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
    annotations, h_mean = encode([source], model.encoder)
    params = model.forward_decoder if boundary == EOS_ID else model.backward_decoder
    keys = ad.affine(annotations, params.att_u, params.att_b)
    state = init_decoder_state(h_mean, params)
    for tok in prefix[:-1]:
        _, state, _ = decode_step_per_step([tok], state, annotations, keys, params)
    prev = prefix[-1]
    out = []
    for _ in range(max_new):
        state, logits = decode_step_with_logits([prev], state, annotations, keys, params)
        prev = int(np.argmax(logits.data[0]))
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
    hyp = beam_search(None, np.zeros(3), 4, EOS_ID, beam_size=3, max_new=0)
    assert hyp.tokens == () and hyp.stop == "length_cap" and hyp.log_prob == 0.0


def test_beam_rejects_bad_size():
    with pytest.raises(ContractError):
        beam_search(None, np.zeros(3), 4, EOS_ID, beam_size=0, max_new=3)


def test_decode_multi_rejects_beam_zero():
    model = random_model(1)
    for blocks in ([], [[5]]):
        with pytest.raises(ContractError):
            decode_multi([4, 5], blocks, model, beam_size=0, max_decode_len=MAX_LEN)


def test_decode_multi_rejects_a_cap_below_two():
    model = random_model(1)
    for blocks in ([], [[5]]):
        with pytest.raises(ContractError, match="max_decode_len"):
            decode_multi([4, 5], blocks, model, beam_size=BEAM, max_decode_len=1)


@pytest.mark.parametrize("cap", [2, 5, 11])
def test_decode_multi_stops_every_stage_at_its_cap(cap):
    """The cap is decode_multi's own: a constrained pass and a plain decode
    of one model both run out of budget at exactly the cap."""
    model = chain_model(fwd_succ={BOS_ID: 6, 5: 6, 6: 7, 7: 6}, bwd_succ={5: BOS_ID})
    trace = decode_multi([4, 5], [[5]], model, beam_size=BEAM, max_decode_len=cap).passes[0]
    assert len(trace.output) == cap and trace.forward_stop == "length_cap"
    assert len(decode_multi([4, 5], [], model, beam_size=BEAM, max_decode_len=cap).tokens) == cap


def test_beam_one_equals_greedy_forward_and_backward():
    model = random_model(21)
    source = [4, 5, 6, 7]
    result = decode_multi(source, [[5]], model, beam_size=1, max_decode_len=MAX_LEN)
    backward, prefix, forward = stages(result.passes[0])
    assert list(backward) == greedy_rollout(source, [5], model, BOS_ID, MAX_LEN - 1)
    max_new = MAX_LEN - len(prefix)
    assert list(forward) == greedy_rollout(source, [BOS_ID, *prefix], model, EOS_ID, max_new)


def test_hypothesis_log_probs_are_cumulative_and_nonincreasing():
    model = random_model(3)
    source = [4, 8, 6]
    trace = decode_multi(source, [[4]], model, beam_size=3, max_decode_len=MAX_LEN).passes[0]
    backward, prefix, forward = stages(trace)
    annotations, h_mean = encode([source], model.encoder)
    for params, given, generated, boundary, log_prob in (
        (model.backward_decoder, [4], backward, BOS_ID, trace.backward_log_prob),
        (model.forward_decoder, [BOS_ID, *prefix], forward, EOS_ID, trace.forward_log_prob),
    ):
        keys = ad.affine(annotations, params.att_u, params.att_b)
        state = init_decoder_state(h_mean, params)
        for tok in given[:-1]:
            _, state, _ = decode_step_per_step([tok], state, annotations, keys, params)
        prev = given[-1]
        running = 0.0
        partials = []
        for tok in [*generated, boundary]:
            state, logits = decode_step_with_logits([prev], state, annotations, keys, params)
            running += float(np.log(softmax(logits).data[0, tok]))
            partials.append(running)
            prev = tok
        assert partials[-1] == pytest.approx(log_prob, abs=1e-10)
        assert all(b <= a + 1e-12 for a, b in zip(partials, partials[1:]))


def test_beam_wider_never_scores_worse():
    for seed in range(8):
        model = random_model(seed)
        encoded = encode([[4, 5, 6]], model.encoder)
        for params, given, boundary in (
            (model.backward_decoder, (7,), BOS_ID),
            (model.forward_decoder, (BOS_ID, 7), EOS_ID),
        ):
            max_new = MAX_LEN - 1
            narrow = _search(encoded, params, given, boundary, max_new, 1)
            wide = _search(encoded, params, given, boundary, max_new, 4)
            assert wide.log_prob >= narrow.log_prob - 1e-12


def test_decode_determinism():
    model = random_model(12)
    source = [5, 6, 7, 8]
    a = decode_multi(source, [[4], [8]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    b = decode_multi(source, [[4], [8]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert a == b


# ---------------------------------------------------------------- exhaustive oracle


def _oracle_setup(model, params, source, seed_tokens):
    annotations, h_mean = encode([source], model.encoder)
    keys = ad.affine(annotations, params.att_u, params.att_b)
    state = init_decoder_state(h_mean, params)
    for tok in seed_tokens[:-1]:
        _, state, _ = decode_step_per_step([tok], state, annotations, keys, params)

    def step_fn(prev, st):
        new_state, logits = decode_step_with_logits([prev], st, annotations, keys, params)
        return new_state, softmax(logits).data[0]

    return step_fn, state, seed_tokens[-1]


@pytest.mark.parametrize("seed", range(5))
def test_beam_matches_exhaustive_search_tiny_vocab(seed):
    cfg = ModelConfig(vocab_size=5, embed_dim=2, hidden_dim=2)
    model = Seq2SeqModel.create(cfg, seed=seed)
    source = [4, 4]
    constraint = [4]
    max_new = 4 - 1  # cap 4: 3 generated tokens after the 1-token block

    encoded = encode([source], model.encoder)
    bwd = _search(encoded, model.backward_decoder, tuple(constraint), BOS_ID, max_new, 100)
    step_fn, state, seed_tok = _oracle_setup(model, model.backward_decoder, source, [4])
    content = [i for i in range(5) if i != BOS_ID]
    score, tokens = exhaustive_best(step_fn, state, seed_tok, BOS_ID, content, max_new)
    assert bwd.tokens == tokens
    assert bwd.log_prob == pytest.approx(score, abs=1e-10)

    fwd = _search(encoded, model.forward_decoder, (BOS_ID, 4), EOS_ID, max_new, 100)
    step_fn, state, seed_tok = _oracle_setup(model, model.forward_decoder, source, [BOS_ID, 4])
    content = [i for i in range(5) if i != EOS_ID]
    score, tokens = exhaustive_best(step_fn, state, seed_tok, EOS_ID, content, max_new)
    assert fwd.tokens == tokens
    assert fwd.log_prob == pytest.approx(score, abs=1e-10)


# ---------------------------------------------------------------- batched beam vs per-hypothesis oracle


def _one_row_stepper(model, params, source, given):
    """(step_fn over one hypothesis, initial state) for a stage, as the
    per-hypothesis oracle steps it: one-row per-step decoder updates."""
    annotations, h_mean = encode([source], model.encoder)
    keys = ad.affine(annotations, params.att_u, params.att_b)
    state = init_decoder_state(h_mean, params)
    for tok in given[:-1]:
        _, state, _ = decode_step_per_step([tok], state, annotations, keys, params)

    def step_fn(prev, st):
        new_state, logits = decode_step_with_logits([prev], st, annotations, keys, params)
        return new_state, ad.log_softmax(logits.data)[0].tolist()

    return step_fn, state


@pytest.mark.parametrize("seed", range(8))
def test_batched_beam_matches_per_hypothesis_oracle(seed):
    cfg = ModelConfig(vocab_size=12, embed_dim=3, hidden_dim=4)
    max_len = 7
    model = Seq2SeqModel.create(cfg, seed=seed)
    source = [4 + (seed + i) % 8 for i in range(3 + seed % 3)]
    encoded = encode([source], model.encoder)
    searches = (
        (model.backward_decoder, (4 + seed % 8,), BOS_ID),
        (model.forward_decoder, (BOS_ID, 5, 4 + seed % 8), EOS_ID),
    )
    for params, given, boundary in searches:
        step_fn, state = _one_row_stepper(model, params, source, given)
        max_new = max_len - len(given) + 1
        for beam in range(1, 7):
            got = _search(encoded, params, given, boundary, max_new, beam)
            tokens, log_prob = beam_search_per_hypothesis(step_fn, state, given[-1], boundary, beam, max_new)
            assert got.tokens == tokens, (beam, boundary)
            assert got.log_prob == pytest.approx(log_prob, abs=1e-12)


def _batched_stepper(model, params, source, given):
    """(step_fn over stacked hypotheses, initial state) for a stage, as
    `_search` builds them, on plain arrays."""
    annotations, h_mean = encode([source], model.encoder)
    keys = ad.affine(annotations, params.att_u, params.att_b)
    state = init_decoder_state(h_mean, params)
    for tok in given[:-1]:
        _, state, _ = decode_step_per_step([tok], state, annotations, keys, params)

    def step_fn(prev_tokens, states):
        new_states, logits = decode_step_with_logits(prev_tokens, ad.Tensor(states), annotations, keys, params)
        return new_states.data, ad.log_softmax(logits.data)

    return step_fn, state.data[0]


@pytest.mark.parametrize("seed", range(8))
def test_folded_greedy_matches_nested_greedy_oracle(seed):
    cfg = ModelConfig(vocab_size=12, embed_dim=3, hidden_dim=4)
    max_len = 9
    model = Seq2SeqModel.create(cfg, seed=seed)
    source = [4 + (seed + i) % 8 for i in range(3 + seed % 3)]
    searches = (
        (model.backward_decoder, (4 + seed % 8,), BOS_ID),
        (model.forward_decoder, (BOS_ID, 5, 4 + seed % 8), EOS_ID),
    )
    for params, given, boundary in searches:
        step_fn, state = _batched_stepper(model, params, source, given)
        max_new = max_len - len(given) + 1
        for beam in range(1, 7):
            args = (step_fn, state, given[-1], boundary, beam, max_new)
            got, want = beam_search(*args), beam_search_nested_greedy(*args)
            assert (got.tokens, got.stop) == (want.tokens, want.stop), (beam, boundary)
            assert got.log_prob == pytest.approx(want.log_prob, abs=1e-12)


def table_stepper(dist, vocab_size, widths):
    """A step function over a hand-written table: a row's next-token
    probabilities are dist(depth, prev), a {token: probability} dict, where
    depth is its number of generated tokens, carried as its one-column
    state; every token the dict leaves out gets 1e-6. Records each call's
    row count in widths."""

    def step_fn(prev_tokens, states):
        widths.append(len(prev_tokens))
        rows = []
        for depth, prev in zip(states[:, 0].astype(int), prev_tokens):
            probs = np.full(vocab_size, 1e-6)
            for tok, p in dist(depth, prev).items():
                probs[tok] = p
            rows.append(np.log(probs / probs.sum()))
        return states + 1.0, np.array(rows)

    return step_fn


def test_greedy_row_below_the_best_finished_is_dropped_with_the_beam():
    # the greedy chain 1, 1, 1, ... never ends, but at step 2 the beam's
    # runner-up 2 emits the boundary 0 and beats it and every beam row
    def dist(depth, prev):
        if depth == 0:
            return {1: 0.40, 2: 0.35, 3: 0.25}
        return {0: 0.90, 3: 0.05, 4: 0.05} if prev == 2 else {1: 0.34, 3: 0.33, 4: 0.33}

    widths = []
    args = (table_stepper(dist, 6, widths), np.zeros(1), 5, 0, 2, 5)
    got = beam_search(*args)
    assert widths == [2, 3]
    want = beam_search_nested_greedy(table_stepper(dist, 6, []), *args[1:])
    assert (got.tokens, got.stop) == (want.tokens, want.stop) == ((2,), "boundary")
    assert got.log_prob == want.log_prob


@pytest.mark.parametrize(
    "last, max_new, tokens, stop",
    [({0: 0.99}, 5, (1, 1, 1), "boundary"), ({1: 0.99}, 4, (1, 1, 1, 1), "length_cap")],
)
def test_greedy_row_outlives_every_beam_row_and_wins(last, max_new, tokens, stop):
    # at step 2 the beam prunes the greedy prefix 1, 1 for 2, 3 and 2, 4;
    # at step 3 those emit the boundary 0, which beats every live beam row
    # but not the greedy chain, which runs on alone until it emits the
    # boundary or reaches the length cap
    def dist(depth, prev):
        if depth == 0:
            return {1: 0.40, 2: 0.35, 3: 0.25}
        if depth == 1:
            return {3: 0.50, 4: 0.45} if prev == 2 else {1: 0.30, 3: 0.25, 4: 0.25, 5: 0.20}
        if prev != 1:
            return {0: 0.5, **{tok: 0.1 for tok in range(1, 6)}}
        return {1: 0.99} if depth == 2 else last

    widths = []
    args = (table_stepper(dist, 6, widths), np.zeros(1), 5, 0, 2, max_new)
    got = beam_search(*args)
    assert widths == [2, 3, 3, 1]
    want = beam_search_nested_greedy(table_stepper(dist, 6, []), *args[1:])
    assert (got.tokens, got.stop) == (want.tokens, want.stop) == (tokens, stop)
    assert got.log_prob == want.log_prob


def test_beam_steps_every_live_hypothesis_in_one_call():
    model = random_model(5)
    annotations, h_mean = encode([[4, 5, 6]], model.encoder)
    params = model.forward_decoder
    keys = ad.affine(annotations, params.att_u, params.att_b)
    widths = []

    def step(prev_tokens, states):
        assert isinstance(states, np.ndarray) and states.shape == (len(prev_tokens), CFG.hidden_dim)
        widths.append(len(prev_tokens))
        new_states, logits = decode_step_with_logits(prev_tokens, ad.Tensor(states), annotations, keys, params)
        return new_states.data, ad.log_softmax(logits.data)

    beam_search(step, init_decoder_state(h_mean, params).data[0], BOS_ID, EOS_ID, beam_size=4, max_new=5)
    # at most max_new = 5 iterations, one call each; a call steps the live
    # beam rows plus the greedy row while that is live
    assert len(widths) <= 5 and max(widths) == 4 + 1


def test_decode_multi_computes_logits_once_per_beam_iteration(monkeypatch):
    """Each `_search` prepares one decoder stage for its beam, and each
    beam iteration is one `beam_step`: one output-layer product and one
    log-softmax. The teacher-forced steps are one `decode_step` per stage
    with tokens to force, and no logits."""
    import sentsimp.autodiff as autodiff
    import sentsimp.decoding as decoding
    import sentsimp.model as model

    calls = dict.fromkeys(("_search", "decoder_stage", "beam_step", "decode_step", "output_logits",
                           "log_softmax", "beam_iteration"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_beam_search = decoding.beam_search

    def beam_search_counting_steps(step_fn, *args, **kwargs):
        return real_beam_search(counted("beam_iteration", step_fn), *args, **kwargs)

    for name in ("_search", "decoder_stage", "beam_step", "decode_step"):
        monkeypatch.setattr(decoding, name, counted(name, getattr(decoding, name)))
    monkeypatch.setattr(model, "output_logits", counted("output_logits", model.output_logits))
    monkeypatch.setattr(autodiff, "log_softmax", counted("log_softmax", autodiff.log_softmax))
    monkeypatch.setattr(decoding, "beam_search", beam_search_counting_steps)
    result = decode_multi([4, 5, 6, 7], [[5, 6], [8]], random_model(8), beam_size=BEAM, max_decode_len=MAX_LEN)
    assert len(result.passes) == 2
    assert calls["_search"] == calls["decoder_stage"] == 2 * len(result.passes)
    assert calls["beam_step"] == calls["log_softmax"] == calls["beam_iteration"] > 0
    assert calls["output_logits"] == 0
    # one teacher-forced call per stage with tokens to force: the backward
    # stage's block but its last token (none for a one-token block), the
    # forward stage's BOS and realized prefix but its last token
    assert calls["decode_step"] == sum((len(t.constraint) > 1) + 1 for t in result.passes)


@pytest.mark.parametrize("seed", range(8))
def test_search_equals_decode_step_oracle(seed):
    """`_search`, whose beam steps a prepared stage on plain arrays, against
    the earlier design's search, whose beam step is one `decode_step`, then
    `output_logits` and `log_softmax`: equal tokens, stop and log-prob, at
    beams 1 to 6, for both decoders, with and without a teacher-forced
    prefix."""
    cfg = ModelConfig(vocab_size=12, embed_dim=3, hidden_dim=4)
    model = Seq2SeqModel.create(cfg, seed=seed)
    source = [4 + (seed + i) % 8 for i in range(3 + seed % 3)]
    encoded = encode([source], model.encoder)
    token = 4 + seed % 8
    searches = (
        (model.backward_decoder, (token,), BOS_ID),
        (model.backward_decoder, (5, token), BOS_ID),
        (model.forward_decoder, (BOS_ID,), EOS_ID),
        (model.forward_decoder, (BOS_ID, 5, token), EOS_ID),
    )
    for params, given, boundary in searches:
        for beam in range(1, 7):
            got = _search(encoded, params, given, boundary, 7, beam)
            want = search_by_decode_step(encoded, params, given, boundary, 7, beam)
            assert (got.tokens, got.stop, got.log_prob) == (want.tokens, want.stop, want.log_prob)
            assert np.array_equal(got.state, want.state)


_QUARTERS = st.integers(-12, 0).map(lambda k: k / 4)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_expand_ranks_ties_as_the_hypothesis_sort_oracle(data):
    """Log-prob tables and scores in quarters, so that many continuations
    tie: `_expand`'s tuple order keeps the survivors, their order and the
    finished list of the earlier design's sort of `Hypothesis` objects."""
    rows = data.draw(st.integers(1, 6), label="rows")
    vocab = data.draw(st.integers(1, 8), label="vocab")
    width = data.draw(st.integers(1, min(7, vocab)), label="width")
    keep = data.draw(st.integers(1, 6), label="keep")
    boundary = data.draw(st.integers(0, vocab - 1), label="boundary")
    token_lists = st.lists(st.integers(0, 9), max_size=3).map(tuple)
    tokens = data.draw(st.lists(token_lists, min_size=rows, max_size=rows, unique=True), label="tokens")
    scores = data.draw(st.lists(_QUARTERS, min_size=rows, max_size=rows), label="scores")
    table = data.draw(st.lists(st.lists(_QUARTERS, min_size=vocab, max_size=vocab), min_size=rows, max_size=rows))
    hyps = [Hypothesis(t, score, None) for t, score in zip(tokens, scores)]
    states = np.arange(rows, dtype=float)[:, None]  # a state names its row
    log_probs = np.array(table)
    got_finished, want_finished = [], []
    got = _expand(hyps, states, log_probs, width, keep, boundary, got_finished)
    want = expand_and_rank(hyps, states, log_probs, width, keep, boundary, want_finished)

    def fields(found):
        return [(h.tokens, h.log_prob, h.stop, float(h.state[0])) for h in found]

    assert fields(got) == fields(want)
    assert fields(got_finished) == fields(want_finished)


def test_beam_search_raises_on_nonfinite_log_probs():
    model = random_model(6)
    model.forward_decoder.out_b.data[3] = np.nan
    with pytest.raises(NumericError):
        decode_multi([4, 5], [[6]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    model = random_model(6)
    model.backward_decoder.out_b.data[7] = np.nan
    with pytest.raises(NumericError):
        decode_multi([4, 5], [[6]], model, beam_size=BEAM, max_decode_len=MAX_LEN)


def test_stop_records_boundary_and_length_cap():
    # backward 5 -> BOS reaches the boundary; forward 5 -> 6 -> 7 -> 6 -> ...
    # cycles until its token budget is spent
    model = chain_model(fwd_succ={5: 6, 6: 7, 7: 6}, bwd_succ={5: BOS_ID})
    trace = decode_multi([4, 5], [[5]], model, beam_size=BEAM, max_decode_len=MAX_LEN).passes[0]
    assert (trace.backward_stop, trace.forward_stop) == ("boundary", "length_cap")
    assert trace.output == (5, 6, 7, 6, 7, 6, 7, 6)
    assert len(trace.output) == MAX_LEN


def test_stop_of_search_with_zero_budget_and_immediate_boundary():
    model = chain_model(fwd_succ={5: EOS_ID}, bwd_succ={5: BOS_ID})
    trace = decode_multi([4, 5], [[5]], model, beam_size=BEAM, max_decode_len=MAX_LEN).passes[0]
    assert (trace.backward_stop, trace.forward_stop) == ("boundary", "boundary")
    trace = decode_multi([4, 5], [(5,) * MAX_LEN], model, beam_size=BEAM, max_decode_len=MAX_LEN).passes[0]
    assert (trace.backward_stop, trace.forward_stop) == ("length_cap", "length_cap")


# ---------------------------------------------------------------- backward/forward


def test_backward_immediate_boundary_gives_empty_prefix():
    # backward successor of the constraint is BOS itself
    model = chain_model(fwd_succ={5: EOS_ID}, bwd_succ={5: BOS_ID})
    result = decode_multi([4, 5], [[5]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert result.passes[0].position == 1
    assert result.tokens == (5,)
    assert result.outcomes[0].final_position == 1


def test_backward_rejects_oov_or_reserved_constraints():
    model = random_model(1)
    with pytest.raises(ConstraintError):
        decode_multi([4, 5], [[UNK_ID]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    with pytest.raises(ConstraintError):
        decode_multi([4, 5], [[99]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    with pytest.raises(ContractError):
        decode_multi([4, 5], [[]], model, beam_size=BEAM, max_decode_len=MAX_LEN)


def test_forward_prefix_at_cap_generates_nothing():
    model = random_model(2)
    block = (4,) * MAX_LEN
    result = decode_multi([4, 5], [block], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert result.tokens == block
    assert result.passes[0].backward_log_prob == result.passes[0].forward_log_prob == 0.0


def test_multitoken_block_teacher_forced_as_unit():
    # block (5, 6): backward from 5 reaches BOS via 4; forward continues 6 -> 7 -> EOS
    model = chain_model(
        fwd_succ={6: 7, 7: EOS_ID},
        bwd_succ={6: 5, 5: 4, 4: BOS_ID},  # reverse-block feed: 6 then 5, then generate
    )
    result = decode_multi([4, 5, 6, 7], [[5, 6]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert result.tokens == (4, 5, 6, 7)
    assert result.outcomes[0].final_position == 2
    assert result.passes[0].position == 2


def test_position_bookkeeping_matches_backward_length():
    model = chain_model(
        fwd_succ={5: EOS_ID},
        bwd_succ={5: 8, 8: 7, 7: BOS_ID},
    )
    result = decode_multi([4], [[5]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
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
        result = decode_multi(source, [block], model, beam_size=BEAM, max_decode_len=MAX_LEN)
        pos = result.outcomes[0].final_position
        assert pos is not None
        assert result.tokens[pos - 1 : pos - 1 + len(block)] == tuple(block)
        hits += 1
    assert hits == 12


def test_multi_with_single_constraint_reduces_to_constrained():
    model = random_model(7)
    source = [4, 5, 6, 7]
    multi = decode_multi(source, [[8]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    # one pass is the backward stage, the block, then the forward stage
    encoded = encode([source], model.encoder)
    back = _search(encoded, model.backward_decoder, (8,), BOS_ID, MAX_LEN - 1, BEAM)
    prefix = back.tokens[::-1] + (8,)
    fwd = _search(encoded, model.forward_decoder, (BOS_ID, *prefix), EOS_ID, MAX_LEN - len(prefix), BEAM)
    assert multi.tokens == prefix + fwd.tokens
    assert multi.passes == (
        PassTrace((8,), multi.tokens, len(back.tokens) + 1, back.log_prob, fwd.log_prob, back.stop, fwd.stop),
    )


def test_multi_skips_constraint_already_emitted():
    # pass 1 on block [5] already produces the 6 needed by constraint 2
    model = chain_model(
        fwd_succ={5: 6, 6: EOS_ID},
        bwd_succ={5: BOS_ID, 6: 5},
    )
    result = decode_multi([4, 5, 6], [[5], [6]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert len(result.passes) == 1
    first, second = result.outcomes
    assert not first.skipped and first.pass_index == 1
    assert second.skipped and second.pass_index is None
    assert second.final_position is not None  # present in the final output anyway
    assert result.tokens == (5, 6)


def test_multi_checks_a_block_before_skipping_it():
    # pass 1 outputs (5, UNK): an empty block or a reserved id would be "found" in it
    model = chain_model(fwd_succ={5: UNK_ID, UNK_ID: EOS_ID}, bwd_succ={5: BOS_ID})
    assert decode_multi([4, 5], [[5]], model, beam_size=BEAM, max_decode_len=MAX_LEN).tokens == (5, UNK_ID)
    with pytest.raises(ContractError):
        decode_multi([4, 5], [[5], []], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    with pytest.raises(ConstraintError, match="reserved"):
        decode_multi([4, 5], [[5], [UNK_ID]], model, beam_size=BEAM, max_decode_len=MAX_LEN)


def test_multi_two_passes_rewrites_with_second_constraint():
    # pass 1 output (5, 6); pass 2 must contain 7: backward 7->6->5->BOS, forward 7->EOS
    model = chain_model(
        fwd_succ={5: 6, 6: EOS_ID, 7: EOS_ID},
        bwd_succ={5: BOS_ID, 7: 6, 6: 5},
    )
    result = decode_multi([4, 5], [[5], [7]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
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
    result = decode_multi([4, 5], [], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    encoded = encode([[4, 5]], model.encoder)
    plain = _search(encoded, model.forward_decoder, (BOS_ID,), EOS_ID, MAX_LEN, BEAM)
    assert result.tokens == plain.tokens == (6, 7)
    assert result.passes == ()


def test_decode_result_records_passes_in_order():
    model = chain_model(
        fwd_succ={5: EOS_ID, 6: EOS_ID},
        bwd_succ={5: BOS_ID, 6: BOS_ID},
    )
    result = decode_multi([4], [[5], [6]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert isinstance(result, DecodeResult)
    assert [t.constraint for t in result.passes] == [(5,), (6,)]
    assert result.tokens == result.passes[-1].output


def test_decode_has_no_warning_when_a_probability_underflows():
    model = underflow_model(target=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = decode_multi([4, 5, 6], [[5], [7]], model, beam_size=BEAM, max_decode_len=MAX_LEN)
    assert 6 not in result.tokens
    assert all(np.isfinite([t.backward_log_prob, t.forward_log_prob]).all() for t in result.passes)
