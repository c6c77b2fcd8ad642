import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp.autodiff import Tape, Tensor
from sentsimp.corpus import BOS_ID, CorpusSplit, SentencePair, build_vocab
from sentsimp.errors import ContractError, TrainingError
from sentsimp.lexsub import FrequencyTable, KnowledgeBase, ParaphraseRule
from sentsimp.model import ModelConfig, Seq2SeqModel, load_checkpoint, save_checkpoint
from sentsimp.pipeline import PipelineConfig
from sentsimp.training import (
    AdadeltaState,
    adadelta_step,
    clip_gradients,
    loss_token_count,
    select_training_constraint,
    train,
    training_loss,
)

from gradcheck import check_gradients
from resources import draw_biases
from oracles import select_training_constraint_scan

TINY = ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3)


def named_tensor(name, values):
    t = Tensor(values)
    return name, t


# ---------------------------------------------------------------- adadelta


def test_adadelta_zero_gradient_decays_accumulator():
    name, p = named_tensor("w", [1.0, -2.0])
    state = AdadeltaState([(name, p)])
    state.avg_sq_grad[name][...] = 4.0
    p.grad = np.zeros(2)
    adadelta_step([(name, p)], state, rho=0.95, eps=1e-6)
    assert p.data.tolist() == [1.0, -2.0]
    assert np.allclose(state.avg_sq_grad[name], 4.0 * 0.95)


def test_adadelta_first_step_closed_form():
    rho, eps = 0.95, 1e-6
    name, p = named_tensor("w", [1.0, 1.0, 1.0])
    state = AdadeltaState([(name, p)])
    g = np.array([2.0, -0.5, 0.0])
    p.grad = g.copy()
    adadelta_step([(name, p)], state, rho, eps)
    expected_delta = -(math.sqrt(eps) / np.sqrt((1 - rho) * g * g + eps)) * g
    assert np.allclose(p.data, 1.0 + expected_delta, atol=1e-15)
    assert np.allclose(state.avg_sq_update[name], (1 - rho) * expected_delta**2, atol=1e-18)


def test_adadelta_constant_gradient_accumulator_fixed_point():
    rho, eps = 0.9, 1e-6
    name, p = named_tensor("w", [0.0])
    state = AdadeltaState([(name, p)])
    g = np.array([3.0])
    previous = 0.0
    for _ in range(300):
        p.grad = g.copy()
        adadelta_step([(name, p)], state, rho, eps)
        current = float(state.avg_sq_grad[name][0])
        assert current > previous - 1e-15  # monotone growth toward g^2
        previous = current
    # fixed-point iteration oracle: E <- rho*E + (1-rho)*g^2 from zero
    oracle = 0.0
    for _ in range(300):
        oracle = rho * oracle + (1 - rho) * 9.0
    assert previous == pytest.approx(oracle, rel=1e-12)
    assert previous < 9.0


def test_adadelta_rejects_nonfinite_gradient():
    name, p = named_tensor("bad_param", [1.0])
    state = AdadeltaState([(name, p)])
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingError) as err:
        adadelta_step([(name, p)], state, 0.95, 1e-6)
    assert "bad_param" in str(err.value)


def test_adadelta_refused_step_changes_nothing():
    """A non-finite gradient of a later parameter is refused before an
    earlier parameter is updated: every parameter and both accumulators
    stay byte for byte as they were."""
    named = [named_tensor("a", [1.0, -0.5]), named_tensor("b", [2.0])]
    (_, a), (_, b) = named
    state = AdadeltaState(named)
    a.grad, b.grad = np.array([0.5, -0.25]), np.array([0.75])
    adadelta_step(named, state, 0.95, 1e-6)  # accumulators away from zero

    def snapshot():
        accumulators = (state.avg_sq_grad, state.avg_sq_update)
        return [t.data.tobytes() for _, t in named] + [acc[name].tobytes() for acc in accumulators for name, _ in named]

    before = snapshot()
    a.grad, b.grad = np.array([0.5, -0.25]), np.array([np.nan])
    with pytest.raises(TrainingError, match="'b'"):
        adadelta_step(named, state, 0.95, 1e-6)
    assert snapshot() == before


def test_clip_gradients_global_norm():
    _, a = named_tensor("a", [3.0, 0.0])
    _, b = named_tensor("b", [0.0, 4.0])
    a.grad, b.grad = np.array([3.0, 0.0]), np.array([0.0, 4.0])
    norm = clip_gradients([a, b], clip_norm=2.5)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(float(np.sum(a.grad**2) + np.sum(b.grad**2)))
    assert total == pytest.approx(2.5)


# ---------------------------------------------------------------- constraint choice


def make_vocab():
    text = "parkes became a an key hub for transport center important town later life his in the . ,".split()
    return build_vocab([text], max_size=40)


def test_select_constraint_prefers_kb_simple_side():
    vocab = make_vocab()
    kb = KnowledgeBase([ParaphraseRule(("hub",), ("center",), 0.9)])
    freqs = FrequencyTable({"hub": 2}, threshold=10)
    pair = SentencePair(
        tuple(vocab.encode("a hub for transport".split())),
        tuple(vocab.encode("a center for transport".split())),
    )
    s = select_training_constraint(pair, kb, freqs, vocab)
    assert s == 2  # 1-based position of "center"


def test_select_constraint_rarer_complex_side_wins():
    vocab = make_vocab()
    kb = KnowledgeBase(
        [
            ParaphraseRule(("hub",), ("center",), 0.9),
            ParaphraseRule(("key",), ("important",), 0.9),
        ]
    )
    freqs = FrequencyTable({"hub": 1, "key": 7}, threshold=100)
    pair = SentencePair(
        tuple(vocab.encode("a key hub town".split())),
        tuple(vocab.encode("an important center town".split())),
    )
    assert select_training_constraint(pair, kb, freqs, vocab) == 3  # center: hub is rarer
    freqs_flipped = FrequencyTable({"hub": 7, "key": 1}, threshold=100)
    assert select_training_constraint(pair, kb, freqs_flipped, vocab) == 2  # important


def test_select_constraint_fallback_least_frequent_non_punctuation():
    vocab = make_vocab()
    freqs = FrequencyTable({"later": 4, "in": 90, "his": 50, "life": 9, ".": 1}, threshold=0)
    pair = SentencePair(
        tuple(vocab.encode("in the later life .".split())),
        tuple(vocab.encode("later in his life .".split())),
    )
    s = select_training_constraint(pair, None, freqs, vocab)
    assert s == 1  # "later" has the lowest count among non-punctuation tokens


WORDS = ("a", "b", "c", "d", "e", ".", ",")


def phrases(max_size):
    return st.lists(st.sampled_from(WORDS), min_size=1, max_size=max_size).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(phrases(3), phrases(2), st.sampled_from([0.2, 0.5, 0.9])), max_size=12),
    source=phrases(8),
    target=phrases(8),
    counts=st.lists(st.integers(0, 6), min_size=len(WORDS), max_size=len(WORDS)),
)
def test_select_constraint_equals_the_full_kb_scan(rows, source, target, counts):
    rules = [ParaphraseRule(c, s, score) for c, s, score in rows if c != s]
    vocab = build_vocab([WORDS], max_size=len(WORDS) + 4)
    freqs = FrequencyTable(dict(zip(WORDS, counts)), threshold=3)
    pair = SentencePair(tuple(vocab.encode(source)), tuple(vocab.encode(target)))
    want = select_training_constraint_scan(pair, rules, freqs, vocab)
    assert select_training_constraint(pair, KnowledgeBase(rules), freqs, vocab) == want


def test_select_constraint_deterministic():
    vocab = make_vocab()
    pair = SentencePair(
        tuple(vocab.encode("a key town".split())),
        tuple(vocab.encode("a key town".split())),
    )
    freqs = FrequencyTable.from_sequences([["a", "key", "town"]])
    picks = {select_training_constraint(pair, None, freqs, vocab) for _ in range(5)}
    assert len(picks) == 1


# ---------------------------------------------------------------- training loss


def pair_of(source_ids, target_ids):
    return SentencePair(tuple(source_ids), tuple(target_ids))


def test_training_loss_uniform_model_is_tokens_times_log_v():
    model = Seq2SeqModel.create(TINY, seed=0)
    for _, t in model.named_parameters():
        t.data[...] = 0.0
    pair = pair_of([4, 5], [6, 7, 8])
    for s in (1, 2, 3):
        loss = training_loss([pair], [s], model)
        expected = (len(pair.target) + 1) * math.log(TINY.vocab_size)
        assert loss.item() == pytest.approx(expected, rel=1e-12)
    assert loss_token_count(pair) == 4


def test_training_loss_near_zero_for_peaked_model():
    # craft decoders that assign ~probability 1 to every reference token
    from test_decoding import chain_model

    model = chain_model(
        fwd_succ={BOS_ID: 5, 5: 6, 6: 2},  # predicts 5, 6, then EOS
        bwd_succ={5: BOS_ID},
        vocab_size=9,
    )
    pair = pair_of([4], [5, 6])
    loss = training_loss([pair], [1], model)
    assert loss.item() < 1e-6


def test_training_loss_position_bounds():
    model = Seq2SeqModel.create(TINY, seed=1)
    pair = pair_of([4], [5, 6])
    with pytest.raises(ContractError):
        training_loss([pair], [0], model)
    with pytest.raises(ContractError):
        training_loss([pair], [3], model)


def test_training_loss_finite_when_target_probability_underflows():
    from test_decoding import underflow_model

    model = underflow_model(target=6)
    pair = pair_of([4, 5, 6], [6, 7, 6])  # 6 is predicted by both decoders
    with Tape() as tape:
        loss = training_loss([pair], [2], model)
        tape.backward(loss)
    assert np.isfinite(loss.item()) and loss.item() > 1600.0
    for name, t in model.named_parameters():
        assert t.grad is None or np.all(np.isfinite(t.grad)), name


def scalar_loop_loss(model, pair, s):
    """The joint NLL of a pair at constraint position s, from the
    scalar-loop oracles of the encoder and one decoder step."""
    from oracles import decoder_step_loops, encode_loops
    from test_model import decoder_as_dict, gru_as_dict

    ann, mean = encode_loops(
        list(pair.source),
        model.encoder.embedding.data.tolist(),
        gru_as_dict(model.encoder.fwd),
        gru_as_dict(model.encoder.bwd),
    )

    def run_decoder(dec, inputs, targets, score_from):
        p = decoder_as_dict(dec)
        init_w, init_b = dec.init_w.data.tolist(), dec.init_b.data.tolist()
        state = [
            math.tanh(sum(wij * mj for wij, mj in zip(row, mean)) + b)
            for row, b in zip(init_w, init_b)
        ]
        emb = dec.embedding.data.tolist()
        total = 0.0
        for step, (prev, tgt) in enumerate(zip(inputs, targets)):
            state, dist, _ = decoder_step_loops(emb[prev], state, ann, p)
            if step >= score_from:
                total -= math.log(dist[tgt])
        return total

    target = list(pair.target)
    backward_inputs = target[s - 1 :: -1]
    backward_targets = backward_inputs[1:] + [BOS_ID]
    expected = run_decoder(model.backward_decoder, backward_inputs, backward_targets, 0)
    forward_inputs = [BOS_ID] + target
    forward_targets = target + [2]
    return expected + run_decoder(model.forward_decoder, forward_inputs, forward_targets, s)


def test_training_loss_matches_scalar_oracle():
    model = Seq2SeqModel.create(TINY, seed=9)
    pair = pair_of([4, 7, 5], [6, 8, 4])
    got = training_loss([pair], [2], model).item()
    assert got == pytest.approx(scalar_loop_loss(model, pair, 2), abs=1e-10)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_training_loss_matches_scalar_oracle_with_biases(s):
    model = draw_biases(Seq2SeqModel.create(TINY, seed=9), seed=31)
    pair = pair_of([4, 7, 5], [6, 8, 4])
    got = training_loss([pair], [s], model).item()
    assert got == pytest.approx(scalar_loop_loss(model, pair, s), abs=1e-10)


def test_training_loss_computes_logits_only_for_scored_steps(monkeypatch):
    import sentsimp.training as training_module

    calls = []
    real = training_module.output_logits

    def counting(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(training_module, "output_logits", counting)
    model = Seq2SeqModel.create(TINY, seed=2)
    for target in ([5], [6, 7], [4, 8, 6, 5]):
        for position in range(1, len(target) + 1):
            calls.clear()
            training_loss([pair_of([4, 5], target)], [position], model)
            # one call per stage: m + 1 scored rows in all
            assert calls == [position, len(target) + 1 - position], (target, position)


def test_training_loss_builds_one_stage_per_decoder(monkeypatch):
    """One `training_loss` builds exactly two decoder stages, the backward
    decoder's and then the forward decoder's, each over the batch's
    annotations."""
    import sentsimp.autodiff as autodiff

    built = []
    real = autodiff.DecoderStage

    def building(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(autodiff, "DecoderStage", building)
    model = Seq2SeqModel.create(TINY, seed=2)
    training_loss([pair_of([4, 5], [6, 7, 8]), pair_of([6], [5, 4])], [2, 1], model)
    assert len(built) == 2
    for stage, dec in zip(built, (model.backward_decoder, model.forward_decoder)):
        assert stage.tensors[0] is dec.embedding and stage.tensors[2] is dec.att_u and stage.sources == 2


def loss_and_gradients(model, loss_fn):
    """loss_fn()'s value and the gradients of all 35 parameters, under a fresh tape."""
    model.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    return loss.item(), [p.grad.copy() for p in model.parameters()]


def assert_gradients_close(model, got, want, rel=1e-12):
    """Each gradient within rel of the largest entry of the wanted one, or
    else within one unit roundoff (2**-53) of the largest entry of any
    wanted gradient. The second bound judges a gradient that is itself
    rounding-sized, such as an attention bias's at initialization, whose
    terms cancel: its own largest entry is no scale for its rounding."""
    assert len(got) == len(want) == 35
    model_max = max(np.max(np.abs(b)) for b in want)
    for (name, _), a, b in zip(model.named_parameters(), got, want):
        err = np.max(np.abs(a - b))
        assert err <= rel * np.max(np.abs(b)) or err <= 2.0**-53 * model_max, name


def test_training_loss_and_gradients_equal_all_logits_oracle():
    """Logits for the scored steps only give exactly the loss and the 35
    gradients of the same batch with logits at every step: the unscored
    logits feed nothing."""
    from oracles import training_loss_all_logits

    model = Seq2SeqModel.create(TINY, seed=6)
    draw_biases(model, 60)
    rng = np.random.default_rng(6)
    for rows in (1, 1, 3, 5):
        pairs, positions = [], []
        for _ in range(rows):
            target = rng.integers(4, TINY.vocab_size, size=rng.integers(1, 6)).tolist()
            pairs.append(pair_of(rng.integers(4, TINY.vocab_size, size=rng.integers(1, 5)).tolist(), target))
            positions.append(int(rng.integers(1, len(target) + 1)))
        got, got_grads = loss_and_gradients(model, lambda: training_loss(pairs, positions, model))
        want, want_grads = loss_and_gradients(model, lambda: training_loss_all_logits(pairs, positions, model))
        assert got == want
        assert len(got_grads) == 35
        for (name, _), a, b in zip(model.named_parameters(), got_grads, want_grads):
            assert np.array_equal(a, b), name


def test_training_loss_and_gradients_equal_composed_cell_oracle(monkeypatch):
    """At desk dims, the scans give the loss of the per-step oracle whose
    GRU step and attention read are per-op compositions exactly, and all 35
    gradients to 1e-12."""
    import oracles
    from oracles import attention_composed, gru_step_composed

    vocab_size = 53
    model = Seq2SeqModel.create(ModelConfig(vocab_size, 64, 128), seed=9)
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(3):
        target = rng.integers(4, vocab_size, size=rng.integers(1, 9)).tolist()
        source = rng.integers(4, vocab_size, size=rng.integers(2, 9)).tolist()
        pairs.append((pair_of(source, target), int(rng.integers(1, len(target) + 1))))

    def run(loss_fn):
        model.zero_grad()
        losses = []
        for pair, position in pairs:
            with Tape() as tape:
                loss = loss_fn(pair, position)
                tape.backward(loss)
            losses.append(loss.item())
        return losses, [p.grad.copy() for p in model.parameters()]

    got, got_grads = run(lambda pair, position: training_loss([pair], [position], model))
    monkeypatch.setattr(oracles, "gru_step", gru_step_composed)
    monkeypatch.setattr(oracles, "attention", attention_composed)
    want, want_grads = run(lambda pair, position: oracles.training_loss_per_step(pair, position, model))
    assert got == want
    assert_gradients_close(model, got_grads, want_grads)


def random_pairs(rng, count, vocab_size, max_source=9, max_target=8):
    """count pairs of random lengths (sources 1..max_source, targets
    1..max_target tokens) and a random constraint position for each."""
    pairs, positions = [], []
    for _ in range(count):
        source = rng.integers(4, vocab_size, size=rng.integers(1, max_source + 1)).tolist()
        target = rng.integers(4, vocab_size, size=rng.integers(1, max_target + 1)).tolist()
        pairs.append(pair_of(source, target))
        positions.append(int(rng.integers(1, len(target) + 1)))
    return pairs, positions


@pytest.mark.parametrize("dims", [(9, 2, 3), (53, 16, 32)], ids=["tiny", "toy"])
def test_training_loss_equals_per_step_oracle_with_biases(dims):
    """One pair: the scans give the per-step oracle's loss bit for bit and
    every gradient within 1e-12 of its largest entry. The earlier design's
    per-step oracle, which multiplies [embedding; context] by the whole GRU
    input weight, gives the loss within 1e-14 and the same gradients."""
    from oracles import training_loss_per_step

    model = draw_biases(Seq2SeqModel.create(ModelConfig(*dims), seed=12), seed=12)
    pairs, positions = random_pairs(np.random.default_rng(12), 4, dims[0])
    for pair, position in zip(pairs, positions):
        got, got_grads = loss_and_gradients(model, lambda: training_loss([pair], [position], model))
        want, want_grads = loss_and_gradients(model, lambda: training_loss_per_step(pair, position, model))
        earlier, earlier_grads = loss_and_gradients(
            model, lambda: training_loss_per_step(pair, position, model, whole_w=True)
        )
        assert got == want
        assert got == pytest.approx(earlier, rel=1e-14, abs=0)
        assert_gradients_close(model, got_grads, want_grads)
        assert_gradients_close(model, got_grads, earlier_grads)


@pytest.mark.parametrize("count", [1, 3], ids=["one-pair", "padded-batch"])
def test_training_loss_gradcheck_with_biases(count):
    """All 35 parameters, for one pair and for a batch whose sources,
    targets and positions differ, so that every mask is in use."""
    model = draw_biases(Seq2SeqModel.create(TINY, seed=13), seed=13)
    pairs = [pair_of([4, 7, 5], [6, 8, 4]), pair_of([8], [5]), pair_of([6, 5], [4, 7, 8, 6])][:count]
    positions = [2, 1, 3][:count]
    assert check_gradients(lambda: training_loss(pairs, positions, model), model.parameters()) < 1e-4


@pytest.mark.parametrize("count", [2, 5, 16])
def test_batch_loss_equals_sum_of_per_pair_oracle_losses(count):
    """A padded batch of pairs with mixed source lengths, target lengths
    and positions scores the sum of the per-step oracle's per-pair losses
    to 1e-12, and its gradients are the sums of theirs."""
    from oracles import training_loss_per_step

    model = draw_biases(Seq2SeqModel.create(ModelConfig(53, 16, 32), seed=count), seed=count)
    pairs, positions = random_pairs(np.random.default_rng(count), count, 53)
    got, got_grads = loss_and_gradients(model, lambda: training_loss(pairs, positions, model))
    want, want_grads = 0.0, [np.zeros_like(p.data) for p in model.parameters()]
    for pair, position in zip(pairs, positions):
        loss, grads = loss_and_gradients(model, lambda: training_loss_per_step(pair, position, model))
        want += loss
        want_grads = [acc + g for acc, g in zip(want_grads, grads)]
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert_gradients_close(model, got_grads, want_grads)


def test_a_longer_pair_leaves_a_shorter_pairs_loss_and_gradients_unchanged():
    """Batched with a pair that is longer in source, target and position,
    a pair adds its own loss and gradients to the other's, to 1e-12,
    though every one of its rows is now padded."""
    model = draw_biases(Seq2SeqModel.create(ModelConfig(53, 16, 32), seed=14), seed=14)
    short, long = pair_of([4, 9, 7], [5, 6]), pair_of([8, 4, 12, 30, 7, 5, 6], [9, 10, 11, 12, 13])
    alone, alone_grads = loss_and_gradients(model, lambda: training_loss([short], [2], model))
    other, other_grads = loss_and_gradients(model, lambda: training_loss([long], [4], model))
    both, both_grads = loss_and_gradients(model, lambda: training_loss([short, long], [2, 4], model))
    assert both == pytest.approx(alone + other, rel=1e-12, abs=0)
    assert_gradients_close(model, both_grads, [a + o for a, o in zip(alone_grads, other_grads)])


def test_every_parameter_is_live():
    """Moving one entry of any of the 35 parameters changes the loss of one
    pair; in an embedding, the entry is in a row the pair reads. A
    parameter that the loss does not read leaves it bit for bit as it was."""
    model = draw_biases(Seq2SeqModel.create(TINY, seed=15), seed=15)
    pair, position = pair_of([4, 7, 5], [6, 8, 4]), 2
    read_rows = {"encoder.embedding": 4, "backward.embedding": 8, "forward.embedding": BOS_ID}
    before = training_loss([pair], [position], model).item()
    for name, t in model.named_parameters():
        entry = (read_rows[name], 0) if name in read_rows else (0,) * t.ndim
        saved = t.data[entry]
        t.data[entry] = saved + 0.5
        moved = training_loss([pair], [position], model).item()
        t.data[entry] = saved
        assert moved != before, name


def test_validation_loss_in_padded_batches_equals_one_pair_at_a_time():
    from sentsimp.training import _corpus_loss

    model = draw_biases(Seq2SeqModel.create(ModelConfig(53, 16, 32), seed=16), seed=16)
    pairs, positions = random_pairs(np.random.default_rng(16), 20, 53)
    one_at_a_time = _corpus_loss(pairs, positions, model, batch_size=1)
    for batch_size in (3, 16, 40):
        assert _corpus_loss(pairs, positions, model, batch_size) == pytest.approx(one_at_a_time, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, m, position", [(1, 1, 1), (2, 5, 1), (6, 3, 3), (9, 7, 4)])
def test_tape_length_of_one_pair_is_a_closed_form(n, m, position):
    """Ops recorded for one pair, whatever its source length n, target
    length m and constraint position: the encoder records 5 (the lookup,
    two input products, one `gru_scan` and the mean); each decoder
    stage 5 (the two ops of the initial state, one `decoder_scan`, which
    looks up its own inputs, then one lookup of the scored steps' rows
    [embedding; state; context] and one output product); one stack and
    one nll score the logit rows of both stages."""
    model = Seq2SeqModel.create(TINY, seed=3)
    pair = pair_of([4 + i % 5 for i in range(n)], [4 + i % 5 for i in range(m)])
    with Tape() as tape:
        training_loss([pair], [position], model)
    assert len(tape) == 5 + 2 * 5 + 2


@pytest.mark.parametrize("embed_dim,hidden_dim", [(16, 32), (64, 128)])
def test_accumulated_gradients_equal_dense_backward_oracle(embed_dim, hidden_dim):
    from oracles import backward_dense

    vocab_size = 53
    model = Seq2SeqModel.create(ModelConfig(vocab_size, embed_dim, hidden_dim), seed=4)
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(4):
        target = rng.integers(4, vocab_size, size=rng.integers(1, 9)).tolist()
        source = rng.integers(4, vocab_size, size=rng.integers(2, 9)).tolist()
        pairs.append((pair_of(source, target), int(rng.integers(1, len(target) + 1))))
    runs = []
    for backward in (Tape.backward, backward_dense):
        model.zero_grad()
        for pair, position in pairs:  # accumulated into one .grad, as `train` does
            with Tape() as tape:
                backward(tape, training_loss([pair], [position], model))
        runs.append([p.grad.copy() for p in model.parameters()])
    got, want = runs
    assert len(got) == 35
    for (name, _), a, b in zip(model.named_parameters(), got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def test_training_loss_gradient_matches_finite_differences_subset():
    model = Seq2SeqModel.create(TINY, seed=3)
    pair = pair_of([4, 5], [6, 7])

    def loss():
        return training_loss([pair], [1], model)

    params = dict(model.named_parameters())
    names = [
        "encoder.fwd.w", "encoder.bwd.u_zr", "encoder.bwd.u_h", "encoder.fwd.b",
        "backward.gru.w", "backward.gru.u_zr", "backward.gru.u_h", "backward.gru.b",
        "backward.out_b", "forward.att_u", "forward.gru.w",
    ]
    subset = [params[name] for name in names]
    assert check_gradients(loss, subset, eps=1e-5) < 1e-4


def test_single_step_decreases_loss_without_clipping():
    model = Seq2SeqModel.create(TINY, seed=8)
    pair = pair_of([4, 6, 8], [5, 7])
    named = list(model.named_parameters())
    state = AdadeltaState(named)
    before = training_loss([pair], [1], model).item()
    with Tape() as tape:
        loss = training_loss([pair], [1], model)
        tape.backward(loss)
    adadelta_step(named, state, rho=0.95, eps=1e-6)
    model.zero_grad()
    after = training_loss([pair], [1], model).item()
    assert after < before


# ---------------------------------------------------------------- train loop


def toy_corpus(vocab_size=9):
    pairs = [
        pair_of([4, 5, 6], [4, 6]),
        pair_of([5, 6, 7], [5, 7]),
        pair_of([6, 7, 8], [6, 8]),
        pair_of([4, 7], [4, 7]),
    ]
    return CorpusSplit(train=pairs, validation=[pairs[0]])


def fake_vocab():
    return build_vocab([["w4", "w5", "w6", "w7", "w8"]], max_size=9)


def source_table(corpus, vocab):
    """The step-1 table of the train sources at the default percentile."""
    return FrequencyTable.from_sequences(vocab.decode(p.source) for p in corpus.train)


def test_train_returns_history_and_is_deterministic(tmp_path):
    vocab = fake_vocab()

    def run(out_dir):
        cfg = PipelineConfig(epochs=3, batch_size=2, seed=5, checkpoint_every=2, out_dir=out_dir)
        model = Seq2SeqModel.create(TINY, seed=2)
        corpus = toy_corpus()
        return train(corpus, model, cfg, vocab, source_table(corpus, vocab))

    r1 = run(str(tmp_path / "a"))
    r2 = run(str(tmp_path / "b"))
    assert [s.train_loss for s in r1.history] == [s.train_loss for s in r2.history]
    assert [s.valid_loss for s in r1.history] == [s.valid_loss for s in r2.history]
    assert len(r1.history) == 3
    assert [len(r1.checkpoint_paths), len(r2.checkpoint_paths)] == [2, 2]  # epochs 2 and 3


def test_validation_does_not_change_parameters():
    from sentsimp.training import _corpus_loss

    model = Seq2SeqModel.create(TINY, seed=4)
    snapshot = [t.data.copy() for t in model.parameters()]
    _corpus_loss(toy_corpus().train, [1, 1, 1, 1], model, batch_size=3)
    for before, after in zip(snapshot, model.parameters()):
        assert np.array_equal(before, after.data)


def test_training_log_csv_written(tmp_path):
    out = tmp_path / "run"
    cfg = PipelineConfig(epochs=2, batch_size=4, seed=5, checkpoint_every=1, out_dir=str(out))
    model = Seq2SeqModel.create(TINY, seed=2)
    corpus, vocab = toy_corpus(), fake_vocab()
    train(corpus, model, cfg, vocab, source_table(corpus, vocab))
    lines = (out / "training_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,valid_loss,seconds"
    assert len(lines) == 3


def test_training_log_keeps_rows_of_epochs_before_an_interruption(tmp_path, monkeypatch):
    from sentsimp import training

    def save_or_fail(path, *args):
        if "epoch0002" in path:
            raise OSError("disk full")
        save_checkpoint(path, *args)

    monkeypatch.setattr(training, "save_checkpoint", save_or_fail)
    out = tmp_path / "run"
    cfg = PipelineConfig(epochs=3, batch_size=4, seed=5, checkpoint_every=1, out_dir=str(out))
    corpus, vocab = toy_corpus(), fake_vocab()
    with pytest.raises(OSError):
        train(corpus, Seq2SeqModel.create(TINY, seed=2), cfg, vocab, source_table(corpus, vocab))
    rows = (out / "training_log.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,valid_loss,seconds"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]
    assert sorted(p.name for p in out.glob("*.ckpt")) == ["epoch0001.ckpt"]


def test_train_saves_the_vocabulary_and_frequency_table_it_trained_with(tmp_path):
    """Each checkpoint carries train's own vocab and freq_table."""
    vocab = fake_vocab()
    freqs = FrequencyTable({"w4": 5, "w6": 1}, 2.5)
    cfg = PipelineConfig(epochs=2, batch_size=4, seed=5, checkpoint_every=1, out_dir=str(tmp_path))
    result = train(toy_corpus(), Seq2SeqModel.create(TINY, seed=2), cfg, vocab, freqs)
    assert len(result.checkpoint_paths) == 2
    for path in result.checkpoint_paths:
        ckpt = load_checkpoint(path)
        assert ckpt.vocab.kept_tokens() == vocab.kept_tokens()
        assert ckpt.freq_table.counts == freqs.counts
        assert ckpt.freq_table.threshold == freqs.threshold


def test_train_requires_a_frequency_table():
    """The step-1 table has one owner, the caller: train builds none."""
    with pytest.raises(TypeError, match="freq_table"):
        train(toy_corpus(), Seq2SeqModel.create(TINY, seed=2), PipelineConfig(epochs=1), fake_vocab())


def test_checkpoint_roundtrip_preserves_validation_loss(tmp_path):
    from sentsimp.training import _corpus_loss, write_atomic_checkpoint

    model = Seq2SeqModel.create(TINY, seed=6)
    corpus = toy_corpus()
    positions = [1] * len(corpus.train)
    before = _corpus_loss(corpus.train, positions, model, batch_size=3)
    path = tmp_path / "model.ckpt"
    write_atomic_checkpoint(str(path), model, fake_vocab(), FrequencyTable({"w4": 2}, 1.5))
    reloaded = load_checkpoint(str(path)).model
    after = _corpus_loss(corpus.train, positions, reloaded, batch_size=3)
    assert abs(after - before) <= 1e-12


def test_overfit_single_pair_memorizes():
    cfg = PipelineConfig(epochs=60, batch_size=1, seed=7, clip_norm=5.0)
    model = Seq2SeqModel.create(
        ModelConfig(vocab_size=9, embed_dim=4, hidden_dim=8),
        seed=3,
    )
    corpus = CorpusSplit(train=[pair_of([4, 5, 6], [7, 8])], validation=[])
    vocab = fake_vocab()
    result = train(corpus, model, cfg, vocab, source_table(corpus, vocab))
    assert result.history[-1].train_loss < 0.1


@pytest.mark.parametrize("field", ["epochs", "checkpoint_every"])
def test_train_config_rejects_a_count_below_one(field):
    """The training settings live in PipelineConfig, which applies the
    RANGE_CHECKS table when it is built."""
    with pytest.raises(ContractError, match=field):
        PipelineConfig(**{field: 0})


@pytest.mark.parametrize("field, value", [("rho", 0.0), ("rho", 1.0), ("eps", 0.0), ("clip_norm", -1.0)])
def test_train_config_rejects_an_out_of_range_value(field, value):
    with pytest.raises(ContractError, match=field):
        PipelineConfig(**{field: value})


def test_train_rejects_empty_split():
    with pytest.raises(ContractError):
        model = Seq2SeqModel.create(TINY, seed=0)
        train(CorpusSplit(), model, PipelineConfig(epochs=1), fake_vocab(), FrequencyTable({}, 0.0))
