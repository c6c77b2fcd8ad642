import math

import numpy as np
import pytest

from sentsimp.autodiff import Tape, Tensor
from sentsimp.corpus import BOS_ID, CorpusSplit, SentencePair, build_vocab
from sentsimp.errors import ContractError, TrainingError
from sentsimp.lexsub import FrequencyTable, KnowledgeBase, ParaphraseRule
from sentsimp.model import ModelConfig, Seq2SeqModel, load_checkpoint, save_checkpoint
from sentsimp.training import (
    AdadeltaState,
    TrainConfig,
    adadelta_step,
    clip_gradients,
    loss_token_count,
    select_training_constraint,
    train,
    training_loss,
)

from gradcheck import check_gradients

TINY = ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3)


def named_tensor(name, values):
    t = Tensor(values, requires_grad=True)
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
        loss = training_loss(pair, s, model)
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
    loss = training_loss(pair, 1, model)
    assert loss.item() < 1e-6


def test_training_loss_position_bounds():
    model = Seq2SeqModel.create(TINY, seed=1)
    pair = pair_of([4], [5, 6])
    with pytest.raises(ContractError):
        training_loss(pair, 0, model)
    with pytest.raises(ContractError):
        training_loss(pair, 3, model)


def test_training_loss_finite_when_target_probability_underflows():
    from test_decoding import underflow_model

    model = underflow_model(target=6)
    pair = pair_of([4, 5, 6], [6, 7, 6])  # 6 is predicted by both decoders
    with Tape() as tape:
        loss = training_loss(pair, 2, model)
        tape.backward(loss)
    assert np.isfinite(loss.item()) and loss.item() > 1600.0
    for name, t in model.named_parameters():
        assert t.grad is None or np.all(np.isfinite(t.grad)), name


def test_training_loss_matches_scalar_oracle():
    from oracles import decoder_step_loops, encode_loops
    from test_model import decoder_as_dict, gru_as_dict

    model = Seq2SeqModel.create(TINY, seed=9)
    pair = pair_of([4, 7, 5], [6, 8, 4])
    s = 2
    got = training_loss(pair, s, model).item()

    ann, mean = encode_loops(
        list(pair.source),
        model.encoder.embedding.tolist(),
        gru_as_dict(model.encoder.fwd),
        gru_as_dict(model.encoder.bwd),
    )

    def run_decoder(dec, inputs, targets, score_from):
        p = decoder_as_dict(dec)
        init_w, init_b = dec.init_w.tolist(), dec.init_b.tolist()
        state = [
            math.tanh(sum(wij * mj for wij, mj in zip(row, mean)) + b)
            for row, b in zip(init_w, init_b)
        ]
        emb = dec.embedding.tolist()
        total = 0.0
        for step, (prev, tgt) in enumerate(zip(inputs, targets)):
            state, dist, _ = decoder_step_loops(emb[prev], state, ann, p)
            if step >= score_from:
                total -= math.log(dist[tgt])
        return total

    target = list(pair.target)
    backward_inputs = [target[1], target[0]]
    backward_targets = [target[0], BOS_ID]
    expected = run_decoder(model.backward_decoder, backward_inputs, backward_targets, 0)
    forward_inputs = [BOS_ID] + target
    forward_targets = target + [2]
    expected += run_decoder(model.forward_decoder, forward_inputs, forward_targets, s)
    assert got == pytest.approx(expected, abs=1e-10)


def test_training_loss_computes_logits_only_for_scored_steps(monkeypatch):
    import sentsimp.training as training_module

    calls = []
    real = training_module.output_logits

    def counting(*args):
        calls.append(args[1].shape[0])
        return real(*args)

    monkeypatch.setattr(training_module, "output_logits", counting)
    model = Seq2SeqModel.create(TINY, seed=2)
    for target in ([5], [6, 7], [4, 8, 6, 5]):
        for position in range(1, len(target) + 1):
            calls.clear()
            training_loss(pair_of([4, 5], target), position, model)
            assert calls == [1] * (len(target) + 1), (target, position)


def test_training_loss_and_gradients_equal_all_logits_oracle():
    from oracles import training_loss_all_logits

    model = Seq2SeqModel.create(TINY, seed=6)
    params = model.parameters()
    rng = np.random.default_rng(6)
    for _ in range(4):
        target = rng.integers(4, TINY.vocab_size, size=rng.integers(1, 6)).tolist()
        pair = pair_of(rng.integers(4, TINY.vocab_size, size=3).tolist(), target)
        position = int(rng.integers(1, len(target) + 1))
        runs = []
        for loss_fn in (training_loss, training_loss_all_logits):
            model.zero_grad()
            with Tape() as tape:
                loss = loss_fn(pair, position, model)
                tape.backward(loss)
            runs.append((loss.item(), [p.grad.copy() for p in params]))
        (got, got_grads), (want, want_grads) = runs
        assert got == want
        assert len(got_grads) == 35
        for name, a, b in zip([n for n, _ in model.named_parameters()], got_grads, want_grads):
            assert np.array_equal(a, b), name


def test_training_loss_and_gradients_equal_composed_cell_oracle(monkeypatch):
    """At desk dims, the fused GRU step and attention read give the loss of
    their per-op compositions exactly and all 35 gradients to 1e-12."""
    import sentsimp.model as model_module
    from oracles import attention_composed, gru_step_composed

    vocab_size = 53
    model = Seq2SeqModel.create(ModelConfig(vocab_size, 64, 128), seed=9)
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(3):
        target = rng.integers(4, vocab_size, size=rng.integers(1, 9)).tolist()
        source = rng.integers(4, vocab_size, size=rng.integers(2, 9)).tolist()
        pairs.append((pair_of(source, target), int(rng.integers(1, len(target) + 1))))

    def run():
        model.zero_grad()
        losses = []
        for pair, position in pairs:
            with Tape() as tape:
                loss = training_loss(pair, position, model)
                tape.backward(loss)
            losses.append(loss.item())
        return losses, [p.grad.copy() for p in model.parameters()]

    got, got_grads = run()
    monkeypatch.setattr(model_module.ad, "gru_step", gru_step_composed)
    monkeypatch.setattr(
        model_module,
        "attend",
        lambda s, annotations, keys, p: attention_composed(s, keys, annotations, p.att_w, p.att_b, p.att_v),
    )
    want, want_grads = run()
    assert got == want
    assert len(got_grads) == 35
    for (name, _), a, b in zip(model.named_parameters(), got_grads, want_grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


@pytest.mark.parametrize("n, m, position", [(1, 1, 1), (2, 5, 1), (6, 3, 3), (9, 7, 4)])
def test_tape_length_of_one_pair_is_a_closed_form(n, m, position):
    """Ops recorded for one pair with an n-token source and an m-token target:
    the encoder records 4n + 7 (the lookup, two input products, one row read
    and one GRU step per token and direction, two stacks, a concat and the
    mean); each decoder stage 5 (keys, initial state, stacked logits, nll)
    plus 5 per step (lookup, attention, concat, input product, GRU step)
    plus 2 per scored step (concat, output product); one add joins the
    stages. The backward stage steps and scores `position` times, the
    forward stage steps m + 1 times and scores m + 1 - position of them."""
    model = Seq2SeqModel.create(TINY, seed=3)
    pair = pair_of([4 + i % 5 for i in range(n)], [4 + i % 5 for i in range(m)])
    with Tape() as tape:
        training_loss(pair, position, model)
    assert len(tape) == 4 * n + 7 * m + 5 * position + 25


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
                backward(tape, training_loss(pair, position, model))
        runs.append([p.grad.copy() for p in model.parameters()])
    got, want = runs
    assert len(got) == 35
    for (name, _), a, b in zip(model.named_parameters(), got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def test_training_loss_gradient_matches_finite_differences_subset():
    model = Seq2SeqModel.create(TINY, seed=3)
    pair = pair_of([4, 5], [6, 7])

    def loss():
        return training_loss(pair, 1, model)

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
    before = training_loss(pair, 1, model).item()
    with Tape() as tape:
        loss = training_loss(pair, 1, model)
        tape.backward(loss)
    adadelta_step(named, state, rho=0.95, eps=1e-6)
    model.zero_grad()
    after = training_loss(pair, 1, model).item()
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
    cfg = TrainConfig(epochs=3, batch_size=2, seed=5, checkpoint_every=2)
    vocab = fake_vocab()

    def run(out_dir):
        model = Seq2SeqModel.create(TINY, seed=2)
        corpus = toy_corpus()
        return train(corpus, model, cfg, vocab, source_table(corpus, vocab), out_dir=out_dir)

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
    _corpus_loss(toy_corpus().train, [1, 1, 1, 1], model)
    for before, after in zip(snapshot, model.parameters()):
        assert np.array_equal(before, after.data)


def test_training_log_csv_written(tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5, checkpoint_every=1)
    model = Seq2SeqModel.create(TINY, seed=2)
    out = tmp_path / "run"
    corpus, vocab = toy_corpus(), fake_vocab()
    train(corpus, model, cfg, vocab, source_table(corpus, vocab), out_dir=str(out))
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
    cfg = TrainConfig(epochs=3, batch_size=4, seed=5, checkpoint_every=1)
    out = tmp_path / "run"
    corpus, vocab = toy_corpus(), fake_vocab()
    with pytest.raises(OSError):
        train(corpus, Seq2SeqModel.create(TINY, seed=2), cfg, vocab, source_table(corpus, vocab), out_dir=str(out))
    rows = (out / "training_log.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,valid_loss,seconds"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]
    assert sorted(p.name for p in out.glob("*.ckpt")) == ["epoch0001.ckpt"]


def test_train_saves_the_vocabulary_and_frequency_table_it_trained_with(tmp_path):
    """Each checkpoint carries train's own vocab and freq_table."""
    vocab = fake_vocab()
    freqs = FrequencyTable({"w4": 5, "w6": 1}, 2.5)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5, checkpoint_every=1)
    result = train(toy_corpus(), Seq2SeqModel.create(TINY, seed=2), cfg, vocab, freqs, out_dir=str(tmp_path))
    assert len(result.checkpoint_paths) == 2
    for path in result.checkpoint_paths:
        ckpt = load_checkpoint(path)
        assert ckpt.vocab.kept_tokens() == vocab.kept_tokens()
        assert ckpt.freq_table.counts == freqs.counts
        assert ckpt.freq_table.threshold == freqs.threshold


def test_train_requires_a_frequency_table():
    """The step-1 table has one owner, the caller: train builds none."""
    with pytest.raises(TypeError, match="freq_table"):
        train(toy_corpus(), Seq2SeqModel.create(TINY, seed=2), TrainConfig(epochs=1), fake_vocab())


def test_checkpoint_roundtrip_preserves_validation_loss(tmp_path):
    from sentsimp.training import _corpus_loss, write_atomic_checkpoint

    model = Seq2SeqModel.create(TINY, seed=6)
    corpus = toy_corpus()
    positions = [1] * len(corpus.train)
    before = _corpus_loss(corpus.train, positions, model)
    path = tmp_path / "model.ckpt"
    write_atomic_checkpoint(str(path), model, fake_vocab(), FrequencyTable({"w4": 2}, 1.5))
    reloaded = load_checkpoint(str(path)).model
    after = _corpus_loss(corpus.train, positions, reloaded)
    assert abs(after - before) <= 1e-12


def test_overfit_single_pair_memorizes():
    cfg = TrainConfig(epochs=60, batch_size=1, seed=7, clip_norm=5.0)
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
    with pytest.raises(ContractError, match=field):
        TrainConfig(**{field: 0})


@pytest.mark.parametrize("field, value", [("rho", 0.0), ("rho", 1.0), ("eps", 0.0), ("clip_norm", -1.0)])
def test_train_config_rejects_an_out_of_range_value(field, value):
    with pytest.raises(ContractError, match=field):
        TrainConfig(**{field: value})


def test_train_rejects_empty_split():
    with pytest.raises(ContractError):
        model = Seq2SeqModel.create(TINY, seed=0)
        train(CorpusSplit(), model, TrainConfig(epochs=1), fake_vocab(), FrequencyTable({}, 0.0))
