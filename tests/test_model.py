import numpy as np
import pytest

from sentsimp import autodiff as ad
from sentsimp.errors import CheckpointError, ContractError
from sentsimp.gradcheck import check_gradients
from sentsimp.model import (
    Checkpoint,
    ModelConfig,
    Seq2SeqModel,
    attend,
    decode_step,
    encode,
    init_decoder_state,
    load_checkpoint,
    save_checkpoint,
)

from oracles import attention_loops, decoder_step_loops, encode_loops

TINY = ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3, beam_size=3, max_decode_len=6)


@pytest.fixture
def model():
    return Seq2SeqModel.create(TINY, seed=5)


def gru_as_dict(gru):
    return {
        "w_z": gru.w_z.tolist(), "u_z": gru.u_z.tolist(), "b_z": gru.b_z.tolist(),
        "w_r": gru.w_r.tolist(), "u_r": gru.u_r.tolist(), "b_r": gru.b_r.tolist(),
        "w_h": gru.w_h.tolist(), "u_h": gru.u_h.tolist(), "b_h": gru.b_h.tolist(),
    }


def decoder_as_dict(dec):
    return {
        "w_z": dec.w_z.tolist(), "u_z": dec.u_z.tolist(), "c_z": dec.c_z.tolist(), "b_z": dec.b_z.tolist(),
        "w_r": dec.w_r.tolist(), "u_r": dec.u_r.tolist(), "c_r": dec.c_r.tolist(), "b_r": dec.b_r.tolist(),
        "w_s": dec.w_s.tolist(), "u_s": dec.u_s.tolist(), "c_s": dec.c_s.tolist(), "b_s": dec.b_s.tolist(),
        "att": {"w": dec.att_w.tolist(), "u": dec.att_u.tolist(), "b": dec.att_b.tolist(), "v": dec.att_v.tolist()},
        "out_w": dec.out_w.tolist(),
        "out_b": dec.out_b.tolist(),
    }


# ---------------------------------------------------------------- shapes / config


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=4, embed_dim=2, hidden_dim=2)
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=2, max_decode_len=1)


def test_parameter_shapes(model):
    v, e, d = TINY.vocab_size, TINY.embed_dim, TINY.hidden_dim
    shapes = {name: t.shape for name, t in model.named_parameters()}
    assert shapes["encoder.embedding"] == (v, e)
    assert shapes["encoder.fwd.w_z"] == (d, e)
    assert shapes["encoder.bwd.u_h"] == (d, d)
    for side in ("backward", "forward"):
        assert shapes[f"{side}.c_z"] == (d, 2 * d)
        assert shapes[f"{side}.att_u"] == (d, 2 * d)
        assert shapes[f"{side}.init_w"] == (d, 2 * d)
        assert shapes[f"{side}.out_w"] == (v, e + d + 2 * d)
    assert all(t.requires_grad for t in model.parameters())


def test_decoders_are_independent(model):
    a = model.backward_decoder.w_z.data
    b = model.forward_decoder.w_z.data
    assert not np.array_equal(a, b)


def test_shared_decoders_option(tmp_path):
    import dataclasses

    cfg = dataclasses.replace(TINY, share_decoders=True)
    model = Seq2SeqModel.create(cfg, seed=5)
    assert model.backward_decoder is model.forward_decoder
    names = [name for name, _ in model.named_parameters()]
    assert sum(name.startswith("decoder.") for name in names) == 21
    assert not any(name.startswith(("backward.", "forward.")) for name in names)

    path = tmp_path / "shared.ckpt"
    save_checkpoint(str(path), model)
    loaded = load_checkpoint(str(path)).model
    assert loaded.config.share_decoders
    assert loaded.backward_decoder is loaded.forward_decoder
    assert np.array_equal(loaded.backward_decoder.w_z.data, model.backward_decoder.w_z.data)


def test_seeded_init_is_reproducible():
    m1 = Seq2SeqModel.create(TINY, seed=11)
    m2 = Seq2SeqModel.create(TINY, seed=11)
    for (_, t1), (_, t2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(t1.data, t2.data)


# ---------------------------------------------------------------- encode


def test_encode_zero_weights_gives_zero_states(model):
    for _, t in model.named_parameters():
        t.data[...] = 0.0
    H, h_mean = encode([4, 5, 6], model.encoder)
    assert np.array_equal(H.data, np.zeros((3, 6)))
    assert np.array_equal(h_mean.data, np.zeros(6))


def test_encode_single_token_mean_equals_annotation(model):
    H, h_mean = encode([7], model.encoder)
    assert H.shape == (1, 6)
    assert np.allclose(H.data[0], h_mean.data, atol=0, rtol=0)


def test_encode_rejects_empty(model):
    with pytest.raises(ContractError):
        encode([], model.encoder)


def test_encode_matches_scalar_loop_oracle(model):
    source = [4, 8, 5, 7]
    H, h_mean = encode(source, model.encoder)
    ann, mean = encode_loops(
        source,
        model.encoder.embedding.tolist(),
        gru_as_dict(model.encoder.fwd),
        gru_as_dict(model.encoder.bwd),
    )
    assert np.allclose(H.data, ann, atol=1e-12, rtol=0)
    assert np.allclose(h_mean.data, mean, atol=1e-12, rtol=0)


def test_encoder_gates_stay_in_range(model):
    # states are convex combinations of tanh outputs, so they stay in (-1, 1)
    H, _ = encode([4, 5, 6, 7, 8], model.encoder)
    assert np.all(np.abs(H.data) < 1.0)


# ---------------------------------------------------------------- attention


def test_attend_identical_annotations_uniform(model):
    dec = model.forward_decoder
    row = np.linspace(-0.5, 0.5, 6)
    H = ad.Tensor(np.tile(row, (4, 1)))
    s = ad.Tensor(np.zeros(3))
    context, alpha = attend(s, H, dec)
    assert np.allclose(alpha.data, 0.25, atol=1e-12)
    assert np.allclose(context.data, row, atol=1e-12)


def test_attend_single_annotation(model):
    H, _ = encode([5], model.encoder)
    s = ad.Tensor(np.zeros(3))
    context, alpha = attend(s, H, model.backward_decoder)
    assert alpha.tolist() == [1.0]
    assert np.allclose(context.data, H.data[0], atol=1e-15)


def test_attend_matches_scalar_loop_oracle(model):
    H, _ = encode([4, 6, 8], model.encoder)
    rng = np.random.default_rng(3)
    s = ad.Tensor(rng.uniform(-1, 1, size=3))
    context, alpha = attend(s, H, model.forward_decoder)
    ctx_o, alpha_o = attention_loops(s.tolist(), H.tolist(), decoder_as_dict(model.forward_decoder)["att"])
    assert np.allclose(alpha.data, alpha_o, atol=1e-12)
    assert np.allclose(context.data, ctx_o, atol=1e-12)


def test_attend_permutation_covariant(model):
    H, _ = encode([4, 5, 6, 7], model.encoder)
    s = ad.Tensor(np.random.default_rng(9).uniform(-1, 1, size=3))
    context, alpha = attend(s, H, model.forward_decoder)
    perm = [2, 0, 3, 1]
    H_perm = ad.Tensor(H.data[perm])
    context_p, alpha_p = attend(s, H_perm, model.forward_decoder)
    assert np.allclose(alpha_p.data, alpha.data[perm], atol=1e-12)
    assert np.allclose(context_p.data, context.data, atol=1e-12)


# ---------------------------------------------------------------- decode_step


def test_decode_step_zero_weights_uniform_dist(model):
    for _, t in model.named_parameters():
        t.data[...] = 0.0
    H, h_mean = encode([4, 5], model.encoder)
    s0 = init_decoder_state(h_mean, model.forward_decoder)
    _, logits = decode_step(4, s0, H, model.forward_decoder)
    assert np.allclose(ad.softmax(logits).data, 1.0 / TINY.vocab_size, atol=1e-15)


def test_decode_step_dist_sums_to_one(model):
    H, h_mean = encode([4, 5, 6], model.encoder)
    s = init_decoder_state(h_mean, model.backward_decoder)
    for tok in (4, 7, 8):
        s, logits = decode_step(tok, s, H, model.backward_decoder)
        dist = ad.softmax(logits)
        assert abs(dist.data.sum() - 1.0) <= 1e-12
        assert np.all(dist.data > 0)
        assert np.all(np.abs(s.data) < 1.0)  # convex combination of tanh values


def test_decode_step_matches_scalar_loop_oracle(model):
    dec = model.forward_decoder
    H, h_mean = encode([5, 7], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    s1, logits = decode_step(6, s0, H, dec)
    prev_emb = dec.embedding.tolist()[6]
    s_o, dist_o, _ = decoder_step_loops(prev_emb, s0.tolist(), H.tolist(), decoder_as_dict(dec))
    assert np.allclose(s1.data, s_o, atol=1e-12)
    assert np.allclose(ad.softmax(logits).data, dist_o, atol=1e-12)


# ---------------------------------------------------------------- init state


def test_init_state_zero_cases(model):
    dec = model.forward_decoder
    assert np.array_equal(init_decoder_state(ad.zeros((6,)), dec).data, np.zeros(3))
    dec.init_w.data[...] = 0.0
    dec.init_b.data[...] = 0.0
    H, h_mean = encode([4, 8], model.encoder)
    assert np.array_equal(init_decoder_state(h_mean, dec).data, np.zeros(3))


def test_init_state_matches_oracle_and_range(model):
    dec = model.backward_decoder
    _, h_mean = encode([4, 5, 6], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    import math

    pre = np.array(dec.init_w.data) @ h_mean.data + dec.init_b.data
    assert np.allclose(s0.data, [math.tanh(x) for x in pre], atol=1e-12)
    assert np.all(np.abs(s0.data) < 1.0)


# ---------------------------------------------------------------- gradients


def test_encode_decode_composite_gradcheck(model):
    source = [4, 7, 5]

    def loss():
        H, h_mean = encode(source, model.encoder)
        s0 = init_decoder_state(h_mean, model.forward_decoder)
        s1, logits = decode_step(4, s0, H, model.forward_decoder)
        return ad.nll(logits, 6)

    # full parameter sweep is covered by the acceptance suite; here spot-check
    # a representative subset from every block
    params = dict(model.named_parameters())
    subset = [
        params["encoder.embedding"],
        params["encoder.fwd.u_h"],
        params["encoder.bwd.w_z"],
        params["forward.c_s"],
        params["forward.att_v"],
        params["forward.init_w"],
        params["forward.out_w"],
        params["forward.embedding"],
    ]
    assert check_gradients(loss, subset, eps=1e-5) < 1e-4


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(
        str(path), model,
        vocab_tokens=["alpha", "beta"],
        freq_counts={"alpha": 3, "beta": 1},
        freq_threshold=2.5,
    )
    loaded = load_checkpoint(str(path))
    assert isinstance(loaded, Checkpoint)
    assert loaded.model.config == model.config
    assert loaded.vocab_tokens == ["alpha", "beta"]
    assert loaded.freq_counts == {"alpha": 3, "beta": 1}
    assert loaded.frequency_table().threshold == 2.5
    for (name_a, a), (name_b, b) in zip(
        model.named_parameters(), loaded.model.named_parameters()
    ):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), name_a


def test_checkpoint_identical_forward_values(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model)
    loaded = load_checkpoint(str(path)).model
    H1, m1 = encode([4, 5, 6], model.encoder)
    H2, m2 = encode([4, 5, 6], loaded.encoder)
    assert np.array_equal(H1.data, H2.data)
    s1, d1 = decode_step(4, init_decoder_state(m1, model.forward_decoder), H1, model.forward_decoder)
    s2, d2 = decode_step(4, init_decoder_state(m2, loaded.forward_decoder), H2, loaded.forward_decoder)
    assert np.array_equal(d1.data, d2.data)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("not a checkpoint\n", encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "missing.ckpt"))


def test_checkpoint_rejects_truncation(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
