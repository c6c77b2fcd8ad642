import struct
import zipfile

import numpy as np
import pytest

from sentsimp import autodiff as ad
from sentsimp.corpus import PAD_ID, Vocabulary
from sentsimp.errors import CheckpointError, ContractError
from sentsimp.lexsub import FrequencyTable
from sentsimp.model import (
    Checkpoint,
    ModelConfig,
    Seq2SeqModel,
    beam_step,
    decode_step,
    decoder_stage,
    encode,
    init_decoder_state,
    load_checkpoint,
    output_logits,
    save_checkpoint,
)

from gradcheck import check_gradients
from resources import draw_biases, step1_resources
from oracles import (
    add,
    attention_composed,
    attention_loops,
    concat,
    decoder_step_loops,
    encode_loops,
    gru_step,
    gru_step_composed,
    gru_step_loops,
    matmul,
    mul,
    segment,
    softmax,
    tsum,
    zeros,
)

TINY = ModelConfig(vocab_size=9, embed_dim=2, hidden_dim=3)
# the columns of a `decode_step` row [embedding; state; context] under TINY
EMBEDDING, STATE, CONTEXT = slice(0, 2), slice(2, 5), slice(5, 11)


@pytest.fixture
def model():
    return Seq2SeqModel.create(TINY, seed=5)


def gru_as_dict(gru):
    """The per-gate matrices sliced out of the fused blocks, named as the oracle expects."""
    d = gru.u_h.shape[0]
    w, u_zr, b = gru.w.data, gru.u_zr.data, gru.b.data
    return {
        "w_z": w[:d].tolist(), "u_z": u_zr[:d].tolist(), "b_z": b[:d].tolist(),
        "w_r": w[d : 2 * d].tolist(), "u_r": u_zr[d:].tolist(), "b_r": b[d : 2 * d].tolist(),
        "w_h": w[2 * d :].tolist(), "u_h": gru.u_h.data.tolist(), "b_h": b[2 * d :].tolist(),
    }


def decoder_as_dict(dec):
    """As gru_as_dict, with each gate's input block split into the embedding
    part (w_*) and the context part (c_*); the candidate gate is named s."""
    e = dec.embedding.shape[1]
    gates = gru_as_dict(dec.gru)
    out = {}
    for gate, name in (("z", "z"), ("r", "r"), ("h", "s")):
        w = np.array(gates[f"w_{gate}"])
        out[f"w_{name}"] = w[:, :e].tolist()
        out[f"c_{name}"] = w[:, e:].tolist()
        out[f"u_{name}"] = gates[f"u_{gate}"]
        out[f"b_{name}"] = gates[f"b_{gate}"]
    out["att"] = {name: getattr(dec, f"att_{name}").data.tolist() for name in ("w", "u", "b", "v")}
    out["out_w"] = dec.out_w.data.tolist()
    out["out_b"] = dec.out_b.data.tolist()
    return out


# ---------------------------------------------------------------- shapes / config


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=4, embed_dim=2, hidden_dim=2)
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=9, embed_dim=0, hidden_dim=2)


def test_parameter_shapes(model):
    v, e, d = TINY.vocab_size, TINY.embed_dim, TINY.hidden_dim
    shapes = {name: t.shape for name, t in model.named_parameters()}
    assert len(shapes) == 35
    assert shapes["encoder.embedding"] == (v, e)
    for direction in ("fwd", "bwd"):
        assert shapes[f"encoder.{direction}.w"] == (3 * d, e)
        assert shapes[f"encoder.{direction}.u_zr"] == (2 * d, d)
        assert shapes[f"encoder.{direction}.u_h"] == (d, d)
        assert shapes[f"encoder.{direction}.b"] == (3 * d,)
    for side in ("backward", "forward"):
        assert shapes[f"{side}.gru.w"] == (3 * d, e + 2 * d)
        assert shapes[f"{side}.gru.u_zr"] == (2 * d, d)
        assert shapes[f"{side}.gru.u_h"] == (d, d)
        assert shapes[f"{side}.gru.b"] == (3 * d,)
        assert shapes[f"{side}.att_u"] == (d, 2 * d)
        assert shapes[f"{side}.init_w"] == (d, 2 * d)
        assert shapes[f"{side}.out_w"] == (v, e + d + 2 * d)


def test_decoders_are_independent(model):
    a = model.backward_decoder.gru.w.data
    b = model.forward_decoder.gru.w.data
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("dims, seed", [((9, 2, 3), 0), ((9, 2, 3), 5), ((9, 2, 3), 13), ((40, 16, 32), 5)])
def test_seeded_init_equals_stacked_per_gate_draws(dims, seed):
    # redraw the per-gate layout (one matrix per gate, drawn gate by gate)
    # and check every fused tensor is exactly those draws stacked
    v, e, d = dims
    model = Seq2SeqModel.create(ModelConfig(vocab_size=v, embed_dim=e, hidden_dim=d), seed=seed)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-0.08, 0.08, size=shape)

    def gates(*shape):  # update, reset, candidate
        return [draw(*shape) for _ in range(3)]

    expected = {"encoder.embedding": draw(v, e)}
    for direction in ("fwd", "bwd"):
        w, u = gates(d, e), gates(d, d)
        expected[f"encoder.{direction}.w"] = np.vstack(w)
        expected[f"encoder.{direction}.u_zr"] = np.vstack(u[:2])
        expected[f"encoder.{direction}.u_h"] = u[2]
        expected[f"encoder.{direction}.b"] = np.zeros(3 * d)
    for side in ("backward", "forward"):
        expected[f"{side}.embedding"] = draw(v, e)
        w, u, c = gates(d, e), gates(d, d), gates(d, 2 * d)
        expected[f"{side}.gru.w"] = np.hstack([np.vstack(w), np.vstack(c)])
        expected[f"{side}.gru.u_zr"] = np.vstack(u[:2])
        expected[f"{side}.gru.u_h"] = u[2]
        expected[f"{side}.gru.b"] = np.zeros(3 * d)
        expected[f"{side}.att_w"] = draw(d, d)
        expected[f"{side}.att_u"] = draw(d, 2 * d)
        expected[f"{side}.att_v"] = draw(d)
        expected[f"{side}.att_b"] = np.zeros(d)
        expected[f"{side}.init_w"] = draw(d, 2 * d)
        expected[f"{side}.init_b"] = np.zeros(d)
        expected[f"{side}.out_w"] = draw(v, e + 3 * d)
        expected[f"{side}.out_b"] = np.zeros(v)

    got = dict(model.named_parameters())
    assert list(got) == list(expected)
    for name, want in expected.items():
        assert np.array_equal(got[name].data, want), name


def test_seeded_init_is_reproducible():
    m1 = Seq2SeqModel.create(TINY, seed=11)
    m2 = Seq2SeqModel.create(TINY, seed=11)
    for (_, t1), (_, t2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(t1.data, t2.data)


# ---------------------------------------------------------------- encode


def test_encode_zero_weights_gives_zero_states(model):
    for _, t in model.named_parameters():
        t.data[...] = 0.0
    H, h_mean = encode([[4, 5, 6]], model.encoder)
    assert np.array_equal(H.data, np.zeros((3, 6)))
    assert np.array_equal(h_mean.data, np.zeros((1, 6)))


def test_encode_single_token_mean_equals_annotation(model):
    H, h_mean = encode([[7]], model.encoder)
    assert H.shape == (1, 6)
    assert np.allclose(H.data[0], h_mean.data, atol=0, rtol=0)


def test_encode_rejects_empty(model):
    with pytest.raises(ContractError):
        encode([[]], model.encoder)


def test_encode_matches_scalar_loop_oracle(model):
    source = [4, 8, 5, 7]
    H, h_mean = encode([source], model.encoder)
    ann, mean = encode_loops(
        source,
        model.encoder.embedding.data.tolist(),
        gru_as_dict(model.encoder.fwd),
        gru_as_dict(model.encoder.bwd),
    )
    assert np.allclose(H.data, ann, atol=1e-12, rtol=0)
    assert np.allclose(h_mean.data, mean, atol=1e-12, rtol=0)


def test_encode_matches_scalar_loop_oracle_with_biases(model):
    draw_biases(model, seed=21)
    source = [4, 8, 5, 7]
    H, h_mean = encode([source], model.encoder)
    ann, mean = encode_loops(
        source,
        model.encoder.embedding.data.tolist(),
        gru_as_dict(model.encoder.fwd),
        gru_as_dict(model.encoder.bwd),
    )
    assert np.allclose(H.data, ann, atol=1e-12, rtol=0)
    assert np.allclose(h_mean.data, mean, atol=1e-12, rtol=0)


def test_encode_rows_of_a_padded_batch_equal_one_source_encodes(model):
    """Each source of a padded batch has the annotations and mean of its own
    encode; on its pad rows the left-to-right half holds its last state and
    the right-to-left half is zero."""
    draw_biases(model, seed=22)
    sources = [[4, 8, 5], [6, 7, 4, 4, 5], [8]]
    H, h_mean = encode(sources, model.encoder)
    assert H.shape == (15, 6) and h_mean.shape == (3, 6)
    for b, source in enumerate(sources):
        k = len(source)
        H_one, mean_one = encode([source], model.encoder)
        block = H.data[b * 5 : b * 5 + 5]
        assert np.allclose(block[:k], H_one.data, rtol=0, atol=1e-12)
        assert np.allclose(h_mean.data[b], mean_one.data[0], rtol=0, atol=1e-12)
        assert np.array_equal(block[k:, :3], np.tile(block[k - 1, :3], (5 - k, 1)))
        assert not np.any(block[k:, 3:])


def test_encoder_gates_stay_in_range(model):
    # states are convex combinations of tanh outputs, so they stay in (-1, 1)
    H, _ = encode([[4, 5, 6, 7, 8]], model.encoder)
    assert np.all(np.abs(H.data) < 1.0)


# ---------------------------------------------------------------- attention


def attend(s, annotations, dec):
    """The attention read of the states s (B, dim) that the first step of a
    `decoder_scan` makes: the contexts (B, 2dim) and the weights (B, n)."""
    rows = s.shape[0]
    stage = decoder_stage(annotations, dec, [annotations.shape[0]])
    out, alpha = ad.decoder_scan([4] * rows, s, stage, [1] * rows)
    return ad.Tensor(out.data[:, CONTEXT]), alpha


def test_attend_identical_annotations_uniform(model):
    dec = model.forward_decoder
    row = np.linspace(-0.5, 0.5, 6)
    H = ad.Tensor(np.tile(row, (4, 1)))
    s = ad.Tensor(np.zeros((1, 3)))
    context, alpha = attend(s, H, dec)
    assert isinstance(alpha, np.ndarray)
    assert np.allclose(alpha, 0.25, atol=1e-12)
    assert np.allclose(context.data, row, atol=1e-12)


def test_attend_single_annotation(model):
    H, _ = encode([[5]], model.encoder)
    s = ad.Tensor(np.zeros((1, 3)))
    dec = model.backward_decoder
    context, alpha = attend(s, H, dec)
    assert alpha.tolist() == [[1.0]]
    assert np.allclose(context.data, H.data[0], atol=1e-15)


def test_attend_matches_scalar_loop_oracle(model):
    H, _ = encode([[4, 6, 8]], model.encoder)
    rng = np.random.default_rng(3)
    s = ad.Tensor(rng.uniform(-1, 1, size=(1, 3)))
    dec = model.forward_decoder
    dec.att_b.data[...] = rng.uniform(-1, 1, size=3)  # a bias the zero init would hide
    context, alpha = attend(s, H, dec)
    ctx_o, alpha_o = attention_loops(s.data[0].tolist(), H.data.tolist(), decoder_as_dict(model.forward_decoder)["att"])
    assert np.allclose(alpha, alpha_o, atol=1e-12)
    assert np.allclose(context.data, ctx_o, atol=1e-12)


def test_attend_permutation_covariant(model):
    H, _ = encode([[4, 5, 6, 7]], model.encoder)
    s = ad.Tensor(np.random.default_rng(9).uniform(-1, 1, size=(1, 3)))
    dec = model.forward_decoder
    context, alpha = attend(s, H, dec)
    perm = [2, 0, 3, 1]
    H_perm = ad.Tensor(H.data[perm])
    context_p, alpha_p = attend(s, H_perm, dec)
    assert np.allclose(alpha_p, alpha[:, perm], atol=1e-12)
    assert np.allclose(context_p.data, context.data, atol=1e-12)


# ---------------------------------------------------------------- decode_step


def step_with_logits(tokens, s_prev, annotations, dec):
    """One `decode_step` of B rows, one token each, and `output_logits` of
    its rows, as the beam steps: the new states (B, dim) and the logits
    (B, V). The stage is built here, so a gradient check that changes the
    annotations or the weights between calls reaches it."""
    rows = decode_step([[tok] for tok in tokens], s_prev, decoder_stage(annotations, dec, [annotations.shape[0]]))
    return segment(rows, STATE.start, STATE.stop), output_logits(rows, dec)


def test_decode_step_zero_weights_uniform_dist(model):
    for _, t in model.named_parameters():
        t.data[...] = 0.0
    H, h_mean = encode([[4, 5]], model.encoder)
    dec = model.forward_decoder
    s0 = init_decoder_state(h_mean, dec)
    _, logits = step_with_logits([4], s0, H, dec)
    assert np.allclose(softmax(logits).data, 1.0 / TINY.vocab_size, atol=1e-15)


def test_decode_step_dist_sums_to_one(model):
    H, h_mean = encode([[4, 5, 6]], model.encoder)
    dec = model.backward_decoder
    s = init_decoder_state(h_mean, dec)
    for tok in (4, 7, 8):
        s, logits = step_with_logits([tok], s, H, dec)
        dist = softmax(logits)
        assert abs(dist.data.sum() - 1.0) <= 1e-12
        assert np.all(dist.data > 0)
        assert np.all(np.abs(s.data) < 1.0)  # convex combination of tanh values


def test_decode_step_matches_scalar_loop_oracle(model):
    dec = model.forward_decoder
    H, h_mean = encode([[5, 7]], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    s1, logits = step_with_logits([6], s0, H, dec)
    prev_emb = dec.embedding.data.tolist()[6]
    s_o, dist_o, _ = decoder_step_loops(prev_emb, s0.data[0].tolist(), H.data.tolist(), decoder_as_dict(dec))
    assert np.allclose(s1.data, s_o, atol=1e-12)
    assert np.allclose(softmax(logits).data, dist_o, atol=1e-12)


def test_decode_step_matches_scalar_loop_oracle_with_biases(model):
    """Three given tokens in one `decode_step`: each row's state and
    next-token distribution are the scalar-loop oracle's."""
    draw_biases(model, seed=23)
    dec = model.backward_decoder
    H, h_mean = encode([[5, 7, 4]], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    tokens = [6, 4, 8]
    rows = decode_step([tokens], s0, decoder_stage(H, dec, [H.shape[0]]))
    dist = softmax(output_logits(rows, dec)).data
    state = s0.data[0].tolist()
    for t, tok in enumerate(tokens):
        emb = dec.embedding.data[tok].tolist()
        state, dist_o, _ = decoder_step_loops(emb, state, H.data.tolist(), decoder_as_dict(dec))
        assert np.allclose(rows.data[t, STATE], state, atol=1e-12)
        assert np.allclose(dist[t], dist_o, atol=1e-12)


def test_decode_step_over_given_tokens_equals_one_token_calls(model):
    """Rows of 3 and 1 given tokens in one call: bit for bit the states and
    contexts of one-token calls, and the shorter row keeps its last state."""
    dec = model.forward_decoder
    H, h_mean = encode([[4, 6, 5]], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    stage = decoder_stage(H, dec, [3])
    out = decode_step([[7, 4, 8]], s0, stage)
    state = s0
    for t, tok in enumerate([7, 4, 8]):
        one = decode_step([[tok]], state, stage)
        assert np.array_equal(out.data[t], one.data[0])
        state = ad.Tensor(one.data[:, STATE])
    rows = ad.stack([s0, state])
    ragged = decode_step([[7, 4, 8], [5]], rows, stage)
    five = decode_step([[5]], state, stage)
    assert np.allclose(ragged.data[:3], out.data, rtol=0, atol=1e-12)
    assert np.allclose(ragged.data[3], five.data[0], rtol=0, atol=1e-12)
    assert np.array_equal(ragged.data[4:, STATE], np.tile(ragged.data[3, STATE], (2, 1)))


def test_decode_step_rows_are_the_output_layers_input(model):
    """Rows of 3 and 1 given tokens: the first E columns of each step's row
    are the embedding of the token it consumed (the pad id past a row's
    last token) bit for bit, and `output_logits` of the rows is the output
    layer's affine map of [embedding; state; context] joined by the
    oracle, bit for bit."""
    draw_biases(model, seed=31)
    dec = model.backward_decoder
    H, h_mean = encode([[4, 6, 5]], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    rows = decode_step([[7, 4, 8], [5]], ad.stack([s0, s0]), decoder_stage(H, dec, [3]))
    ids = [7, 4, 8, 5, PAD_ID, PAD_ID]
    assert np.array_equal(rows.data[:, EMBEDDING], dec.embedding.data[ids])
    state, context = ad.Tensor(rows.data[:, STATE]), ad.Tensor(rows.data[:, CONTEXT])
    joined = concat([ad.take_rows(dec.embedding, ids), state, context])
    assert np.array_equal(output_logits(rows, dec).data, ad.affine(joined, dec.out_w, dec.out_b).data)


def batch_inputs(model, seed=4, rows=4):
    H, _ = encode([[4, 6, 5, 8]], model.encoder)
    rng = np.random.default_rng(seed)
    states = ad.Tensor(rng.uniform(-1, 1, size=(rows, 3)))
    tokens = [int(t) for t in rng.integers(0, TINY.vocab_size, size=rows)]
    return H, states, tokens


@pytest.mark.parametrize("side", ["forward", "backward"])
def test_decode_step_rows_equal_one_row_calls(model, side):
    dec = getattr(model, f"{side}_decoder")
    H, states, tokens = batch_inputs(model)
    s_all, logits_all = step_with_logits(tokens + [tokens[0]], ad.stack([states, ad.take_rows(states, [0])]), H, dec)
    assert s_all.shape == (5, 3) and logits_all.shape == (5, TINY.vocab_size)
    for b, tok in enumerate(tokens):
        s_one, logits_one = step_with_logits([tok], ad.take_rows(states, [b]), H, dec)
        assert np.allclose(s_all.data[b], s_one.data[0], rtol=0, atol=1e-12)
        assert np.allclose(logits_all.data[b], logits_one.data[0], rtol=0, atol=1e-12)
    assert np.allclose(s_all.data[4], s_all.data[0], rtol=0, atol=1e-12)  # a repeated row


def test_attend_rows_equal_one_row_calls_and_oracle(model):
    dec = model.backward_decoder
    H, states, _ = batch_inputs(model, seed=6)
    context, alpha = attend(states, H, dec)
    att = decoder_as_dict(dec)["att"]
    for b in range(states.shape[0]):
        ctx_one, alpha_one = attend(ad.take_rows(states, [b]), H, dec)
        assert np.allclose(context.data[b], ctx_one.data[0], rtol=0, atol=1e-12)
        assert np.allclose(alpha[b], alpha_one[0], rtol=0, atol=1e-12)
        ctx_o, alpha_o = attention_loops(states.data[b].tolist(), H.data.tolist(), att)
        assert np.allclose(alpha[b], alpha_o, atol=1e-12)
        assert np.allclose(context.data[b], ctx_o, atol=1e-12)


def test_gru_step_rows_match_scalar_loop_oracle(model):
    gru = model.encoder.fwd
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.uniform(-1, 1, size=(3, TINY.embed_dim)))
    h_prev = ad.Tensor(rng.uniform(-1, 1, size=(3, 3)))
    h = gru_step(ad.affine(x, gru.w, gru.b), h_prev, gru.u_zr, gru.u_h)
    for b in range(3):
        want = gru_step_loops(x.data[b].tolist(), h_prev.data[b].tolist(), gru_as_dict(gru))
        assert np.allclose(h.data[b], want, rtol=0, atol=1e-12)


def decode_step_composed(prev_tokens, s_prev, annotations, dec, whole_w=False):
    """One-token `decode_step`'s rows [embedding; state; context], with the GRU step
    and the attention read composed of primitive ops. Each row's read of
    the source is its own one-row product, as in `decoder_scan`, where
    every row reads its source block by broadcasting. The GRU input is
    associated as in `decoder_scan`: the embedding half e_prev @ w[:, :E].T
    + b plus each row's read of the annotations mapped by the context
    weights w[:, E:]. With whole_w it is associated as an earlier design
    did: [embedding; context] through the whole w. The attention keys are
    one `affine` map of the annotations."""
    e_prev = ad.take_rows(dec.embedding, prev_tokens)
    keys = ad.affine(annotations, dec.att_u, dec.att_b)
    _, alpha = attention_composed(s_prev, keys, annotations, dec.att_w, dec.att_v)

    def read(rows):
        return ad.stack([matmul(ad.take_rows(alpha, [b]), rows) for b in range(alpha.shape[0])])

    context = read(annotations)
    w, emb = dec.gru.w, e_prev.shape[1]
    if whole_w:
        gx = ad.affine(concat([e_prev, context]), w, dec.gru.b)
    else:
        mapped = ad.affine(annotations, segment(w, emb, w.shape[1]), zeros((w.shape[0],)))
        gx = add(ad.affine(e_prev, segment(w, 0, emb), dec.gru.b), read(mapped))
    return concat([e_prev, gru_step_composed(gx, s_prev, dec.gru.u_zr, dec.gru.u_h), context])


@pytest.mark.parametrize("rows", [1, 4])
def test_decode_step_equals_composed_oracle(model, rows):
    """The rows [embedding; state; context] of the composed oracle bit for bit, and
    every gradient within 1e-12 of its largest entry; the earlier design's
    concat-form composition within 1e-15, its gradients within 1e-12."""
    dec = model.forward_decoder
    _, states, tokens = batch_inputs(model, seed=12, rows=rows)
    annotations = ad.Tensor(np.random.default_rng(12).uniform(-1, 1, size=(4, 6)))
    weights = ad.Tensor(np.random.default_rng(13).uniform(-1, 1, size=(rows, 11)))
    leaves = [states, annotations, *(t for name, t in model.named_parameters() if name.startswith("forward."))]
    runs = []

    def one_token_step(tokens, s_prev, annotations, dec):
        stage = decoder_stage(annotations, dec, [annotations.shape[0]])
        return decode_step([[tok] for tok in tokens], s_prev, stage)

    def whole_w_composed(*args):
        return decode_step_composed(*args, whole_w=True)

    for step in (one_token_step, decode_step_composed, whole_w_composed):
        for t in leaves:
            t.zero_grad()
        with ad.Tape() as tape:
            s1 = step(tokens, states, annotations, dec)
            tape.backward(tsum(mul(s1, weights)))
        runs.append((s1.data, [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in leaves]))
    (got, got_grads), (want, want_grads), (earlier, earlier_grads) = runs
    assert np.array_equal(got, want)
    assert np.max(np.abs(got - earlier)) <= 1e-15
    for g, w, x in zip(got_grads, want_grads, earlier_grads):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
        assert np.max(np.abs(g - x)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("rows", [1, 4])
def test_untaped_decode_step_dispatches_one_op(model, monkeypatch, rows):
    """One `decoder_scan`, which looks up its own tokens, for one token per
    row as for three: a split of the scan, or a lookup outside it, fails
    this."""
    dec = model.backward_decoder
    H, states, tokens = batch_inputs(model, seed=14, rows=rows)
    calls = []
    real = ad._emit
    monkeypatch.setattr(ad, "_emit", lambda *args: calls.append(None) or real(*args))
    stage = decoder_stage(H, dec, [H.shape[0]])
    assert not calls
    for width in (1, 3):
        calls.clear()
        out = decode_step([[tok] * width for tok in tokens], states, stage)
        assert len(calls) == 1
        assert out.shape == (rows * width, 11)


@pytest.mark.parametrize("cfg", [TINY, ModelConfig(vocab_size=53, embed_dim=16, hidden_dim=32)], ids=["tiny", "E16-H32"])
@pytest.mark.parametrize("side", ["forward", "backward"])
def test_beam_step_equals_decode_step_and_output_logits(cfg, side):
    """`beam_step` on a `decoder_stage` against a one-token-per-row
    `decode_step` on the same stage, then `output_logits` and
    `log_softmax`, for 1 to 6 rows: the new states and the
    log-probabilities bit for bit."""
    net = Seq2SeqModel.create(cfg, seed=7)
    dec = getattr(net, f"{side}_decoder")
    H, _ = encode([[4, 6, 5, 8, 7]], net.encoder)
    stage = decoder_stage(H, dec, [H.shape[0]])
    rng = np.random.default_rng(15)
    state_cols = slice(cfg.embed_dim, cfg.embed_dim + cfg.hidden_dim)
    for rows in range(1, 7):
        states = rng.uniform(-1, 1, size=(rows, cfg.hidden_dim))
        tokens = [int(t) for t in rng.integers(0, cfg.vocab_size, size=rows)]
        got_states, got_log_probs = beam_step(stage, tokens, states, dec)
        out = decode_step([[tok] for tok in tokens], ad.Tensor(states), stage)
        assert np.array_equal(got_states, out.data[:, state_cols])
        assert np.array_equal(got_log_probs, ad.log_softmax(output_logits(out, dec).data))


def test_beam_step_rejects_token_ids_out_of_range(model):
    dec = model.forward_decoder
    H, states, _ = batch_inputs(model, rows=2)
    stage = decoder_stage(H, dec, [H.shape[0]])
    for tokens in ([], [4, TINY.vocab_size], [-1, 4]):
        with pytest.raises(ContractError):
            beam_step(stage, tokens, states.data[: len(tokens)], dec)


def test_beam_step_rejects_another_decoders_params(model):
    """The stage carries its decoder's embedding, attention and GRU, and
    beam_step's params give the output layer: the backward decoder's
    output layer on a forward decoder's stage is refused, not mixed."""
    H, states, _ = batch_inputs(model, rows=2)
    stage = decoder_stage(H, model.forward_decoder, [H.shape[0]])
    with pytest.raises(ContractError):
        beam_step(stage, [4, 5], states.data, model.backward_decoder)
    assert beam_step(stage, [4, 5], states.data, model.forward_decoder)[1].shape == (2, TINY.vocab_size)


def test_decode_step_rows_gradcheck(model):
    dec = model.forward_decoder
    H, states, tokens = batch_inputs(model, seed=10, rows=3)

    def loss():
        s1, logits = step_with_logits(tokens, states, H, dec)
        return add(ad.nll(logits, [5, 6, 5]), tsum(mul(s1, s1)))

    params = [states, dec.embedding, dec.gru.w, dec.gru.u_zr, dec.gru.u_h, dec.gru.b,
              dec.att_w, dec.att_u, dec.att_v, dec.att_b, dec.out_w, dec.out_b]
    assert check_gradients(loss, params, eps=1e-5) < 1e-4


# ---------------------------------------------------------------- init state


def test_init_state_zero_cases(model):
    dec = model.forward_decoder
    assert np.array_equal(init_decoder_state(zeros((1, 6)), dec).data, np.zeros((1, 3)))
    dec.init_w.data[...] = 0.0
    dec.init_b.data[...] = 0.0
    H, h_mean = encode([[4, 8]], model.encoder)
    assert np.array_equal(init_decoder_state(h_mean, dec).data, np.zeros((1, 3)))


def test_init_state_matches_oracle_and_range(model):
    dec = model.backward_decoder
    _, h_mean = encode([[4, 5, 6]], model.encoder)
    s0 = init_decoder_state(h_mean, dec)
    import math

    pre = np.array(dec.init_w.data) @ h_mean.data[0] + dec.init_b.data
    assert np.allclose(s0.data, [[math.tanh(x) for x in pre]], atol=1e-12)
    assert np.all(np.abs(s0.data) < 1.0)


# ---------------------------------------------------------------- gradients


def test_encode_decode_composite_gradcheck(model):
    source = [4, 7, 5]

    def loss():
        H, h_mean = encode([source], model.encoder)
        dec = model.forward_decoder
        s0 = init_decoder_state(h_mean, dec)
        s1, logits = step_with_logits([4], s0, H, dec)
        return ad.nll(logits, [6])

    # full parameter sweep is covered by the acceptance suite; here spot-check
    # a representative subset that includes every fused GRU block
    params = dict(model.named_parameters())
    names = [
        "encoder.embedding",
        "encoder.fwd.w", "encoder.bwd.u_zr", "encoder.fwd.u_h", "encoder.bwd.b",
        "forward.gru.w", "forward.gru.u_zr", "forward.gru.u_h", "forward.gru.b",
        "forward.att_u", "forward.att_v", "forward.init_w", "forward.out_w", "forward.embedding",
    ]
    subset = [params[name] for name in names]
    assert check_gradients(loss, subset, eps=1e-5) < 1e-4


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path, model):
    path = saved_checkpoint(tmp_path, model)
    loaded = load_checkpoint(str(path))
    assert isinstance(loaded, Checkpoint)
    assert loaded.model.config == model.config
    assert loaded.vocab.kept_tokens() == ["alpha", "beta"]
    assert loaded.vocab.max_size == model.config.vocab_size
    assert loaded.freq_table.counts == {"alpha": 3, "beta": 1}
    assert loaded.freq_table.threshold == 2.5
    for (name_a, a), (name_b, b) in zip(
        model.named_parameters(), loaded.model.named_parameters()
    ):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), name_a


def test_checkpoint_identical_forward_values(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, *step1_resources(model))
    loaded = load_checkpoint(str(path)).model
    H1, m1 = encode([[4, 5, 6]], model.encoder)
    H2, m2 = encode([[4, 5, 6]], loaded.encoder)
    assert np.array_equal(H1.data, H2.data)
    f1, f2 = model.forward_decoder, loaded.forward_decoder
    s1, d1 = step_with_logits([4], init_decoder_state(m1, f1), H1, f1)
    s2, d2 = step_with_logits([4], init_decoder_state(m2, f2), H2, f2)
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
    save_checkpoint(str(path), model, *step1_resources(model))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def saved_checkpoint(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, *step1_resources(model, ["alpha", "beta"], {"alpha": 3, "beta": 1}, 2.5))
    return path


def rewrite_members(path, **changes):
    """Rewrite the archive at path with some members replaced (None drops
    one); every member keeps a valid CRC, so only the loader's own checks
    can refuse the result."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    members.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{name: value for name, value in members.items() if value is not None})


def member_data_spans(path):
    """{member name: (first, end) byte offsets of its stored .npy bytes}."""
    data = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        spans = {}
        for info in zf.infolist():
            name_len, extra_len = struct.unpack("<HH", data[info.header_offset + 26 : info.header_offset + 30])
            first = info.header_offset + 30 + name_len + extra_len
            spans[info.filename.removesuffix(".npy")] = (first, first + info.compress_size)
    return spans


def test_checkpoint_cut_at_spread_of_offsets_raises_checkpoint_error(tmp_path, model):
    path = saved_checkpoint(tmp_path, model)
    data = path.read_bytes()
    cuts = {0, 1, len(data) - 1} | set(np.linspace(0, len(data) - 1, 97).astype(int).tolist())
    cuts |= {end for _, end in member_data_spans(path).values()} - {len(data)}
    for keep in sorted(cuts):
        path.write_bytes(data[:keep])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value), keep


def test_checkpoint_flipped_byte_in_each_parameter_member_raises(tmp_path, model):
    path = saved_checkpoint(tmp_path, model)
    data = path.read_bytes()
    spans = member_data_spans(path)
    for name, _ in model.named_parameters():
        first, end = spans[name]
        for offset in (first + (end - first) // 2, end - 1):  # a value byte inside the array
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(str(path))
            assert str(path) in str(err.value) and repr(name) in str(err.value), (name, offset)


# corruption -> (member rewritten, its new value from the embedding e or None
# to drop it, the word the error must name)
_CORRUPTIONS = {
    "nan": ("encoder.embedding", lambda e: np.where(e == e.flat[1], np.nan, e), "encoder.embedding"),
    "count": ("freq.counts", lambda e: np.array([3.0, 1.0]), "freq.counts"),
    "shape": ("encoder.embedding", lambda e: np.ascontiguousarray(e.T), "encoder.embedding"),
    "freq_row": ("freq.counts", lambda e: np.array([3], dtype=np.int64), "freq.counts"),
    "empty_threshold": ("freq_threshold", lambda e: np.array([], dtype=np.float64), "member 'freq_threshold'"),
    "two_thresholds": ("freq_threshold", lambda e: np.array([1.0, 2.0]), "member 'freq_threshold'"),
    "nan_threshold": ("freq_threshold", lambda e: np.array([np.nan]), "member 'freq_threshold'"),
    "negative_count": ("freq.counts", lambda e: np.array([3, -1]), "member 'freq.counts'"),
    "reserved_token": ("vocab", lambda e: np.frombuffer(b"alpha\n<s>", dtype=np.uint8), "member 'vocab'"),
    "vocab_overflow": ("vocab", lambda e: np.frombuffer(b"a\nb\nc\nd\ne\nf", dtype=np.uint8), "member 'vocab'"),
    "config": ("config.vocab_size", lambda e: np.int64(3), "vocab_size"),
    "missing": ("forward.out_b", lambda e: None, "forward.out_b"),
    "unexpected": ("forward.extra", lambda e: np.zeros(2), "forward.extra"),
    "dtype": ("encoder.embedding", lambda e: e.astype(np.float32), "encoder.embedding"),
}


def test_checkpoint_flipped_bit_in_zip_headers_is_refused_or_harmless(tmp_path, model):
    """Header fields carry no CRC: every bit flip in one member's local header
    and central directory entry must raise CheckpointError or load the same
    parameters (a changed timestamp, say)."""
    path = saved_checkpoint(tmp_path, model)
    data = path.read_bytes()
    name = b"encoder.embedding.npy"
    local = data.index(name) - 30
    central = data.index(name, local + 31) - 46
    first, _ = member_data_spans(path)["encoder.embedding"]
    offsets = [*range(local, first), *range(central, central + 46 + len(name))]
    for offset in offsets:
        for bit in range(8):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                loaded = load_checkpoint(str(path)).model
            except CheckpointError as err:
                assert str(path) in str(err)
                continue
            for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
                assert np.array_equal(a.data, b.data), (offset, bit)


@pytest.mark.parametrize("corruption", ["value", *_CORRUPTIONS])
def test_checkpoint_corruption_raises_checkpoint_error_naming_the_member(tmp_path, model, corruption):
    path = saved_checkpoint(tmp_path, model)
    if corruption == "value":  # a flipped bit; the member's CRC-32 no longer matches
        _, end = member_data_spans(path)["encoder.embedding"]
        data = bytearray(path.read_bytes())
        data[end - 3] ^= 0x10
        path.write_bytes(bytes(data))
        named = "encoder.embedding"
    else:
        member, make, named = _CORRUPTIONS[corruption]
        rewrite_members(path, **{member: make(model.encoder.embedding.data)})
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value) and named in str(err.value)


def test_checkpoint_refuses_v1_header(tmp_path, model):
    """Only a `seq2seq-ckpt v6` archive loads: text checkpoints (v1, v2), a
    v3 archive (which also held `config.beam_size`), a v4 archive (which
    also held `config.max_decode_len`), a v5 archive (which stored each
    `att_u` as (2H, H)), a bare .npy, an empty file, a zip of raw bytes and
    archives with another format are refused."""
    path = saved_checkpoint(tmp_path, model)
    with np.load(path, allow_pickle=False) as archive:
        assert str(archive["format"]) == "seq2seq-ckpt v6"
        assert not {"config.beam_size", "config.max_decode_len"} & set(archive.files)
    foreign = {
        "v1.ckpt": b"seq2seq-ckpt v1\nconfig vocab_size 9\n",
        "v2.ckpt": b"seq2seq-ckpt v2\nconfig vocab_size 9\nvocab 0\nfreq 0\nend\n",
        "empty.ckpt": b"",
    }
    for name, content in foreign.items():
        (tmp_path / name).write_bytes(content)
    np.save(tmp_path / "bare.npy", np.zeros(3))
    np.savez(tmp_path / "other.npz", weights=np.zeros(3))
    with zipfile.ZipFile(tmp_path / "raw.zip", "w") as zf:
        zf.writestr("format.npy", b"seq2seq-ckpt v6")
    older = {
        "v3.ckpt": {"format": np.array("seq2seq-ckpt v3"), "config.beam_size": np.int64(5),
                    "config.max_decode_len": np.int64(100)},
        "v4.ckpt": {"format": np.array("seq2seq-ckpt v4"), "config.max_decode_len": np.int64(100)},
        "v5.ckpt": {"format": np.array("seq2seq-ckpt v5"), "backward.att_u": model.backward_decoder.att_u.data.T,
                    "forward.att_u": model.forward_decoder.att_u.data.T},
    }
    for name, members in older.items():
        (tmp_path / name).write_bytes(path.read_bytes())
        rewrite_members(tmp_path / name, **members)
    rewrite_members(path, format=np.array("seq2seq-ckpt v2"))
    for name in [*foreign, "bare.npy", "other.npz", "raw.zip", *older, path.name]:
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(tmp_path / name))
        assert str(tmp_path / name) in str(err.value)
        if name in older:
            assert "member 'format'" in str(err.value) and "seq2seq-ckpt v6" in str(err.value)


def test_checkpoint_token_with_trailing_nul_round_trips(tmp_path, model):
    path = tmp_path / "model.ckpt"
    tokens = ["a\x00", "\x00b", "é", "c"]
    save_checkpoint(str(path), model, *step1_resources(model, tokens, {"a\x00": 2, "c": 1}))
    loaded = load_checkpoint(str(path))
    assert loaded.vocab.kept_tokens() == tokens
    assert loaded.freq_table.counts == {"a\x00": 2, "c": 1}


def test_checkpoint_refuses_tokens_it_cannot_keep(tmp_path, model):
    for bad in (["a\nb"], [""]):
        with pytest.raises(ContractError):
            save_checkpoint(str(tmp_path / "model.ckpt"), model, *step1_resources(model, bad))


def test_checkpoint_empty_vocab_and_frequency_table_round_trip(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, *step1_resources(model, [], {}))
    loaded = load_checkpoint(str(path))
    assert loaded.vocab.kept_tokens() == [] and loaded.freq_table.counts == {}


@pytest.mark.parametrize("threshold", [0.0, 2.5, 1e-300])
def test_checkpoint_freq_threshold_round_trips(tmp_path, model, threshold):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model, *step1_resources(model, ["a"], {"a": 1}, threshold))
    assert load_checkpoint(str(path)).freq_table.threshold == threshold


def test_checkpoint_refuses_a_vocabulary_larger_than_the_model(tmp_path, model):
    vocab = Vocabulary(list("abcdef"), max_size=10)  # 10 ids; the model's output layer has 9
    with pytest.raises(ContractError, match="vocab_size"):
        save_checkpoint(str(tmp_path / "model.ckpt"), model, vocab, FrequencyTable({}, 0.0))
    assert not (tmp_path / "model.ckpt").exists()
