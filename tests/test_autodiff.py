from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp import autodiff as ad
from sentsimp.errors import ContractError, DimensionError, NumericError

from gradcheck import check_gradients, finite_difference, max_relative_error
from oracles import (
    add,
    attention,
    attention_composed,
    attention_energies,
    backward_dense,
    concat,
    decoder_scan_per_step,
    gru_step,
    gru_step_composed,
    matmul,
    matmul_loops,
    mul,
    one_minus,
    run_gru,
    segment,
    sigmoid,
    sigmoid_scalar,
    softmax,
    softmax_loops,
    tsum,
)


def rnd(shape, seed=0):
    rng = np.random.default_rng(seed)
    return ad.Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    eye = ad.Tensor(np.eye(2))
    m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert matmul(eye, m).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matmul_projector():
    p = ad.Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = ad.Tensor([[5.0], [7.0]])
    assert matmul(p, v).data.tolist() == [[5.0], [0.0]]


def test_matmul_matches_triple_loop_oracle():
    a = rnd((3, 4), seed=1)
    b = rnd((4, 2), seed=2)
    expected = matmul_loops(a.data.tolist(), b.data.tolist())
    got = matmul(a, b).data.tolist()
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        matmul(rnd((2, 3)), rnd((2, 3)))
    assert "(2, 3)" in str(err.value)


def test_matmul_rejects_vectors():
    for shape_a, shape_b in (((3, 4), (4,)), ((3,), (3, 5)), ((3,), (3,))):
        with pytest.raises(DimensionError):
            matmul(rnd(shape_a), rnd(shape_b))


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((3, 4), (4, 2)), ((3, 4), (4, 1)), ((1, 3), (3, 5))],
)
def test_matmul_gradients(shape_a, shape_b):
    a, b = rnd(shape_a, seed=3), rnd(shape_b, seed=4)

    def loss():
        return tsum(matmul(a, b))

    assert check_gradients(loss, [a, b]) < 1e-4


# ---------------------------------------------------------------- affine


def test_affine_matches_triple_loop_oracle():
    x, w, b = rnd((3, 4), seed=1), rnd((2, 4), seed=2), rnd((2,), seed=3)
    product = matmul_loops(x.data.tolist(), [list(col) for col in zip(*w.data.tolist())])
    expected = [[p + bias for p, bias in zip(row, b.data.tolist())] for row in product]
    assert np.allclose(ad.affine(x, w, b).data, expected, rtol=0, atol=1e-12)


def test_affine_gradients():
    x, w, b = rnd((3, 4), seed=5), rnd((2, 4), seed=6), rnd((2,), seed=7)

    def loss():
        out = ad.affine(x, w, b)
        return tsum(mul(out, out))

    assert check_gradients(loss, [x, w, b]) < 1e-4


def test_affine_shape_checks():
    x, w = rnd((3, 4)), rnd((2, 4))
    # the bias is one row (out,), never a matrix, even one of the output's shape
    for args in ((x, rnd((4, 2)), rnd((2,))), (x, w, rnd((4,))), (x, w, rnd((2, 2))), (x, w, rnd((3, 2))),
                 (rnd((4,)), w, rnd((2,)))):
        with pytest.raises(DimensionError):
            ad.affine(*args)


# ---------------------------------------------------------------- elementwise


def test_sigmoid_and_tanh_at_zero():
    z = ad.Tensor([0.0])
    assert sigmoid(z).data.tolist() == [0.5]
    assert ad.tanh(z).data.tolist() == [0.0]


def test_sigmoid_matches_scalar_oracle():
    x = ad.Tensor([1.0])
    assert sigmoid(x).item() == pytest.approx(sigmoid_scalar(1.0), abs=1e-15)
    assert sigmoid(x).item() == pytest.approx(0.7310585786300049, abs=1e-15)


def test_binary_ops_require_equal_shapes():
    for op in (add, mul):
        with pytest.raises(DimensionError):
            op(rnd((2,)), rnd((3,)))


def test_elementwise_values():
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([3.0, 5.0])
    assert add(a, b).data.tolist() == [4.0, 7.0]
    assert mul(a, b).data.tolist() == [3.0, 10.0]
    assert one_minus(a).data.tolist() == [0.0, -1.0]


@pytest.mark.parametrize("op", [sigmoid, ad.tanh, one_minus])
def test_unary_gradients(op):
    x = rnd((4,), seed=5)

    def loss():
        return tsum(op(x))

    assert check_gradients(loss, [x]) < 1e-4


# ---------------------------------------------------------------- softmax


def test_softmax_equal_energies():
    out = softmax(ad.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = softmax(ad.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_matches_scalar_oracle():
    got = softmax(ad.Tensor([1.0, 2.0, 3.0])).data.tolist()
    assert got == pytest.approx(softmax_loops([1.0, 2.0, 3.0]), abs=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax(ad.Tensor([0.0, np.inf]))


def test_softmax_is_row_wise():
    rows = [[1.0, 2.0, 3.0], [0.0, -5.0, 40.0]]
    got = softmax(ad.Tensor(rows)).data
    for row, want in zip(got, rows):
        assert row.tolist() == pytest.approx(softmax_loops(want), abs=1e-15)
    assert np.allclose(np.exp(ad.log_softmax(np.array(rows))), got, rtol=0, atol=1e-15)


def test_softmax_rows_gradient():
    x = rnd((3, 4), seed=13)
    weights = ad.Tensor(np.arange(12.0).reshape(3, 4) - 5.0)

    def loss():
        return tsum(mul(softmax(x), weights))

    assert check_gradients(loss, [x]) < 1e-4


@settings(max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_sums_to_one(xs):
    out = softmax(ad.Tensor(xs))
    assert abs(out.data.sum() - 1.0) <= 1e-12
    assert np.all(out.data > 0)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=6).flatmap(
        lambda xs: st.permutations(range(len(xs))).map(lambda p: (xs, list(p)))
    )
)
def test_softmax_permutation_equivariant(case):
    xs, perm = case
    direct = softmax(ad.Tensor([xs[i] for i in perm])).data.tolist()
    permuted = softmax(ad.Tensor(xs)).data.tolist()
    assert direct == pytest.approx([permuted[i] for i in perm], abs=1e-12)


def test_softmax_gradient():
    x = rnd((5,), seed=6)
    weights = ad.Tensor([0.0, -1.0, 2.0, 0.5, 0.0])

    def loss():
        return tsum(mul(softmax(x), weights))

    assert check_gradients(loss, [x]) < 1e-4


# ---------------------------------------------------------------- nll


def test_nll_matches_scalar_oracle():
    xs = [1.0, -2.0, 3.0, 0.5]
    for target in range(len(xs)):
        got = ad.nll(ad.Tensor([xs]), [target]).item()
        assert got == pytest.approx(-np.log(softmax_loops(xs)[target]), abs=1e-14)
    rows = [xs, [0.0, 4.0, -1.0, 2.0], [3.0, 3.0, 3.0, 3.0]]
    targets = [2, 0, 3]
    expected = sum(-np.log(softmax_loops(row)[t]) for row, t in zip(rows, targets))
    assert ad.nll(ad.Tensor(rows), targets).item() == pytest.approx(expected, abs=1e-13)


def test_nll_gradient():
    x = rnd((1, 5), seed=12)

    def loss():
        return ad.nll(x, [3])

    assert check_gradients(loss, [x]) < 1e-4


def test_nll_rows_gradient():
    x = rnd((3, 5), seed=14)

    def loss():
        return ad.nll(x, [3, 0, 3])

    assert check_gradients(loss, [x]) < 1e-4


def test_nll_rejects_nonfinite_and_bad_target():
    with pytest.raises(NumericError):
        ad.nll(ad.Tensor([[0.0, np.inf]]), [0])
    with pytest.raises(ContractError):
        ad.nll(ad.Tensor([[0.0, 1.0]]), [2])
    with pytest.raises(DimensionError):
        ad.nll(ad.Tensor([0.0, 1.0]), [0])
    with pytest.raises(DimensionError):
        ad.nll(ad.Tensor([[0.0, 1.0]]), [0, 1])


# ---------------------------------------------------------------- structural ops


def test_concat_stack_mean_take_rows_affine_values():
    a = ad.Tensor([[1.0, 2.0]])
    b = ad.Tensor([[3.0]])
    assert concat([a, b]).data.tolist() == [[1.0, 2.0, 3.0]]
    m = ad.stack([ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0, 4.0]])])
    assert m.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ad.mean_rows(m, [2]).data.tolist() == [[2.0, 3.0]]
    # a bias vector is added to every row
    assert ad.affine(m, ad.Tensor(np.eye(2)), ad.Tensor([10.0, 20.0])).data.tolist() == [[11.0, 22.0], [13.0, 24.0]]
    assert ad.take_rows(m, [1]).data.tolist() == [[3.0, 4.0]]
    assert ad.take_rows(m, [1, 0, 1]).data.tolist() == [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]
    assert concat([m, ad.Tensor([[5.0], [6.0]])]).data.tolist() == [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]]


def test_row_ops_reject_bad_shapes_and_ids():
    m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    one = ad.Tensor([[1.0]])
    vector = ad.Tensor([1.0])
    for bad in (
        lambda: concat([m, one]),
        lambda: ad.stack([m, one]),
        lambda: concat([vector]),
        lambda: concat([]),
        lambda: ad.stack([vector]),
        lambda: ad.take_rows(vector, [0]),
        lambda: ad.mean_rows(vector, [2]),
    ):
        with pytest.raises(DimensionError):
            bad()
    for ids in ([2], [-1], [], [0, 2]):
        with pytest.raises(ContractError):
            ad.take_rows(m, ids)


def test_segment_value_gradient_and_range_checks():
    v = rnd((2, 6), seed=4)
    assert segment(v, 2, 5).data.tolist() == v.data[:, 2:5].tolist()

    def loss():
        return tsum(mul(segment(v, 1, 4), segment(v, 3, 6)))

    assert check_gradients(loss, [v]) < 1e-4
    for start, stop in ((3, 3), (4, 2), (-1, 2), (0, 7)):
        with pytest.raises(DimensionError):
            segment(v, start, stop)
    with pytest.raises(DimensionError):
        segment(ad.Tensor([1.0, 2.0]), 0, 1)


def test_structural_gradients():
    m = rnd((3, 4), seed=7)
    v = rnd((4,), seed=8)
    w = rnd((1, 3), seed=9)

    def loss():
        rows = ad.affine(m, ad.Tensor(np.eye(4)), v)
        picked = ad.take_rows(rows, [0])
        mixed = concat([picked, segment(ad.mean_rows(rows, [3]), 1, 3), w])
        both = ad.stack([mixed, concat([ad.take_rows(rows, [2]), segment(mixed, 0, 5)])])
        return tsum(mul(both, both))

    assert check_gradients(loss, [m, v, w]) < 1e-4


def test_take_rows_gradient_accumulates_repeated_ids():
    m = rnd((4, 3), seed=15)
    weights = ad.Tensor(np.arange(15.0).reshape(5, 3))

    def loss():
        return tsum(mul(ad.take_rows(m, [2, 0, 2, 3, 2]), weights))

    assert check_gradients(loss, [m]) < 1e-4
    with ad.Tape() as tape:
        tape.backward(loss())
    assert m.grad.tolist() == [[3.0, 4.0, 5.0], [0.0, 0.0, 0.0], [18.0, 21.0, 24.0], [9.0, 10.0, 11.0]]


# ---------------------------------------------------------------- attention energies


def test_attention_energies_match_scalar_loops():
    keys, query, v = rnd((4, 3), seed=16), rnd((2, 3), seed=17), rnd((3,), seed=18)
    got = attention_energies(keys, query, v).data
    assert got.shape == (2, 4)
    for b, q in enumerate(query.data.tolist()):
        for j, k in enumerate(keys.data.tolist()):
            want = sum(vi * np.tanh(ki + qi) for vi, ki, qi in zip(v.data.tolist(), k, q))
            assert got[b, j] == pytest.approx(want, abs=1e-14)


def test_attention_energies_gradient():
    keys, query, v = rnd((4, 3), seed=19), rnd((2, 3), seed=20), rnd((3,), seed=21)
    weights = ad.Tensor(np.arange(8.0).reshape(2, 4) - 3.0)

    def loss():
        return tsum(mul(attention_energies(keys, query, v), weights))

    assert check_gradients(loss, [keys, query, v]) < 1e-4


def test_attention_energies_shape_checks():
    for shapes in (((4, 3), (2, 2), (3,)), ((4, 3), (2, 3), (2,)), ((3,), (2, 3), (3,))):
        with pytest.raises(DimensionError):
            attention_energies(*(rnd(s) for s in shapes))


# ---------------------------------------------------------------- fused GRU step and attention


def gru_inputs(rows, seed=0):
    """gx (rows, 3dim), h_prev (rows, dim), u_zr (2dim, dim), u_h (dim, dim) at dim 3."""
    return [rnd(shape, seed=seed + i) for i, shape in enumerate([(rows, 9), (rows, 3), (6, 3), (3, 3)])]


def attention_inputs(rows, seed=0):
    """s (rows, 2), keys (5, 3), annotations (5, 4), w (3, 2), v (3,): the
    state, query and annotation widths all differ."""
    shapes = [(rows, 2), (5, 3), (5, 4), (3, 2), (3,)]
    return [rnd(shape, seed=seed + i) for i, shape in enumerate(shapes)]


# name: (fused op, its composed oracle, its inputs, the width of its output)
FUSED = {
    "gru_step": (gru_step, gru_step_composed, gru_inputs, 3),
    "attention": (lambda *a: attention(*a)[0], lambda *a: attention_composed(*a)[0], attention_inputs, 4),
}


def values_and_gradients(op, inputs, weights):
    for t in inputs:
        t.zero_grad()
    with ad.Tape() as tape:
        out = op(*inputs)
        tape.backward(tsum(mul(out, weights)))
    return out.data, [t.grad.copy() for t in inputs]


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("name", ["gru_step", "attention"])
def test_fused_op_equals_composed_oracle(name, rows):
    fused, composed, make_inputs, width = FUSED[name]
    inputs = make_inputs(rows, seed=30)
    weights = ad.Tensor(np.random.default_rng(31).uniform(-1, 1, size=(rows, width)))
    got, got_grads = values_and_gradients(fused, inputs, weights)
    want, want_grads = values_and_gradients(composed, inputs, weights)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("name", ["gru_step", "attention"])
def test_fused_op_gradcheck(name, rows):
    fused, _, make_inputs, width = FUSED[name]
    inputs = make_inputs(rows, seed=40)
    weights = ad.Tensor(np.random.default_rng(41).uniform(-1, 1, size=(rows, width)))

    def loss():
        return tsum(mul(fused(*inputs), weights))

    assert check_gradients(loss, inputs) < 1e-4


@pytest.mark.parametrize("rows", [1, 4])
def test_attention_alpha_equals_composed_oracle(rows):
    inputs = attention_inputs(rows, seed=50)
    _, alpha = attention(*inputs)
    assert isinstance(alpha, np.ndarray)
    assert np.array_equal(alpha, attention_composed(*inputs)[1].data)


def test_attention_rejects_a_nan_query():
    s, keys, annotations, w, v = attention_inputs(2, seed=60)
    s.data[1, 0] = np.nan
    with pytest.raises(NumericError):
        attention(s, keys, annotations, w, v)


@pytest.mark.parametrize("position, shape", [(0, (2, 8)), (1, (2, 2)), (1, (1, 3)), (2, (6, 2)), (3, (3, 2))])
def test_gru_step_rejects_mismatched_shapes(position, shape):
    inputs = gru_inputs(2, seed=70)
    inputs[position] = rnd(shape)
    with pytest.raises(DimensionError):
        gru_step(*inputs)


# v was the sixth input while attention still took a bias; its rank-2 case
# keeps the id it had then.
@pytest.mark.parametrize(
    "position, shape",
    [
        (0, (2, 3)), (1, (5, 2)), (1, (4, 3)), (2, (4, 4)), (3, (2, 3)), (4, (2,)),
        pytest.param(4, (3, 1), id="5-shape6"),
    ],
)
def test_attention_rejects_mismatched_shapes(position, shape):
    inputs = attention_inputs(2, seed=80)
    inputs[position] = rnd(shape)
    with pytest.raises(DimensionError):
        attention(*inputs)


# ---------------------------------------------------------------- GRU and decoder scans


def assert_grads_close(got, want, rel=1e-12):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= rel * np.max(np.abs(w))


def gru_scan_inputs(rows, n, seed):
    """Per direction, forward then backward, gx (rows*n, 9), u_zr (6, 3)
    and u_h (3, 3): dim 3."""
    return [rnd(shape, seed=seed + i) for i, shape in enumerate([(rows * n, 9), (6, 3), (3, 3)] * 2)]


DIRECTIONS = pytest.mark.parametrize("half", [0, 1], ids=["left-to-right", "right-to-left"])


@DIRECTIONS
def test_gru_scan_equals_per_step_oracle(half):
    """One row: a direction's half of the annotations is the states of the
    per-step oracle reading the row in that direction's order, bit for bit,
    and the gradients of the direction's inputs are the oracle's within
    1e-12 of their largest entry."""
    inputs = gru_scan_inputs(1, 5, seed=90)
    weights = np.random.default_rng(93).uniform(-1, 1, size=(5, 6))
    mine = slice(3 * half, 3 * half + 3)  # the direction's three inputs, and its three state columns
    order = range(4, -1, -1) if half else range(5)
    got, got_grads = values_and_gradients(lambda *a: ad.gru_scan(*a, [5]), inputs, ad.Tensor(weights))
    want, want_grads = values_and_gradients(
        lambda gx, u_zr, u_h: run_gru(gx, SimpleNamespace(u_zr=u_zr, u_h=u_h), order),
        inputs[mine], ad.Tensor(weights[:, mine]),
    )
    assert np.array_equal(got[:, mine], want)
    assert_grads_close(got_grads[mine], want_grads)


@DIRECTIONS
def test_gru_scan_rows_of_a_padded_batch_equal_one_row_scans(half):
    """Each row of a padded batch has a direction's states and input
    gradients of its own scan; its pad steps change nothing: left to right
    they hold its last state, right to left its zero start."""
    lengths, n = [3, 5, 1], 5
    inputs = gru_scan_inputs(3, n, seed=94)
    weights = np.random.default_rng(97).uniform(-1, 1, size=(3, n, 6))
    weights[np.arange(n)[None, :] >= np.array(lengths)[:, None]] = 0.0  # no loss on pad steps
    mine = slice(3 * half, 3 * half + 3)  # the direction's three inputs, and its three state columns
    batch, batch_grads = values_and_gradients(
        lambda *a: ad.gru_scan(*a, lengths), inputs, ad.Tensor(weights.reshape(-1, 6))
    )
    batch = batch.reshape(3, n, 6)[:, :, mine]
    d_gx, *d_weights = batch_grads[mine]
    summed = [np.zeros_like(d) for d in d_weights]
    for b, k in enumerate(lengths):
        row = [ad.Tensor(t.data[b * n : b * n + k], requires_grad=True) for t in inputs[0::3]]
        row_inputs = [row[0], *inputs[1:3], row[1], *inputs[4:6]]
        one, one_grads = values_and_gradients(lambda *a: ad.gru_scan(*a, [k]), row_inputs, ad.Tensor(weights[b, :k]))
        d_row, *d_row_weights = one_grads[mine]
        assert np.allclose(batch[b, :k], one[:, mine], rtol=0, atol=1e-12)
        assert np.array_equal(batch[b, k:], np.zeros((n - k, 3)) if half else np.tile(batch[b, k - 1], (n - k, 1)))
        assert np.allclose(d_gx[b * n : b * n + k], d_row, rtol=0, atol=1e-12)
        assert not np.any(d_gx[b * n + k : (b + 1) * n])
        summed = [acc + d for acc, d in zip(summed, d_row_weights)]
    assert_grads_close(d_weights, summed)


@pytest.mark.parametrize("lengths", [[4], [4, 4], [4, 2, 1]], ids=["one-row", "rows", "masked"])
@DIRECTIONS
def test_gru_scan_gradcheck(lengths, half):
    """The loss reads one direction's half of the annotations, so a wrong
    gradient shows in the case of its direction; the other direction's
    inputs get gradient 0."""
    inputs = gru_scan_inputs(len(lengths), 4, seed=100)
    weights = np.zeros((4 * len(lengths), 6))
    weights[:, 3 * half : 3 * half + 3] = np.random.default_rng(103).uniform(-1, 1, size=(4 * len(lengths), 3))
    weights = ad.Tensor(weights)

    def loss():
        return tsum(mul(ad.gru_scan(*inputs, lengths), weights))

    assert check_gradients(loss, inputs) < 1e-4


def decoder_scan_inputs(rows, steps, n, shared, seed):
    """e (rows*T, 2), s0 (rows, 3), annotations (., 5), att_u (4, 5),
    att_b (4,), att_w (4, 3), att_v (4,), w (9, 7), b (9,), u_zr (6, 3),
    u_h (3, 3): the embedding, state, key and context widths all differ,
    and neither b nor att_b is zero. Shared annotations have n rows,
    per-row ones rows*n."""
    blocks = 1 if shared else rows
    shapes = [
        (rows * steps, 2), (rows, 3), (blocks * n, 5), (4, 5), (4,),
        (4, 3), (4,), (9, 7), (9,), (6, 3), (3, 3),
    ]
    return [rnd(shape, seed=seed + i) for i, shape in enumerate(shapes)]


@pytest.mark.parametrize("shared", [True, False], ids=["shared-source", "source-per-row"])
def test_decoder_scan_equals_per_step_oracle(shared):
    """Rows of 4, 2 and 3 steps that all read one source of 2 of 3 rows,
    or each its own source of 3, 2 and 1 of 3 rows, against one run of the
    per-step oracle per row. A one-row scan of each row gives the oracle's
    rows [embedding; state; context] bit for bit, and its gradients within
    1e-12 of their largest entry. The rows of the batch are the oracle's within
    1e-15, as a product over several rows may round apart from a one-row
    product, and the batch's gradients are the sums of the oracle runs',
    within 1e-12. The earlier design's oracle, which multiplies
    [embedding; context] by the whole GRU input weight, agrees with the
    one-row scans within 1e-15: the scan adds the two halves of that
    product apart."""
    steps, n, T = [4, 2, 3], 3, 4
    source_lengths = [2] if shared else [3, 2, 1]
    inputs = decoder_scan_inputs(3, T, n, shared, seed=110)
    weights = np.random.default_rng(111).uniform(-1, 1, size=(3, T, 10))
    weights[np.arange(T)[None, :] >= np.array(steps)[:, None]] = 0.0  # no loss past a row's last step
    got, got_grads = values_and_gradients(
        lambda *a: ad.decoder_scan(*a, steps, source_lengths)[0], inputs, ad.Tensor(weights.reshape(-1, 10))
    )
    got = got.reshape(3, T, 10)
    e, s0, annotations, *rest = inputs
    summed = [np.zeros_like(t.data) for t in inputs]
    for b, k in enumerate(steps):
        block = 0 if shared else b
        m = source_lengths[block]
        real = slice(block * n, block * n + m)
        row = [ad.Tensor(x, requires_grad=True) for x in (
            e.data[b * T : b * T + k], s0.data[b : b + 1], annotations.data[real]
        )]
        row_weights = ad.Tensor(weights[b, :k])
        one, one_grads = values_and_gradients(lambda *a: ad.decoder_scan(*a, [k], [m])[0], row + rest, row_weights)
        want, want_grads = values_and_gradients(decoder_scan_per_step, row + rest, row_weights)
        earlier = decoder_scan_per_step(*row, *rest, whole_w=True).data
        assert np.array_equal(one, want)
        assert_grads_close(one_grads, want_grads)
        assert np.max(np.abs(one - earlier)) <= 1e-15
        assert np.max(np.abs(got[b, :k] - want)) <= 1e-15
        for acc, g, where in zip(summed, want_grads, (slice(b * T, b * T + k), slice(b, b + 1), real)):
            acc[where] += g
        for acc, g in zip(summed[3:], want_grads[3:]):
            acc += g
    assert_grads_close(got_grads, summed)


@pytest.mark.parametrize("dims", [(2, 3, 4, 5), (16, 32, 32, 64)], ids=["test-dims", "E16-H32"])
@pytest.mark.parametrize("rows, source_length", [(1, 4), (5, 3)])
def test_decoder_stage_step_equals_one_token_scan_rows(dims, rows, source_length):
    """A stage's `step` on B rows that all read one block of 4 rows (of
    which source_length are real), with no live mask, against the rows
    [embedding; state; context] and the attention weights of a
    one-token-per-row `decoder_scan` over the same block: bit for bit."""
    emb, d, k, width = dims
    rng = np.random.default_rng(190)
    e, s0 = rng.uniform(-1, 1, size=(rows, emb)), rng.uniform(-1, 1, size=(rows, d))
    annotations = rng.uniform(-1, 1, size=(4, width))
    weights = [rng.uniform(-1, 1, size=shape) for shape in
               ((k, width), (k,), (k, d), (k,), (3 * d, emb + width), (3 * d,), (2 * d, d), (d, d))]
    out, alpha = ad.decoder_scan(
        *(ad.Tensor(x) for x in (e, s0, annotations, *weights)), [1] * rows, [source_length]
    )
    stage = ad.DecoderStage(annotations, *weights, [source_length])
    s, context, got_alpha, _ = stage.step(s0, e, None)
    assert np.array_equal(s, out.data[:, emb : emb + d])
    assert np.array_equal(context, out.data[:, emb + d :])
    assert np.array_equal(got_alpha, alpha)
    assert np.all(got_alpha[:, source_length:] == 0.0)


def test_decoder_scan_rows_of_a_padded_batch_equal_one_row_scans():
    """Rows of 2, 4 and 1 steps over sources of 3, 1 and 2 of 3 rows: each
    has the rows [embedding; state; context] and attention weights of its
    own scan, its pad columns weight exactly 0, and past its last step its
    state stays. Every row's embedding columns are its input row as given,
    past its last step too."""
    steps, source_lengths, n, T = [2, 4, 1], [3, 1, 2], 3, 4
    e, s0, annotations, *weights = decoder_scan_inputs(3, T, n, False, seed=120)
    out, alpha = ad.decoder_scan(e, s0, annotations, *weights, steps, source_lengths)
    out, alpha = out.data.reshape(3, T, 10), alpha.reshape(3, T, n)
    assert np.array_equal(out[:, :, :2], e.data.reshape(3, T, 2))
    for b, (k, m) in enumerate(zip(steps, source_lengths)):
        one, one_alpha = ad.decoder_scan(
            ad.Tensor(e.data[b * T : b * T + k]), ad.Tensor(s0.data[b : b + 1]),
            ad.Tensor(annotations.data[b * n : b * n + m]), *weights, [k], [m],
        )
        assert np.allclose(out[b, :k], one.data, rtol=0, atol=1e-12)
        assert np.allclose(alpha[b, :k, :m], one_alpha, rtol=0, atol=1e-12)
        assert np.all(alpha[b, :, m:] == 0.0)
        assert np.allclose(alpha[b].sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.array_equal(out[b, k:, 2:5], np.tile(out[b, k - 1, 2:5], (T - k, 1)))


def test_decoder_scan_one_block_read_by_every_row_equals_a_copy_per_row():
    """Rows of 2, 4 and 1 steps that all read one source of 2 of 3 rows,
    against the source copied once per row: the rows [embedding; state;
    context] and the attention weights within 1e-15; the annotations' gradient
    the copies' summed over the rows, and every other gradient the copies',
    within 1e-12 of its largest entry."""
    steps, n, T = [2, 4, 1], 3, 4
    inputs = decoder_scan_inputs(3, T, n, True, seed=180)
    copies = list(inputs)
    copies[2] = ad.Tensor(np.tile(inputs[2].data, (3, 1)), requires_grad=True)
    weights = ad.Tensor(np.random.default_rng(181).uniform(-1, 1, size=(3 * T, 10)))
    got, got_grads = values_and_gradients(lambda *a: ad.decoder_scan(*a, steps, [2])[0], inputs, weights)
    want, want_grads = values_and_gradients(lambda *a: ad.decoder_scan(*a, steps, [2, 2, 2])[0], copies, weights)
    got_alpha = ad.decoder_scan(*inputs, steps, [2])[1]
    want_alpha = ad.decoder_scan(*copies, steps, [2, 2, 2])[1]
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(got_alpha - want_alpha)) <= 1e-15
    assert np.all(got_alpha[:, 2] == 0.0)
    want_grads[2] = want_grads[2].reshape(3, n, -1).sum(axis=0)
    assert_grads_close(got_grads, want_grads)


@pytest.mark.parametrize(
    "steps, source_lengths",
    [([3], [3]), ([3, 3], [3]), ([3, 3], [3, 3]), ([3, 1, 2], [3, 1, 2])],
    ids=["one-row", "shared-source", "source-per-row", "masked"],
)
def test_decoder_scan_gradcheck(steps, source_lengths):
    inputs = decoder_scan_inputs(len(steps), max(steps), 3, len(source_lengths) == 1, seed=130)
    weights = ad.Tensor(np.random.default_rng(131).uniform(-1, 1, size=(len(steps) * max(steps), 10)))

    def loss():
        return tsum(mul(ad.decoder_scan(*inputs, steps, source_lengths)[0], weights))

    assert check_gradients(loss, inputs) < 1e-4


def test_decoder_scan_rejects_a_nan_energy():
    inputs = decoder_scan_inputs(2, 2, 3, True, seed=140)
    inputs[3].data[1, 0] = np.nan  # att_u: every row's key in one column
    with pytest.raises(NumericError):
        ad.decoder_scan(*inputs, [2, 2], [3])


@pytest.mark.parametrize(
    "steps, source_lengths, error",
    [([2], [3], DimensionError), ([2, 2, 2], [3], DimensionError), ([2, 0], [3], ContractError),
     ([2, 2], [2, 2, 2], DimensionError), ([2, 2], [3, 4], ContractError), ([2, 3], [3], DimensionError)],
)
def test_decoder_scan_rejects_mismatched_steps_and_lengths(steps, source_lengths, error):
    """Wrong step counts or source lengths. Two rows with three lengths:
    the six annotation rows split into three blocks of 2, which each
    length fits, but a source count must be 1 or the row count."""
    inputs = decoder_scan_inputs(2, 2, 3, len(source_lengths) == 1, seed=150)
    with pytest.raises(error):
        ad.decoder_scan(*inputs, steps, source_lengths)


@pytest.mark.parametrize("position, shape", [(3, (4, 4)), (3, (5, 5)), (3, (4,)), (4, (5,)), (4, (4, 1))])
def test_decoder_stage_and_scan_reject_a_mis_shaped_attention_key_map(position, shape):
    """att_u (4, 5) maps an annotation row (5 wide) to a key as wide as
    att_w's rows (4), and att_b (4,) is one bias per key column: a wrong
    width, row count or rank of either raises in the stage and in the
    scan."""
    inputs = decoder_scan_inputs(2, 2, 3, True, seed=160)
    inputs[position] = rnd(shape)
    with pytest.raises(DimensionError):
        ad.DecoderStage(*(t.data for t in inputs[2:]), [3])
    with pytest.raises(DimensionError):
        ad.decoder_scan(*inputs, [2, 2], [3])


@pytest.mark.parametrize("position, shape", [(0, (4, 6)), (1, (3, 3)), (2, (6, 3)), (3, (2, 9)), (4, (6, 2)), (5, (2, 2))])
def test_gru_scan_rejects_mismatched_shapes(position, shape):
    inputs = gru_scan_inputs(2, 2, seed=165)
    inputs[position] = rnd(shape)
    with pytest.raises(DimensionError):
        ad.gru_scan(*inputs, [2, 2])


@pytest.mark.parametrize(
    "lengths, error", [([1, 1, 1], DimensionError), ([2, 0], ContractError), ([3, 2], ContractError)]
)
def test_gru_scan_rejects_lengths_that_do_not_fit(lengths, error):
    inputs = gru_scan_inputs(2, 2, seed=160)
    with pytest.raises(error):
        ad.gru_scan(*inputs, lengths)


def test_mean_rows_of_a_padded_batch_averages_each_blocks_real_rows():
    m = rnd((6, 2), seed=170)
    got = ad.mean_rows(m, [3, 1]).data
    assert np.array_equal(got[0], m.data[:3].mean(axis=0)) and np.array_equal(got[1], m.data[3])
    weights = ad.Tensor(np.arange(4.0).reshape(2, 2) - 1.0)

    def loss():
        return tsum(mul(ad.mean_rows(m, [3, 1]), weights))

    assert check_gradients(loss, [m]) < 1e-4
    with pytest.raises(DimensionError):
        ad.mean_rows(m, [1, 1, 1, 1])


# ---------------------------------------------------------------- tape / backward


def test_backward_quadratic():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = tsum(mul(w, w))
        tape.backward(loss)
    assert w.grad.tolist() == [2.0, 4.0]


def test_backward_sigmoid_prime_at_zero():
    w = ad.Tensor(0.0, requires_grad=True)
    with ad.Tape() as tape:
        loss = sigmoid(w)
        tape.backward(loss)
    assert float(w.grad) == pytest.approx(0.25, abs=1e-15)


def test_backward_rejects_non_scalar_loss():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        out = mul(w, w)
        with pytest.raises(ContractError):
            tape.backward(out)


def test_backward_rejects_off_tape_loss():
    w = ad.Tensor([1.0], requires_grad=True)
    loss = tsum(mul(w, w))  # built with no tape active
    with ad.Tape() as tape:
        with pytest.raises(ContractError):
            tape.backward(loss)


def test_repeated_backward_accumulates_until_cleared():
    w = ad.Tensor([3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = tsum(mul(w, w))
        tape.backward(loss)
        tape.backward(loss)
    assert w.grad.tolist() == [12.0]
    w.zero_grad()
    assert w.grad is None


def test_fanout_accumulates_within_one_backward():
    w = ad.Tensor([2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = mul(w, w)
        loss = tsum(add(y, y))  # d/dw of 2*w^2 = 4w
        tape.backward(loss)
    assert w.grad.tolist() == [8.0]


def test_leaf_gradients_never_share_an_array():
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    b = ad.Tensor([3.0, 4.0], requires_grad=True)
    with ad.Tape() as tape:
        tape.backward(tsum(add(a, b)))
    assert a.grad is not b.grad
    a.grad *= 0.5
    assert a.grad.tolist() == [0.5, 0.5]
    assert b.grad.tolist() == [1.0, 1.0]


def test_leaf_with_deferred_and_dense_gradients_matches_dense_oracle():
    x, x1, w, b = rnd((3, 4), seed=21), rnd((1, 4), seed=22), rnd((2, 4), seed=23), rnd((2,), seed=24)

    def loss():
        many = ad.affine(x, w, b)  # a weight gradient product over 3 rows
        one = ad.affine(x1, w, b)  # a second product, over 1 row
        dense = add(matmul(one, w), ad.take_rows(w, [1]))  # dense (2, 4) gradients
        return add(tsum(mul(many, many)), tsum(mul(dense, dense)))

    grads = []
    for backward in (ad.Tape.backward, backward_dense):
        for t in (x, x1, w, b):
            t.zero_grad()
        with ad.Tape() as tape:
            backward(tape, loss())
        grads.append([t.grad.copy() for t in (x, x1, w, b)])
    for got, want in zip(*grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert check_gradients(loss, [x, x1, w, b]) < 1e-4


def test_frozen_weight_gets_no_gradient():
    x, b = rnd((3, 4), seed=31), rnd((2,), seed=32)
    for trainable in (False, True):
        w = ad.Tensor(rnd((2, 4), seed=33).data, requires_grad=trainable)
        x.zero_grad(), b.zero_grad()
        with ad.Tape() as tape:
            out = ad.affine(x, w, b)
            tape.backward(tsum(mul(out, out)))
        assert (w.grad is not None) == trainable
        assert x.grad is not None and b.grad is not None


def test_take_rows_of_one_id_gives_exactly_the_adjoint_row():
    m = rnd((4, 3), seed=34)
    picked_row = ad.Tensor([[0.5, -2.0, 3.25]])
    want = np.zeros((4, 3))
    want[2] = picked_row.data[0]
    with ad.Tape() as tape:
        tape.backward(tsum(mul(ad.take_rows(m, [2]), picked_row)))  # into a leaf's .grad
    assert np.array_equal(m.grad, want)
    m.zero_grad()
    with ad.Tape() as tape:
        squashed = ad.tanh(m)  # into an adjoint the walk owns, which tanh passes on to m
        tape.backward(tsum(mul(ad.take_rows(squashed, [2]), picked_row)))
    assert np.array_equal(m.grad, want * (1.0 - squashed.data * squashed.data))


def test_row_gradient_scatters_into_a_copy_of_a_shared_adjoint():
    x, y = rnd((3, 2), seed=29), rnd((3, 2), seed=30)
    weights = ad.Tensor(np.arange(6.0).reshape(3, 2) - 2.0)

    def loss():
        a, b = ad.tanh(x), ad.tanh(y)
        picked = ad.take_rows(a, [2, 0, 2])
        both = add(a, b)  # walked first: a's adjoint is dense when the row gradient arrives
        return add(tsum(mul(both, weights)), tsum(mul(picked, picked)))

    grads = []
    for backward in (ad.Tape.backward, backward_dense):
        x.zero_grad(), y.zero_grad()
        with ad.Tape() as tape:
            backward(tape, loss())
        grads.append([x.grad.copy(), y.grad.copy()])
    for got, want in zip(*grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert check_gradients(loss, [x, y]) < 1e-4


def test_affine_with_a_computed_weight_gradcheck():
    x, x1, w, b = rnd((3, 4), seed=25), rnd((1, 4), seed=26), rnd((2, 4), seed=27), rnd((2,), seed=28)

    def loss():
        squashed = ad.tanh(w)  # not a leaf: its weight gradients sum into the walk's adjoint
        many, one = ad.affine(x, squashed, b), ad.affine(x1, squashed, b)
        return add(tsum(mul(many, many)), tsum(mul(one, one)))

    assert check_gradients(loss, [x, x1, w, b]) < 1e-4


def backward_contract_cases():
    """(op, input shapes), named, for every op in sentsimp.autodiff and in
    the test oracles; an op maps the input tensors to its output tensor."""
    cases = [
        ("affine", ad.affine, [(3, 4), (2, 4), (2,)]),
        ("tanh", ad.tanh, [(3, 4)]),
        ("nll", lambda a: ad.nll(a, [0, 2, 4]), [(3, 5)]),
        ("concat", lambda a, b: concat([a, b]), [(3, 2), (3, 4)]),
        ("stack", lambda a, b: ad.stack([a, b]), [(2, 3), (3, 3)]),
        ("mean_rows-full", lambda m: ad.mean_rows(m, [3, 3]), [(6, 3)]),
        ("mean_rows-padded", lambda m: ad.mean_rows(m, [3, 1]), [(6, 3)]),
        ("take_rows", lambda m: ad.take_rows(m, [2, 0, 2]), [(4, 3)]),
        ("gru_scan-full", lambda *a: ad.gru_scan(*a, [3, 3]), [(6, 9), (6, 3), (3, 3)] * 2),
        ("gru_scan-masked", lambda *a: ad.gru_scan(*a, [3, 2]), [(6, 9), (6, 3), (3, 3)] * 2),
        (
            "decoder_scan-shared-block",
            lambda *a: ad.decoder_scan(*a, [3, 2], [2])[0],
            [t.shape for t in decoder_scan_inputs(2, 3, 3, True, seed=0)],
        ),
        (
            "decoder_scan-block-per-row",
            lambda *a: ad.decoder_scan(*a, [3, 2], [3, 2])[0],
            [t.shape for t in decoder_scan_inputs(2, 3, 3, False, seed=0)],
        ),
        ("matmul", matmul, [(3, 4), (4, 2)]),
        ("add", add, [(3, 4), (3, 4)]),
        ("mul", mul, [(3, 4), (3, 4)]),
        ("one_minus", one_minus, [(3, 4)]),
        ("sigmoid", sigmoid, [(3, 4)]),
        ("softmax", softmax, [(3, 4)]),
        ("tsum", tsum, [(3, 4)]),
        ("segment", lambda m: segment(m, 1, 3), [(3, 4)]),
        ("attention_energies", attention_energies, [(4, 3), (2, 3), (3,)]),
        ("gru_step", gru_step, [(2, 9), (2, 3), (6, 3), (3, 3)]),
        ("attention", lambda *a: attention(*a)[0], [(2, 3), (4, 5), (4, 6), (5, 3), (5,)]),
    ]
    return [pytest.param(op, shapes, id=name) for name, op, shapes in cases]


@pytest.mark.parametrize("op, shapes", backward_contract_cases())
def test_backward_returns_arrays_that_nothing_else_holds(op, shapes):
    """The contract that lets Tape.backward sum in place: a backward
    function returns, per input, None, a RowGrad, or an array that shares
    memory with no other array it returns, with the adjoint, with any
    input's data and with the output's data."""
    inputs = [rnd(shape, seed=140 + i) for i, shape in enumerate(shapes)]
    with ad.Tape() as tape:
        out = op(*inputs)
    recorded, recorded_inputs, backward_fn = tape._records[-1]
    # decoder_scan lists its annotations twice, as memory and as the keys' input
    assert recorded is out and list(dict.fromkeys(recorded_inputs)) == inputs
    g = np.random.default_rng(141).uniform(-1.0, 1.0, size=out.shape)
    grads = list(backward_fn(g))
    assert len(grads) == len(recorded_inputs)
    for grad in grads:
        assert grad is None or isinstance(grad, (ad.RowGrad, np.ndarray)), type(grad)
    arrays = [grad for grad in grads if isinstance(grad, np.ndarray)]
    held = [g, out.data] + [t.data for t in inputs]
    for i, grad in enumerate(arrays):
        for other in held + arrays[:i] + arrays[i + 1 :]:
            assert not np.shares_memory(grad, other)


def test_ops_record_on_the_innermost_tape_only():
    w = ad.Tensor([1.0], requires_grad=True)
    with ad.Tape() as outer:
        mul(w, w)
        with ad.Tape() as inner:
            mul(w, w)
            mul(w, w)
        mul(w, w)
    assert (len(outer), len(inner)) == (2, 2)
    assert ad.active_tape() is None


def test_no_tape_means_no_recording():
    w = ad.Tensor([1.0], requires_grad=True)
    out = mul(w, w)
    assert out.requires_grad
    with ad.Tape() as tape:
        pass
    assert len(tape) == 0


def test_only_leaves_get_grads():
    """An op's output, though it requires a gradient, gets no `.grad`: the
    walk frees its adjoint once passed on. The leaf below it gets its own."""
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        mid = mul(w, w)
        loss = tsum(mid)
        tape.backward(loss)
    assert mid.requires_grad and mid.grad is None and loss.grad is None
    assert w.grad.tolist() == [2.0, 4.0]


def test_composite_gru_like_gradcheck():
    # a full gate update wired from the primitive ops
    rng = np.random.default_rng(11)
    dim, emb = 3, 2
    params = {
        name: ad.Tensor(rng.uniform(-0.5, 0.5, size=shape), requires_grad=True)
        for name, shape in [
            ("w_z", (emb, dim)), ("u_z", (dim, dim)), ("b_z", (1, dim)),
            ("w_r", (emb, dim)), ("u_r", (dim, dim)), ("b_r", (1, dim)),
            ("w_h", (emb, dim)), ("u_h", (dim, dim)), ("b_h", (1, dim)),
        ]
    }
    e = ad.Tensor(rng.uniform(-1, 1, size=(1, emb)))
    h_prev = ad.Tensor(rng.uniform(-1, 1, size=(1, dim)))

    def loss():
        def gate(name, state):
            pre = add(matmul(e, params[f"w_{name}"]), matmul(state, params[f"u_{name}"]))
            return add(pre, params[f"b_{name}"])

        z = sigmoid(gate("z", h_prev))
        r = sigmoid(gate("r", h_prev))
        h_tilde = ad.tanh(gate("h", mul(r, h_prev)))
        h = add(mul(one_minus(z), h_prev), mul(z, h_tilde))
        return tsum(mul(h, h))

    assert check_gradients(loss, list(params.values()), eps=1e-5) < 1e-4


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = ad.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        v = ad.Tensor(rng.uniform(-1, 1, size=(4, 1)), requires_grad=True)
        with ad.Tape() as tape:
            out = tsum(sigmoid(matmul(x, ad.tanh(v))))
            tape.backward(out)
        return out.item(), x.grad.copy(), v.grad.copy()

    a, b = run(), run()
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_finite_difference_harness_on_known_gradient():
    w = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)

    def f():
        return tsum(mul(w, w))

    numeric = finite_difference(f, w)
    assert max_relative_error(2.0 * w.data, numeric) < 1e-6
