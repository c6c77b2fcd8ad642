import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentsimp import autodiff as ad
from sentsimp.errors import ContractError, DimensionError, NumericError
from sentsimp.gradcheck import check_gradients, finite_difference, max_relative_error

from oracles import matmul_loops, sigmoid_scalar, softmax_loops


def rnd(shape, seed=0):
    rng = np.random.default_rng(seed)
    return ad.Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    eye = ad.Tensor(np.eye(2))
    m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert ad.matmul(eye, m).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matmul_projector():
    p = ad.Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = ad.Tensor([[5.0], [7.0]])
    assert ad.matmul(p, v).tolist() == [[5.0], [0.0]]


def test_matmul_matches_triple_loop_oracle():
    a = rnd((3, 4), seed=1)
    b = rnd((4, 2), seed=2)
    expected = matmul_loops(a.tolist(), b.tolist())
    got = ad.matmul(a, b).tolist()
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        ad.matmul(rnd((2, 3)), rnd((2, 3)))
    assert "(2, 3)" in str(err.value)


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 5))],
)
def test_matmul_gradients(shape_a, shape_b):
    a, b = rnd(shape_a, seed=3), rnd(shape_b, seed=4)

    def loss():
        return ad.tsum(ad.matmul(a, b))

    assert check_gradients(loss, [a, b]) < 1e-4


# ---------------------------------------------------------------- elementwise


def test_sigmoid_and_tanh_at_zero():
    z = ad.Tensor([0.0])
    assert ad.sigmoid(z).tolist() == [0.5]
    assert ad.tanh(z).tolist() == [0.0]


def test_sigmoid_matches_scalar_oracle():
    x = ad.Tensor([1.0])
    assert ad.sigmoid(x).item() == pytest.approx(sigmoid_scalar(1.0), abs=1e-15)
    assert ad.sigmoid(x).item() == pytest.approx(0.7310585786300049, abs=1e-15)


def test_binary_ops_require_equal_shapes():
    for op in (ad.add, ad.sub, ad.mul):
        with pytest.raises(DimensionError):
            op(rnd((2,)), rnd((3,)))


def test_elementwise_values():
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([3.0, 5.0])
    assert ad.add(a, b).tolist() == [4.0, 7.0]
    assert ad.sub(a, b).tolist() == [-2.0, -3.0]
    assert ad.mul(a, b).tolist() == [3.0, 10.0]
    assert ad.one_minus(a).tolist() == [0.0, -1.0]


@pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.one_minus])
def test_unary_gradients(op):
    x = rnd((4,), seed=5)

    def loss():
        return ad.tsum(op(x))

    assert check_gradients(loss, [x]) < 1e-4


# ---------------------------------------------------------------- softmax


def test_softmax_equal_energies():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = ad.softmax(ad.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_matches_scalar_oracle():
    got = ad.softmax(ad.Tensor([1.0, 2.0, 3.0])).tolist()
    assert got == pytest.approx(softmax_loops([1.0, 2.0, 3.0]), abs=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        ad.softmax(ad.Tensor([0.0, np.inf]))


@settings(max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_sums_to_one(xs):
    out = ad.softmax(ad.Tensor(xs))
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
    direct = ad.softmax(ad.Tensor([xs[i] for i in perm])).tolist()
    permuted = ad.softmax(ad.Tensor(xs)).tolist()
    assert direct == pytest.approx([permuted[i] for i in perm], abs=1e-12)


def test_softmax_gradient():
    x = rnd((5,), seed=6)
    weights = ad.Tensor([0.0, -1.0, 2.0, 0.5, 0.0])

    def loss():
        return ad.tsum(ad.mul(ad.softmax(x), weights))

    assert check_gradients(loss, [x]) < 1e-4


# ---------------------------------------------------------------- nll


def test_nll_matches_scalar_oracle():
    xs = [1.0, -2.0, 3.0, 0.5]
    for target in range(len(xs)):
        got = ad.nll(ad.Tensor(xs), target).item()
        assert got == pytest.approx(-np.log(softmax_loops(xs)[target]), abs=1e-14)


def test_nll_gradient():
    x = rnd((5,), seed=12)

    def loss():
        return ad.nll(x, 3)

    assert check_gradients(loss, [x]) < 1e-4


def test_nll_rejects_nonfinite_and_bad_target():
    with pytest.raises(NumericError):
        ad.nll(ad.Tensor([0.0, np.inf]), 0)
    with pytest.raises(ContractError):
        ad.nll(ad.Tensor([0.0, 1.0]), 2)
    with pytest.raises(DimensionError):
        ad.nll(ad.Tensor([[0.0, 1.0]]), 0)


# ---------------------------------------------------------------- structural ops


def test_concat_stack_mean_add_rows_take_row_values():
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([3.0])
    assert ad.concat([a, b]).tolist() == [1.0, 2.0, 3.0]
    m = ad.stack([ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0])])
    assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ad.mean_rows(m).tolist() == [2.0, 3.0]
    assert ad.add_rows(m, ad.Tensor([10.0, 20.0])).tolist() == [[11.0, 22.0], [13.0, 24.0]]
    assert ad.take_row(m, 1).tolist() == [3.0, 4.0]
    assert ad.transpose(m).tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_structural_gradients():
    m = rnd((3, 4), seed=7)
    v = rnd((4,), seed=8)
    w = rnd((3,), seed=9)

    def loss():
        rows = ad.add_rows(m, v)
        picked = ad.take_row(rows, 0)
        mixed = ad.concat([picked, ad.mean_rows(ad.transpose(rows)), w])
        return ad.tsum(ad.mul(mixed, mixed))

    assert check_gradients(loss, [m, v, w]) < 1e-4


# ---------------------------------------------------------------- tape / backward


def test_backward_quadratic():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(w, w))
        tape.backward(loss)
    assert w.grad.tolist() == [2.0, 4.0]


def test_backward_sigmoid_prime_at_zero():
    w = ad.Tensor(0.0, requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sigmoid(w)
        tape.backward(loss)
    assert float(w.grad) == pytest.approx(0.25, abs=1e-15)


def test_backward_rejects_non_scalar_loss():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        out = ad.mul(w, w)
        with pytest.raises(ContractError):
            tape.backward(out)


def test_backward_rejects_off_tape_loss():
    w = ad.Tensor([1.0], requires_grad=True)
    loss = ad.tsum(ad.mul(w, w))  # built with no tape active
    with ad.Tape() as tape:
        with pytest.raises(ContractError):
            tape.backward(loss)


def test_repeated_backward_accumulates_until_cleared():
    w = ad.Tensor([3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(w, w))
        tape.backward(loss)
        tape.backward(loss)
    assert w.grad.tolist() == [12.0]
    w.zero_grad()
    assert w.grad is None


def test_fanout_accumulates_within_one_backward():
    w = ad.Tensor([2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(w, w)
        loss = ad.tsum(ad.add(y, y))  # d/dw of 2*w^2 = 4w
        tape.backward(loss)
    assert w.grad.tolist() == [8.0]


def test_no_tape_means_no_recording():
    w = ad.Tensor([1.0], requires_grad=True)
    out = ad.mul(w, w)
    assert out.requires_grad
    with ad.Tape() as tape:
        pass
    assert len(tape) == 0


def test_intermediates_with_requires_grad_get_grads():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        mid = ad.mul(w, w)
        loss = ad.tsum(mid)
        tape.backward(loss)
    assert mid.grad.tolist() == [1.0, 1.0]


def test_composite_gru_like_gradcheck():
    # a full gate update wired from the primitive ops
    rng = np.random.default_rng(11)
    dim, emb = 3, 2
    params = {
        name: ad.Tensor(rng.uniform(-0.5, 0.5, size=shape), requires_grad=True, name=name)
        for name, shape in [
            ("w_z", (dim, emb)), ("u_z", (dim, dim)), ("b_z", (dim,)),
            ("w_r", (dim, emb)), ("u_r", (dim, dim)), ("b_r", (dim,)),
            ("w_h", (dim, emb)), ("u_h", (dim, dim)), ("b_h", (dim,)),
        ]
    }
    e = ad.Tensor(rng.uniform(-1, 1, size=emb))
    h_prev = ad.Tensor(rng.uniform(-1, 1, size=dim))

    def loss():
        z = ad.sigmoid(ad.add_all(ad.matmul(params["w_z"], e), ad.matmul(params["u_z"], h_prev), params["b_z"]))
        r = ad.sigmoid(ad.add_all(ad.matmul(params["w_r"], e), ad.matmul(params["u_r"], h_prev), params["b_r"]))
        h_tilde = ad.tanh(
            ad.add_all(ad.matmul(params["w_h"], e), ad.matmul(params["u_h"], ad.mul(r, h_prev)), params["b_h"])
        )
        h = ad.add(ad.mul(ad.one_minus(z), h_prev), ad.mul(z, h_tilde))
        return ad.tsum(ad.mul(h, h))

    assert check_gradients(loss, list(params.values()), eps=1e-5) < 1e-4


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = ad.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        v = ad.Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.tsum(ad.sigmoid(ad.matmul(x, ad.tanh(v))))
            tape.backward(out)
        return out.item(), x.grad.copy(), v.grad.copy()

    a, b = run(), run()
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_finite_difference_harness_on_known_gradient():
    w = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)

    def f():
        return ad.tsum(ad.mul(w, w))

    numeric = finite_difference(f, w)
    assert max_relative_error(2.0 * w.data, numeric) < 1e-6
