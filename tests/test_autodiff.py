"""Unit tests for the tensor engine: ops, the gradient tape, optimizers, grad checking."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posrank.autodiff as ad
from posrank.autodiff import Optimizer, Tensor
from posrank.errors import NumericError, UsageError

from verifiers import gradient_check, total_sum, unfused_affine, unfused_attention


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_log2_gap_gives_one_third_two_thirds(self):
        for a in [-5.0, 0.0, 3.7]:
            out = ad.softmax(Tensor([a, a + math.log(2.0)]))
            np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=17)
        base = ad.softmax(Tensor(x)).data
        shifted = ad.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_sums_to_one_up_to_1e4_magnitude(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-1e4, 1e4, size=rng.integers(1, 40))
            total = ad.softmax(Tensor(x)).data.sum()
            assert abs(total - 1.0) < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(UsageError):
            ad.softmax(Tensor(np.zeros(0)))

    def test_rowwise_on_matrices(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 9))
        out = ad.softmax(Tensor(x)).data
        for i in range(6):
            np.testing.assert_array_equal(out[i], ad.softmax(Tensor(x[i])).data)


class TestLayerNorm:
    def test_constant_vector_collapses_to_zero(self):
        d = 8
        out = ad.layer_norm(Tensor(np.full(d, 3.25)), Tensor(np.ones(d)), Tensor(np.zeros(d)))
        np.testing.assert_allclose(out.data, np.zeros(d), atol=1e-9)

    def test_already_normalized_pair_survives(self):
        out = ad.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-3)

    def test_zero_gain_yields_bias(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=11)
        b = rng.normal(size=11)
        out = ad.layer_norm(Tensor(x), Tensor(np.zeros(11)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_unit_moments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 16)) * 3.0 + 1.0
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            ad.layer_norm(Tensor(np.ones(4)), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestGraph:
    """Forward ops called directly, as the model calls them."""

    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(Tensor(np.zeros(1)))
        assert out.data[0] == 0.5

    def test_relu_definition(self):
        out = ad.relu(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_forward_is_bit_deterministic(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(7, 3))
        x = rng.normal(size=(4, 7))

        def run():
            return total_sum(ad.softmax(ad.matmul(Tensor(x), Tensor(w, requires_grad=True)))).data

        assert run().tobytes() == run().tobytes()

    def test_shape_mismatch_names_the_op(self):
        with pytest.raises(UsageError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    @pytest.mark.parametrize("axes", [(0, 0, 1), (0, 1), (0, 1, 3), (2, 1, 0, 3)])
    def test_transpose_needs_a_permutation(self, axes):
        with pytest.raises(UsageError, match="permutation"):
            ad.transpose(Tensor(np.zeros((2, 3, 4))), axes)


class TestBackward:
    def test_quadratic(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        ad.backward(total_sum(x * x))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sigmoid_slope_at_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        ad.backward(total_sum(ad.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.25])

    def test_softmax_sum_has_zero_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=9), requires_grad=True)
        ad.backward(total_sum(ad.softmax(x)))
        np.testing.assert_allclose(x.grad, np.zeros(9), atol=1e-14)

    def test_unused_leaf_gets_zero_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        ad.backward(total_sum(x * x))
        # an untouched leaf keeps grad None, which Optimizer.step rejects
        assert unused.grad is None
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            ad.backward(x * 2.0)

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        ad.backward(total_sum(y + y))
        np.testing.assert_allclose(x.grad, [6.0])

    @pytest.mark.parametrize("same", [True, False], ids=["add_x_x", "add_x_y"])
    def test_shared_vjp_output_is_not_mutated(self, same):
        # add's VJP hands one array to both operands; each operand and the
        # sum are reused later, so an in-place accumulation would leak one
        # tensor's later contributions into the other's gradient
        rng = np.random.default_rng(12)
        c = rng.normal(size=(3, 4))

        def build():
            x = Tensor(rng_x.copy(), requires_grad=True)
            y = Tensor(rng_y.copy(), requires_grad=True)
            s = ad.add(x, x if same else y)
            loss = total_sum(s * c) + total_sum(s * s) + total_sum(x * 3.0) + total_sum(y * y * c)
            return loss, (x, y, s)

        rng_x, rng_y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        loss, tensors = build()
        ad.backward(loss)
        ref_loss, ref_tensors = build()
        _reference_backward(ref_loss)
        for t, ref in zip(tensors, ref_tensors):
            assert t.grad.tobytes() == ref.grad.tobytes()


def _reference_backward(loss: Tensor) -> None:
    """The zero-fill + in-place accumulation `backward` is defined against,
    over the same tape order."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent.requires_grad and g is not None:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g


_grad_values = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False))


class TestScatterAdd:
    """The embedding and gather_rows VJP sums every cell in the same order,
    so to the same bits, as a scatter-add into a zero matrix."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n_rows=st.integers(1, 6), dim=st.integers(1, 4),
        rows=st.lists(st.integers(0, 5), max_size=24), data=st.data(),
    )
    def test_equals_add_at_on_zeros(self, n_rows, dim, rows, data):
        rows = np.array([r % n_rows for r in rows], dtype=np.int64)
        g = np.array(data.draw(st.lists(_grad_values, min_size=rows.size * dim, max_size=rows.size * dim)))
        g = g.reshape(rows.size, dim)
        ref = np.zeros((n_rows, dim))
        np.add.at(ref, rows, g)
        out = ad._scatter_add_rows(rows, g, n_rows)
        assert out.dtype == np.float64 and out.tobytes() == ref.tobytes()

    def test_embedding_and_gather_vjps_match_add_at(self):
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = rng.integers(0, 5, size=(4, 6))
        w = rng.normal(size=(4, 6, 3))
        ad.backward(total_sum(ad.embedding(table, ids) * w))
        ref = np.zeros((5, 3))
        np.add.at(ref, ids.ravel(), w.reshape(-1, 3))
        assert table.grad.tobytes() == ref.tobytes()

        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([3, 0, 3, 3, 1])
        wg = rng.normal(size=(5, 3))
        ad.backward(total_sum(ad.gather_rows(x, idx) * wg))
        ref = np.zeros((4, 3))
        np.add.at(ref, idx, wg)
        assert x.grad.tobytes() == ref.tobytes()


def _op_cases():
    rng = np.random.default_rng(7)
    mask = (rng.random((3, 5)) < 0.7).astype(np.float64)
    mask[:, 0] = 1.0
    ids = rng.integers(0, 6, size=7)
    labels = rng.integers(0, 2, size=8).astype(np.float64)
    idx = rng.integers(0, 4, size=6)
    # fixed weighting constants keep the probed loss deterministic
    c_soft = rng.normal(size=(3, 6))
    c_ln = rng.normal(size=(4, 6))
    c_emb = rng.normal(size=(7, 3))
    c_gather = rng.normal(size=(6, 3))
    c_perm = rng.normal(size=(4, 2, 5, 3))
    c_cat = rng.normal(size=(2, 9))
    # their own streams: the other cases keep their draws
    c_att = np.random.default_rng(8).normal(size=(7, 2))
    c_scatter = np.random.default_rng(9).normal(size=(6, 3))
    pool_rng = np.random.default_rng(10)
    c_pool = pool_rng.normal(size=(4, 3))
    fused_rng = np.random.default_rng(11)
    c_affine = fused_rng.normal(size=(5, 3))
    c_mha = fused_rng.normal(size=(6, 4))
    return [
        ("matmul", {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
         lambda t: total_sum(ad.matmul(t["a"], t["b"]))),
        ("bmm", {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 4, 2))},
         lambda t: total_sum(ad.bmm(t["a"], t["b"]))),
        ("add_broadcast", {"x": rng.normal(size=(4, 3)), "b": rng.normal(size=3)},
         lambda t: total_sum((t["x"] + t["b"]) * (t["x"] + t["b"]))),
        ("mul_broadcast", {"x": rng.normal(size=(4, 3)), "m": rng.normal(size=(4, 1))},
         lambda t: total_sum(t["x"] * t["m"])),
        ("relu", {"x": rng.normal(size=(5, 4)) + 0.05},
         lambda t: total_sum(ad.relu(t["x"]) * ad.relu(t["x"]))),
        ("sigmoid", {"x": rng.normal(size=9)},
         lambda t: total_sum(ad.sigmoid(t["x"]) * np.arange(9.0))),
        ("softmax", {"x": rng.normal(size=(3, 6))},
         lambda t: total_sum(ad.softmax(t["x"]) * c_soft)),
        ("masked_softmax", {"x": rng.normal(size=(3, 5))},
         lambda t: total_sum(ad.softmax(t["x"] + Tensor((1.0 - mask) * -1e9)) * mask)),
        ("layer_norm", {"x": rng.normal(size=(4, 6)), "g": rng.normal(size=6), "b": rng.normal(size=6)},
         lambda t: total_sum(ad.layer_norm(t["x"], t["g"], t["b"]) * c_ln)),
        ("embedding", {"table": rng.normal(size=(6, 3))},
         lambda t: total_sum(ad.embedding(t["table"], ids) * c_emb)),
        ("gather_rows", {"x": rng.normal(size=(4, 3))},
         lambda t: total_sum(ad.gather_rows(t["x"], idx) * c_gather)),
        ("concat_reshape", {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))},
         lambda t: total_sum(ad.reshape(ad.concat([t["a"], t["b"]], axis=1), (2, 9)) * c_cat)),
        ("repeat_rows", {"x": rng.normal(size=(3, 4))},
         lambda t: total_sum(ad.repeat_rows(t["x"], 2) * 1.5)),
        # (2, 0, 3, 1) is not its own inverse, so a VJP that reapplied it would fail
        ("transpose", {"x": rng.normal(size=(2, 3, 4, 5))},
         lambda t: total_sum(ad.transpose(t["x"], (2, 0, 3, 1)) * c_perm)),
        ("bce", {"logits": rng.normal(size=8)},
         lambda t: ad.binary_cross_entropy(ad.sigmoid(t["logits"]), labels)),
        # 7 records in sequences of 3, 0, 4 rows; the second sequence's queries get no gradient
        ("additive_scores",
         {"r": rng.normal(size=(7, 4)), "q": rng.normal(size=(3, 2, 4)), "w": rng.normal(size=(4, 1))},
         lambda t: total_sum(ad.additive_scores(t["r"], t["q"], np.repeat([0, 2], [3, 4]), t["w"]) * c_att)),
        ("scatter_rows", {"x": rng.normal(size=(4, 3))},
         lambda t: total_sum(ad.scatter_rows(t["x"], np.array([5, 0, 2, 3]), 6, fill=-2.0) * c_scatter)),
        # 8 records in sequences of 3, 0, 4 and 1 rows; the empty one pools to zeros
        ("segment_softmax_pool", {"x": pool_rng.normal(size=8), "r": pool_rng.normal(size=(8, 3))},
         lambda t: total_sum(ad.segment_softmax_pool(t["x"], t["r"], np.array([3, 0, 4, 1])) * c_pool)),
        ("affine",
         {"x": fused_rng.normal(size=(5, 4)), "w": fused_rng.normal(size=(4, 3)), "b": fused_rng.normal(size=3)},
         lambda t: total_sum(ad.affine(t["x"], t["w"], t["b"]) * c_affine)),
        # 2 sequences of 3 rows, 2 heads of 2 columns
        ("attention", {n: fused_rng.normal(size=(6, 4)) for n in ("q", "k", "v")},
         lambda t: total_sum(ad.attention(t["q"], t["k"], t["v"], 2, 2) * c_mha)),
    ]


class TestSegmentSoftmaxPool:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.one_of(st.integers(0, 12), st.integers(50, 90)), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[0, 0, 0], seed=0)
    @example(lengths=[4, 0, 0, 70, 0], seed=0)
    def test_each_row_is_its_sequence_pooled_alone(self, lengths, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        logits = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-2, 3)
        records = rng.normal(size=(lengths.sum(), 5))
        out = ad.segment_softmax_pool(Tensor(logits), Tensor(records), lengths).data
        ends = np.cumsum(lengths)
        for n, (lo, hi) in enumerate(zip(ends - lengths, ends)):
            alone = ad.segment_softmax_pool(Tensor(logits[lo:hi]), Tensor(records[lo:hi]), lengths[n : n + 1]).data
            assert alone.tobytes() == out[n : n + 1].tobytes()
            if hi == lo:
                assert alone.tobytes() == np.zeros((1, 5)).tobytes()
            else:
                weights = ad.softmax(Tensor(logits[lo:hi])).data
                np.testing.assert_allclose(alone[0], weights @ records[lo:hi], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "logits,lengths",
        [(np.zeros(3), [1, 1]), (np.zeros(4), [2, 1]), (np.zeros(3), [4, -1]), (np.zeros(3), [1.0, 2.0]),
         (np.zeros((3, 1)), [1, 2])],
        ids=["sum_under", "logits_over", "negative", "float", "logits_matrix"],
    )
    def test_bad_shapes_rejected(self, logits, lengths):
        with pytest.raises(UsageError, match="segment_softmax_pool"):
            ad.segment_softmax_pool(Tensor(logits), Tensor(np.ones((3, 2))), np.array(lengths))

    def test_non_finite_logits_rejected(self):
        with pytest.raises(NumericError):
            ad.segment_softmax_pool(Tensor([0.0, np.nan]), Tensor(np.ones((2, 2))), np.array([2]))


class TestScatterRows:
    def test_rows_land_on_their_index_and_the_rest_keep_the_fill(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = ad.scatter_rows(x, np.array([4, 0, 2]), 5, fill=-7.0).data
        np.testing.assert_array_equal(out, [[2, 3], [-7, -7], [4, 5], [-7, -7], [0, 1]])

    @pytest.mark.parametrize(
        "rows", [[0, 1, 5], [0, -1, 2], [0, 1], [0.0, 1.0, 2.0]], ids=["past_end", "negative", "too_few", "float"]
    )
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(UsageError, match="scatter_rows"):
            ad.scatter_rows(Tensor(np.ones((3, 2))), np.array(rows), 5)


class TestGradientCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        params = {"p": Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)}
        err = gradient_check(lambda t: total_sum(t["p"] * t["p"]), params, epsilon=1e-6)
        assert err < 1e-9

    @pytest.mark.parametrize("name,arrays,build", _op_cases(), ids=[c[0] for c in _op_cases()])
    def test_every_op_matches_finite_differences(self, name, arrays, build):
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        err = gradient_check(build, params, epsilon=1e-6)
        assert err < 1e-5, f"{name}: max relative error {err:.2e}"

    def test_epsilon_bounds_enforced(self):
        params = {"p": Tensor(np.ones(2), requires_grad=True)}
        with pytest.raises(UsageError):
            gradient_check(lambda t: total_sum(t["p"]), params, epsilon=0.5)


def _bind(params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    """Set each tensor's `grad`; a name missing from `grads` gets None."""
    for name, t in params.items():
        t.grad = grads.get(name)


class TestOptimizer:
    def test_adam_first_step_magnitude_is_lr(self):
        for c in [0.01, 1.0, 250.0]:
            p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
            opt = Optimizer(p, lr=1e-3)
            _bind(p, {"w": np.array([c])})
            opt.step()
            assert p["w"].data[0] == pytest.approx(-1e-3, rel=1e-3)

    def test_nan_gradient_leaves_parameters_unchanged(self):
        p = {
            "a": Tensor(np.array([1.0]), requires_grad=True),
            "b": Tensor(np.array([2.0]), requires_grad=True),
        }
        opt = Optimizer(p, lr=0.1)
        _bind(p, {"a": np.array([1.0]), "b": np.array([np.nan])})
        with pytest.raises(NumericError):
            opt.step()
        np.testing.assert_array_equal(p["a"].data, [1.0])
        np.testing.assert_array_equal(p["b"].data, [2.0])
        assert opt.step_count == 0

    def test_non_finite_gradient_names_its_tensor(self):
        p = {n: Tensor(np.ones(3), requires_grad=True) for n in ("a", "b", "c")}
        _bind(p, {"a": np.ones(3), "b": np.array([0.0, np.inf, 0.0]), "c": np.ones(3)})
        with pytest.raises(NumericError, match="'b'"):
            Optimizer(p).step()

    @pytest.mark.parametrize("case", ["missing", "shape"])
    def test_gradient_names_must_match_the_parameters(self, case):
        p = {n: Tensor(np.arange(3.0) + i, requires_grad=True) for i, n in enumerate("abc")}
        opt = Optimizer(p, lr=0.1)
        _bind(p, {n: np.ones(3) for n in p})
        opt.step()
        before = {n: t.data.tobytes() for n, t in p.items()}
        grads = {n: np.ones(3) for n in p}
        if case == "missing":
            del grads["b"]
        else:
            grads["b"] = np.ones(4)
        _bind(p, grads)
        with pytest.raises(UsageError, match="'b'"):
            opt.step()
        assert {n: t.data.tobytes() for n, t in p.items()} == before
        assert opt.step_count == 1

    def test_flat_step_equals_per_tensor_reference(self):
        rng = np.random.default_rng(14)
        shapes = {"s": (), "v": (5,), "m": (3, 4), "t": (2, 3, 2)}
        init = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        flat = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
        ref = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
        opt, ref_opt = Optimizer(flat, lr=0.01), _ReferenceOptimizer(lr=0.01)
        for step in range(1, 7):
            grads = {n: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3) for n, shape in shapes.items()}
            if step == 2:
                grads["m"][0] = -0.0
            _bind(flat, grads)
            opt.step()
            ref_opt.step(ref, grads)
            for n in shapes:
                assert flat[n].data.tobytes() == ref[n].data.tobytes(), (step, n)

    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_binding_keeps_every_tensor_shape_and_values(self, layout):
        rng = np.random.default_rng(15)
        shapes = {"s": (), "v": (5,), "m": (3, 4), "t": (2, 3, 2)}
        init = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        if layout == "transposed":
            init = {n: a.T for n, a in init.items()}  # non-contiguous views for every matrix and cube
        p = {n: Tensor(a, requires_grad=True) for n, a in init.items()}
        Optimizer(p, lr=0.1)
        for n, t in p.items():
            assert t.shape == init[n].shape, n
            assert t.data.tobytes() == init[n].tobytes(), n

    def test_a_tensor_bound_twice_is_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError, match="two names"):
            Optimizer({"a": t, "b": t})


class _ReferenceOptimizer:
    """The per-tensor update loop the flat `Optimizer` must reproduce bit for bit."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        self.step_count += 1
        for name, p in params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(p.data))
            v = self._v.setdefault(name, np.zeros_like(p.data))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            mhat = m / (1.0 - self.beta1**self.step_count)
            vhat = v / (1.0 - self.beta2**self.step_count)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class TestElementwiseProperties:
    def test_row_permutation_commutes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        gain, bias = Tensor(np.ones(5)), Tensor(np.zeros(5))
        for fn in (
            lambda v: ad.relu(Tensor(v)).data,
            lambda v: ad.sigmoid(Tensor(v)).data,
            lambda v: ad.layer_norm(Tensor(v), gain, bias).data,
            lambda v: ad.softmax(Tensor(v)).data,
        ):
            np.testing.assert_array_equal(fn(x)[perm], fn(x[perm]))

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = total_sum(x * 2.0)
        assert not y.requires_grad


def _operand(rng, shape, transposed):
    """A float64 array of `shape`; a non-contiguous transposed view when asked."""
    if not transposed:
        return rng.normal(size=shape)
    return np.swapaxes(rng.normal(size=shape[:-2] + (shape[-1], shape[-2])), -1, -2)


def _einsum_bound(a, b, subscripts):
    # |fl(a@b) - a@b| <= k*eps*(|a|@|b|) (to first order) for any summation
    # order of k terms, so two such results differ by at most twice that
    k = a.shape[-1]
    return 4 * k * np.finfo(np.float64).eps * np.einsum(subscripts, np.abs(a), np.abs(b), optimize=False)


def _span(cut, size):
    """A non-empty contiguous range [lo, hi) of range(size) from two fractions."""
    lo, hi = sorted(min(int(c * size), size - 1) for c in cut)
    return lo, hi + 1


_KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
# paper-scale shapes cost milliseconds each: fewer examples, no einsum reference
_LARGE_KERNEL_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
# n == 1 takes the per-row kernel, every other width the 8-row blocks
_WIDTHS = st.one_of(st.just(1), st.integers(2, 700))


class TestRowStableKernels:
    """matmul and bmm give each row the same bits alone as inside any batch,
    for C-ordered and transposed operands alike."""

    @_KERNEL_SETTINGS
    @given(
        m=st.integers(1, 40), k=st.integers(1, 70), n=st.integers(1, 40),
        ta=st.booleans(), tb=st.booleans(), cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matmul_rows_are_batch_independent(self, m, k, n, ta, tb, cut, seed):
        rng = np.random.default_rng(seed)
        a, b = _operand(rng, (m, k), ta), _operand(rng, (k, n), tb)
        full = ad.matmul(Tensor(a), Tensor(b)).data
        # the operands' memory layout does not change a bit
        assert full.tobytes() == ad.matmul(Tensor(a.copy()), Tensor(b.copy())).data.tobytes()
        lo, hi = _span(cut, m)
        sub = ad.matmul(Tensor(a[lo:hi]), Tensor(b)).data
        assert sub.tobytes() == full[lo:hi].tobytes()
        ref = np.einsum("ij,jk->ik", a, b, optimize=False)
        assert np.all(np.abs(full - ref) <= _einsum_bound(a, b, "ij,jk->ik"))

    @_KERNEL_SETTINGS
    @given(
        nb=st.integers(1, 8), m=st.integers(1, 12), k=st.integers(1, 30), n=st.integers(1, 12),
        ta=st.booleans(), tb=st.booleans(),
        batch_cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        row_cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bmm_batches_and_rows_are_independent(self, nb, m, k, n, ta, tb, batch_cut, row_cut, seed):
        rng = np.random.default_rng(seed)
        a, b = _operand(rng, (nb, m, k), ta), _operand(rng, (nb, k, n), tb)
        full = ad.bmm(Tensor(a), Tensor(b)).data
        assert full.tobytes() == ad.bmm(Tensor(a.copy()), Tensor(b.copy())).data.tobytes()
        (b0, b1), (r0, r1) = _span(batch_cut, nb), _span(row_cut, m)
        sub = ad.bmm(Tensor(a[b0:b1, r0:r1]), Tensor(b[b0:b1])).data
        assert sub.tobytes() == full[b0:b1, r0:r1].tobytes()
        ref = np.einsum("bij,bjk->bik", a, b, optimize=False)
        assert np.all(np.abs(full - ref) <= _einsum_bound(a, b, "bij,bjk->bik"))

    @_LARGE_KERNEL_SETTINGS
    @given(
        m=st.integers(1, 90), k=st.integers(1, 1200), n=_WIDTHS,
        ta=st.booleans(), tb=st.booleans(), cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=90, k=1200, n=700, ta=True, tb=False, cut=(0.1, 0.6), seed=0)
    @example(m=89, k=1200, n=1, ta=False, tb=True, cut=(0.5, 0.9), seed=1)
    @example(m=17, k=1024, n=1, ta=True, tb=True, cut=(0.0, 1.0), seed=2)
    def test_matmul_rows_are_batch_independent_at_paper_shapes(self, m, k, n, ta, tb, cut, seed):
        rng = np.random.default_rng(seed)
        a, b = _operand(rng, (m, k), ta), _operand(rng, (k, n), tb)
        full = ad.matmul(Tensor(a), Tensor(b)).data
        assert full.tobytes() == ad.matmul(Tensor(a.copy()), Tensor(b.copy())).data.tobytes()
        lo, hi = _span(cut, m)
        sub = ad.matmul(Tensor(a[lo:hi]), Tensor(b)).data
        assert sub.tobytes() == full[lo:hi].tobytes()
        row = ad.matmul(Tensor(a[hi - 1 : hi]), Tensor(b)).data
        assert row.tobytes() == full[hi - 1 : hi].tobytes()

    @_LARGE_KERNEL_SETTINGS
    @given(
        nb=st.integers(1, 3), m=st.integers(1, 40), k=st.integers(1, 1200), n=_WIDTHS,
        ta=st.booleans(), tb=st.booleans(),
        batch_cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        row_cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nb=3, m=40, k=1200, n=700, ta=False, tb=True, batch_cut=(0.0, 0.5), row_cut=(0.2, 0.7), seed=0)
    @example(nb=2, m=39, k=1200, n=1, ta=True, tb=False, batch_cut=(0.5, 1.0), row_cut=(0.1, 0.9), seed=1)
    def test_bmm_batches_and_rows_are_independent_at_paper_shapes(
        self, nb, m, k, n, ta, tb, batch_cut, row_cut, seed
    ):
        rng = np.random.default_rng(seed)
        a, b = _operand(rng, (nb, m, k), ta), _operand(rng, (nb, k, n), tb)
        full = ad.bmm(Tensor(a), Tensor(b)).data
        assert full.tobytes() == ad.bmm(Tensor(a.copy()), Tensor(b.copy())).data.tobytes()
        (b0, b1), (r0, r1) = _span(batch_cut, nb), _span(row_cut, m)
        sub = ad.bmm(Tensor(a[b0:b1, r0:r1]), Tensor(b[b0:b1])).data
        assert sub.tobytes() == full[b0:b1, r0:r1].tobytes()

    @pytest.mark.parametrize("m,k,n", [(0, 5, 3), (0, 5, 1), (0, 0, 3), (4, 0, 3), (9, 0, 1), (17, 0, 9), (3, 4, 0)])
    def test_empty_matmul_is_positive_zeros(self, m, k, n):
        out = ad.matmul(Tensor(np.ones((m, k))), Tensor(np.ones((k, n)))).data
        assert out.shape == (m, n)
        assert out.tobytes() == np.zeros((m, n)).tobytes()

    @pytest.mark.parametrize(
        "nb,m,k,n", [(0, 3, 4, 5), (2, 0, 4, 5), (2, 0, 4, 1), (2, 3, 0, 5), (2, 9, 0, 5), (2, 3, 0, 1)]
    )
    def test_empty_bmm_is_positive_zeros(self, nb, m, k, n):
        out = ad.bmm(Tensor(np.ones((nb, m, k))), Tensor(np.ones((nb, k, n)))).data
        assert out.shape == (nb, m, n)
        assert out.tobytes() == np.zeros((nb, m, n)).tobytes()


    def test_padded_bmm_result_does_not_pin_its_padding(self):
        # each element's one row is padded to 8 for the kernel; the result holds only its own
        out = ad.bmm(Tensor(np.ones((30, 1, 30))), Tensor(np.ones((30, 30, 56)))).data
        assert out.shape == (30, 1, 56) and out.base is None and out.nbytes == 30 * 56 * 8
        assert out.tobytes() == np.full((30, 1, 56), 30.0).tobytes()


def _unfused_scores(r: Tensor, q: Tensor, segment: np.ndarray, w: Tensor) -> Tensor:
    """The composition `additive_scores` fuses: a gather of each record's queries, a sum, its ReLU, one matmul."""
    n_rec, h = r.shape
    n, m, _ = q.shape
    own = ad.reshape(ad.gather_rows(ad.reshape(q, (n, m * h)), segment), (n_rec, m, h))
    hidden = ad.relu(ad.reshape(r, (n_rec, 1, h)) + own)
    return ad.reshape(ad.matmul(ad.reshape(hidden, (n_rec * m, h)), w), (n_rec, m))


def _scores_and_grads(op, r, q, segment, w, c):
    leaves = [Tensor(x, requires_grad=True) for x in (r, q, w)]
    out = op(leaves[0], leaves[1], segment, leaves[2])
    ad.backward(total_sum(out * c))
    return [out.data] + [t.grad for t in leaves]


class TestAdditiveScores:
    """The fused op is the unfused composition, byte for byte, in blocks of whole records."""

    @_KERNEL_SETTINGS
    @given(
        m=st.one_of(st.just(1), st.integers(2, 12)), h=st.integers(1, 40), n=st.integers(1, 400),
        blocks=st.integers(1, 3), extra=st.floats(0, 1), small_blocks=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    # DPIN's desk shape: one query per sequence, 4,096 records per block, short sequences
    @example(m=1, h=32, n=400, blocks=2, extra=0.1, small_blocks=False, seed=1)
    # DIN's: 10 queries per sequence, few long sequences
    @example(m=10, h=32, n=3, blocks=1, extra=0.02, small_blocks=False, seed=2)
    # one column in long sequences: the query gradients must sum in record order, not pairwise
    @example(m=1, h=1, n=2, blocks=1, extra=0.01, small_blocks=False, seed=4)
    # a record larger than a block: every block holds one record
    @example(m=12, h=40, n=5, blocks=3, extra=0.0, small_blocks=True, seed=3)
    def test_forward_and_gradients_equal_the_composition(self, m, h, n, blocks, extra, small_blocks, seed):
        score_block = 64 if small_blocks else ad._SCORE_BLOCK
        per_block = max(1, score_block // (m * h))
        n_rec = per_block * (blocks - 1) + max(1, int(extra * per_block))  # spans `blocks` blocks
        rng = np.random.default_rng(seed)
        # ragged sequences, some empty: n_rec records cut at n - 1 sorted points
        segment = np.searchsorted(np.sort(rng.integers(0, n_rec + 1, size=n - 1)), np.arange(n_rec), side="right")
        r, q = rng.normal(size=(n_rec, h)), rng.normal(size=(n, m, h))
        w, c = rng.normal(size=(h, 1)), rng.normal(size=(n_rec, m))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad, "_SCORE_BLOCK", score_block)
            fused = _scores_and_grads(ad.additive_scores, r, q, segment, w, c)
            # a record scored inside the batch has the bits it has alone
            i = int(rng.integers(n_rec))
            alone = ad.additive_scores(Tensor(r[i : i + 1]), Tensor(q[segment[i] : segment[i] + 1]), [0], Tensor(w)).data
        unfused = _scores_and_grads(_unfused_scores, r, q, segment, w, c)
        for name, got, want in zip(("scores", "records", "queries", "w"), fused, unfused):
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert alone.tobytes() == fused[0][i : i + 1].tobytes()

    @pytest.mark.parametrize(
        "r,q,segment,w",
        [
            ((3, 4), (3, 5, 3), [0, 1, 2], (4, 1)),  # hidden widths differ
            ((3, 4), (3, 5, 4), [0, 1, 2], (4, 2)),  # more than one score per row
            ((2, 3, 4), (2, 5, 4), [0, 1], (4, 1)),  # records with a sequence axis
            ((3, 4), (2, 5, 4), [0, 1], (4, 1)),  # a record without a segment
            ((3, 4), (2, 5, 4), [0, 1, 2], (4, 1)),  # a segment past the sequences
            ((3, 4), (2, 5, 4), [-1, 0, 1], (4, 1)),  # a negative segment
            ((3, 4), (2, 5, 4), [1, 0, 1], (4, 1)),  # records not grouped by sequence
        ],
    )
    def test_incompatible_shapes_rejected(self, r, q, segment, w):
        with pytest.raises(UsageError, match="additive_scores"):
            ad.additive_scores(Tensor(np.ones(r)), Tensor(np.ones(q)), np.array(segment), Tensor(np.ones(w)))


def _output_and_grads(op, arrays, c):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    ad.backward(total_sum(out * c))
    return [out.data] + [t.grad for t in leaves]


def _assert_same_bytes(got, want, names):
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestAffine:
    """The fused op is `matmul` then `add`, byte for byte."""

    # rows off and on the 8-row blocks, the per-row (n == 1) kernel, no rows at all
    @pytest.mark.parametrize("m,k,n", [(1, 4, 3), (9, 5, 1), (30, 64, 32), (16, 3, 7), (0, 3, 2)])
    def test_forward_and_gradients_equal_the_composition(self, m, k, n):
        rng = np.random.default_rng([m, k, n])
        arrays = (rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=n))
        c = rng.normal(size=(m, n))
        fused = _output_and_grads(ad.affine, arrays, c)
        _assert_same_bytes(fused, _output_and_grads(unfused_affine, arrays, c), ("out", "x", "w", "b"))

    @pytest.mark.parametrize(
        "x,w,b",
        [
            ((3, 4), (4, 2), (3,)),  # bias of the wrong width
            ((3, 4), (4, 2), (1, 2)),  # bias with a row axis
            ((3, 4), (4,), (2,)),  # weight vector
            ((3, 4), (5, 2), (2,)),  # inner dimensions differ
            ((2, 3, 4), (4, 2), (2,)),  # input with a batch axis
        ],
    )
    def test_incompatible_shapes_rejected(self, x, w, b):
        with pytest.raises(UsageError, match="affine|matmul"):
            ad.affine(Tensor(np.ones(x)), Tensor(np.ones(w)), Tensor(np.ones(b)))


class TestAttention:
    """The fused op is split → bmm → ×1/√dk → softmax → bmm → merge, byte for byte."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k", [1, 10])
    def test_forward_and_gradients_equal_the_composition(self, heads, batch, k):
        rng = np.random.default_rng([heads, batch, k])
        arrays = [rng.normal(size=(batch * k, 32)) for _ in "qkv"]
        c = rng.normal(size=(batch * k, 32))
        fused = _output_and_grads(lambda q, key, v: ad.attention(q, key, v, batch, heads), arrays, c)
        unfused = _output_and_grads(lambda q, key, v: unfused_attention(q, key, v, batch, heads), arrays, c)
        _assert_same_bytes(fused, unfused, ("out", "q", "k", "v"))
        # a sequence attended inside the batch has the bits it has alone
        last = slice((batch - 1) * k, batch * k)
        alone = ad.attention(*(Tensor(a[last]) for a in arrays), 1, heads).data
        assert alone.tobytes() == fused[0][last].tobytes()

    @pytest.mark.parametrize(
        "shapes,batch,heads",
        [
            (((6, 4), (6, 4), (6, 3)), 2, 2),  # values of another width
            (((6, 4), (4, 4), (6, 4)), 2, 2),  # fewer keys than queries
            (((2, 3, 4),) * 3, 2, 2),  # projections with a batch axis
            (((6, 4),) * 3, 4, 2),  # 4 sequences do not divide 6 rows
            (((6, 4),) * 3, 0, 2),  # no sequences
            (((6, 4),) * 3, 2, 3),  # 3 heads do not divide d_model 4
            (((6, 4),) * 3, 2, 0),  # no heads
        ],
    )
    def test_incompatible_shapes_rejected(self, shapes, batch, heads):
        with pytest.raises(UsageError, match="attention"):
            ad.attention(*(Tensor(np.ones(s)) for s in shapes), batch, heads)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_scores_rejected(self, bad):
        q = np.ones((6, 4))
        q[4, 1] = bad
        # an infinite score meets the kernel's zero padding rows: inf * 0 warns before the check raises
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="attention scores"):
            ad.attention(Tensor(q), Tensor(np.ones((6, 4))), Tensor(np.ones((6, 4))), 2, 2)
