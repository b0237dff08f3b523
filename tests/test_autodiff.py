"""Unit tests for the tensor engine: ops, the gradient tape, optimizers, grad checking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posrank.autodiff as ad
from posrank.autodiff import Optimizer, Tensor
from posrank.errors import NumericError, UsageError


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
            return ad.total_sum(ad.softmax(ad.matmul(Tensor(x), Tensor(w, requires_grad=True)))).data

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
        ad.backward(ad.total_sum(x * x))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sigmoid_slope_at_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        ad.backward(ad.total_sum(ad.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.25])

    def test_softmax_sum_has_zero_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=9), requires_grad=True)
        ad.backward(ad.total_sum(ad.softmax(x)))
        np.testing.assert_allclose(x.grad, np.zeros(9), atol=1e-14)

    def test_unused_leaf_gets_zero_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        ad.backward(ad.total_sum(x * x))
        # an untouched leaf keeps grad None, which Optimizer.step skips
        assert unused.grad is None
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            ad.backward(x * 2.0)

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        ad.backward(ad.total_sum(y + y))
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
            loss = ad.total_sum(s * c) + ad.total_sum(s * s) + ad.total_sum(x * 3.0) + ad.total_sum(y * y * c)
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
        assert ad._scatter_add_rows(rows, g, n_rows).tobytes() == ref.tobytes()

    def test_embedding_and_gather_vjps_match_add_at(self):
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = rng.integers(0, 5, size=(4, 6))
        w = rng.normal(size=(4, 6, 3))
        ad.backward(ad.total_sum(ad.embedding(table, ids) * w))
        ref = np.zeros((5, 3))
        np.add.at(ref, ids.ravel(), w.reshape(-1, 3))
        assert table.grad.tobytes() == ref.tobytes()

        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([3, 0, 3, 3, 1])
        wg = rng.normal(size=(5, 3))
        ad.backward(ad.total_sum(ad.gather_rows(x, idx) * wg))
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
    return [
        ("matmul", {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
         lambda t: ad.total_sum(ad.matmul(t["a"], t["b"]))),
        ("bmm", {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 4, 2))},
         lambda t: ad.total_sum(ad.bmm(t["a"], t["b"]))),
        ("add_broadcast", {"x": rng.normal(size=(4, 3)), "b": rng.normal(size=3)},
         lambda t: ad.total_sum((t["x"] + t["b"]) * (t["x"] + t["b"]))),
        ("mul_broadcast", {"x": rng.normal(size=(4, 3)), "m": rng.normal(size=(4, 1))},
         lambda t: ad.total_sum(t["x"] * t["m"])),
        ("relu", {"x": rng.normal(size=(5, 4)) + 0.05},
         lambda t: ad.total_sum(ad.relu(t["x"]) * ad.relu(t["x"]))),
        ("sigmoid", {"x": rng.normal(size=9)},
         lambda t: ad.total_sum(ad.sigmoid(t["x"]) * np.arange(9.0))),
        ("softmax", {"x": rng.normal(size=(3, 6))},
         lambda t: ad.total_sum(ad.softmax(t["x"]) * c_soft)),
        ("masked_softmax", {"x": rng.normal(size=(3, 5))},
         lambda t: ad.total_sum(ad.softmax(t["x"] + Tensor((1.0 - mask) * -1e9)) * mask)),
        ("layer_norm", {"x": rng.normal(size=(4, 6)), "g": rng.normal(size=6), "b": rng.normal(size=6)},
         lambda t: ad.total_sum(ad.layer_norm(t["x"], t["g"], t["b"]) * c_ln)),
        ("embedding", {"table": rng.normal(size=(6, 3))},
         lambda t: ad.total_sum(ad.embedding(t["table"], ids) * c_emb)),
        ("gather_rows", {"x": rng.normal(size=(4, 3))},
         lambda t: ad.total_sum(ad.gather_rows(t["x"], idx) * c_gather)),
        ("concat_reshape", {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))},
         lambda t: ad.total_sum(ad.reshape(ad.concat([t["a"], t["b"]], axis=1), (2, 9)) * c_cat)),
        ("repeat_rows", {"x": rng.normal(size=(3, 4))},
         lambda t: ad.total_sum(ad.repeat_rows(t["x"], 2) * 1.5)),
        # (2, 0, 3, 1) is not its own inverse, so a VJP that reapplied it would fail
        ("transpose", {"x": rng.normal(size=(2, 3, 4, 5))},
         lambda t: ad.total_sum(ad.transpose(t["x"], (2, 0, 3, 1)) * c_perm)),
        ("bce", {"logits": rng.normal(size=8)},
         lambda t: ad.binary_cross_entropy(ad.sigmoid(t["logits"]), labels)),
    ]


class TestGradientCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        params = {"p": Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)}
        err = ad.gradient_check(lambda t: ad.total_sum(t["p"] * t["p"]), params, epsilon=1e-6)
        assert err < 1e-9

    @pytest.mark.parametrize("name,arrays,build", _op_cases(), ids=[c[0] for c in _op_cases()])
    def test_every_op_matches_finite_differences(self, name, arrays, build):
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        err = ad.gradient_check(build, params, epsilon=1e-6)
        assert err < 1e-5, f"{name}: max relative error {err:.2e}"

    def test_epsilon_bounds_enforced(self):
        params = {"p": Tensor(np.ones(2), requires_grad=True)}
        with pytest.raises(UsageError):
            ad.gradient_check(lambda t: ad.total_sum(t["p"]), params, epsilon=0.5)


class TestOptimizer:
    def test_sgd_definition(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        Optimizer(kind=ad.SGD, lr=0.1).step(p, {"w": np.array([2.0])})
        np.testing.assert_allclose(p["w"].data, [0.8])

    def test_zero_gradient_is_a_noop_for_sgd(self):
        p = {"w": Tensor(np.array([3.0, -1.0]), requires_grad=True)}
        Optimizer(kind=ad.SGD, lr=0.5).step(p, {"w": np.zeros(2)})
        np.testing.assert_array_equal(p["w"].data, [3.0, -1.0])

    def test_adam_first_step_magnitude_is_lr(self):
        for c in [0.01, 1.0, 250.0]:
            p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
            opt = Optimizer(kind=ad.ADAM, lr=1e-3)
            opt.step(p, {"w": np.array([c])})
            assert p["w"].data[0] == pytest.approx(-1e-3, rel=1e-3)

    def test_nan_gradient_leaves_parameters_unchanged(self):
        p = {
            "a": Tensor(np.array([1.0]), requires_grad=True),
            "b": Tensor(np.array([2.0]), requires_grad=True),
        }
        opt = Optimizer(kind=ad.SGD, lr=0.1)
        with pytest.raises(NumericError):
            opt.step(p, {"a": np.array([1.0]), "b": np.array([np.nan])})
        np.testing.assert_array_equal(p["a"].data, [1.0])
        np.testing.assert_array_equal(p["b"].data, [2.0])
        assert opt.step_count == 0

    def test_gradient_for_unknown_name_rejected(self):
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        opt = Optimizer(kind=ad.ADAM, lr=0.1)
        with pytest.raises(UsageError, match="'v'"):
            opt.step(p, {"w": np.array([1.0, 1.0]), "v": np.array([1.0])})
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])
        assert opt.step_count == 0

    def test_non_finite_gradient_names_its_tensor(self):
        p = {n: Tensor(np.ones(3), requires_grad=True) for n in ("a", "b", "c")}
        grads = {"a": np.ones(3), "b": np.array([0.0, np.inf, 0.0]), "c": np.ones(3)}
        with pytest.raises(NumericError, match="'b'"):
            Optimizer().step(p, grads)

    @pytest.mark.parametrize("kind", [ad.ADAM, ad.SGD])
    def test_flat_step_equals_per_tensor_reference(self, kind):
        rng = np.random.default_rng(14)
        shapes = {"s": (), "v": (5,), "m": (3, 4), "t": (2, 3, 2)}
        init = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        flat = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
        ref = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
        opt, ref_opt = Optimizer(kind=kind, lr=0.01), _ReferenceOptimizer(kind=kind, lr=0.01)
        # steps 3 and 4 drop a name, step 5 brings it back, step 6 drops another
        missing = {3: {"v"}, 4: {"v", "s"}, 6: {"t"}}
        for step in range(1, 7):
            grads = {
                n: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
                for n, shape in shapes.items()
                if n not in missing.get(step, ())
            }
            if step == 2:
                grads["m"][0] = -0.0
            opt.step(flat, grads)
            ref_opt.step(ref, grads)
            for n in shapes:
                assert flat[n].data.tobytes() == ref[n].data.tobytes(), (step, n)


class _ReferenceOptimizer:
    """The per-tensor update loop the flat `Optimizer` must reproduce bit for bit."""

    def __init__(self, kind, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.kind, self.lr, self.beta1, self.beta2, self.eps = kind, lr, beta1, beta2, eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        self.step_count += 1
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if self.kind == ad.SGD:
                p.data -= self.lr * g
                continue
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
            y = ad.total_sum(x * 2.0)
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
