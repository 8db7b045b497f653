"""Dense-network substrate tests: forward algebra, reverse-mode gradients
against central finite differences, optimizer behavior, soft updates."""

import warnings

import numpy as np
import pytest

from edgeslice.errors import DivergenceError
from edgeslice.nn import AdamState, Network, activation, soft_update

ALL_ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid", "elu")


def random_net(rng, dims=None, acts=None):
    if dims is None:
        n_layers = rng.integers(1, 4)
        dims = [int(rng.integers(2, 9)) for _ in range(n_layers + 1)]
    if acts is None:
        acts = [str(rng.choice(ALL_ACTIVATIONS)) for _ in range(len(dims) - 1)]
    return Network.initialize(dims, acts, rng)


def finite_difference_grads(net, x, loss_fn, h=1e-4):
    """Independent central-difference oracle over every parameter."""
    grads = {}
    for name, p in net.params.items():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss_fn(net.forward(x))
            flat[k] = orig - h
            lm = loss_fn(net.forward(x))
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].ravel(), numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_gradients(net, x, h=1e-4):
    def loss_fn(y):
        return float(np.sum(y ** 2))
    y, cache = net.forward(x, return_cache=True)
    grads, _ = net.backward(cache, 2.0 * y)
    numeric = finite_difference_grads(net, x, loss_fn, h=h)
    return max_rel_error(grads, numeric)


class TestForward:
    def test_zero_weights_output_activation_of_bias(self):
        net = Network((3, 2), ("tanh",),
                      {"w0": np.zeros((3, 2)), "b0": np.array([0.5, -0.5])})
        out = net.forward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, np.tanh([0.5, -0.5]))

    def test_identity_layer_passes_input_through(self):
        net = Network((3, 3), ("identity",),
                      {"w0": np.eye(3), "b0": np.zeros(3)})
        x = np.array([1.0, -2.0, 0.25])
        assert np.allclose(net.forward(x), x)

    def test_three_layer_matches_manual_composition(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, dims=[4, 5, 3, 2], acts=["tanh", "relu", "identity"])
        x = rng.normal(size=4)
        # Independent matrix arithmetic, written out longhand.
        h1 = np.tanh(x @ net.params["w0"] + net.params["b0"])
        h2 = np.maximum(h1 @ net.params["w1"] + net.params["b1"], 0.0)
        expected = h2 @ net.params["w2"] + net.params["b2"]
        assert np.allclose(net.forward(x), expected, atol=1e-12)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        x = rng.normal(size=net.dims[0])
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_dimension_mismatch_rejected(self):
        net = random_net(np.random.default_rng(0), dims=[4, 2], acts=["relu"])
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_of_large_input_raises_no_warning(self, dtype):
        # The exponential branch is discarded above 0, so it must not
        # overflow there either.
        f, df = activation("elu")
        z = np.array([1e3, -1e3, -0.0, 0.5], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, slope = f(z), df(z)
        assert out.dtype == slope.dtype == dtype
        assert out.tolist() == [1e3, -1.0, 0.0, 0.5]
        assert np.signbit(out[2])
        assert slope.tolist() == [1.0, 0.0, 1.0, 1.0]


class TestBackward:
    def test_linear_squared_loss_closed_form(self):
        # d/dW of (Wx+b-y)^2 summed = 2 (Wx+b-y) x^T on a 2x2 case.
        rng = np.random.default_rng(4)
        W = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        net = Network((2, 2), ("identity",), {"w0": W.copy(), "b0": b.copy()})
        out, cache = net.forward(x, return_cache=True)
        grads, _ = net.backward(cache, 2.0 * (out - y))
        resid = x @ W + b - y
        assert np.allclose(grads["w0"], np.outer(x, 2 * resid))
        assert np.allclose(grads["b0"], 2 * resid)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        net = random_net(rng)
        x = rng.normal(size=net.dims[0])
        _, cache = net.forward(x, return_cache=True)
        grads, dx = net.backward(cache, np.zeros(net.dims[-1]))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(dx == 0)

    def test_missing_cache_rejected(self):
        net = random_net(np.random.default_rng(1))
        with pytest.raises(ValueError):
            net.backward(None, np.zeros(net.dims[-1]))

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    def test_gradients_match_finite_differences_per_activation(self, act):
        rng = np.random.default_rng(hash(act) % 2 ** 31)
        for trial in range(5):
            dims = [int(rng.integers(2, 7)) for _ in range(rng.integers(2, 4))]
            net = random_net(rng, dims=dims, acts=[act] * (len(dims) - 1))
            x = rng.normal(size=net.dims[0])
            assert check_gradients(net, x) <= 1e-4

    def test_batched_input_gradients(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, dims=[3, 4, 2], acts=["elu", "identity"])
        x = rng.normal(size=(6, 3))
        y, cache = net.forward(x, return_cache=True)
        grads, dx = net.backward(cache, 2.0 * y)
        numeric = finite_difference_grads(net, x, lambda out: float(np.sum(out ** 2)))
        assert max_rel_error(grads, numeric) <= 1e-4
        assert dx.shape == x.shape


def reference_backward(net, x, upstream):
    """Textbook reverse pass: delta * f'(z), then W^T, all via matmul."""
    h, pre, post = x, [], [x]
    for i in range(net.num_layers):
        z = h @ net.params[f"w{i}"] + net.params[f"b{i}"]
        h = activation(net.activations[i])[0](z)
        pre.append(z)
        post.append(h)
    delta, grads = upstream, {}
    for i in reversed(range(net.num_layers)):
        delta = delta * activation(net.activations[i])[1](pre[i])
        grads[f"w{i}"] = post[i].T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        delta = delta @ net.params[f"w{i}"].T
    return h, grads, delta


class TestKernelBits:
    """The trimmed kernels give the textbook formulas' exact bits."""

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("width_out", [1, 3])
    def test_forward_backward_bits(self, act, width_out):
        rng = np.random.default_rng(31)
        net = random_net(rng, dims=[5, 7, 6, width_out], acts=[act, act, act])
        x = rng.normal(size=(40, 5))
        upstream = rng.normal(size=(40, width_out))
        upstream_before = upstream.copy()
        out_ref, grads_ref, dx_ref = reference_backward(net, x, upstream)
        out, cache = net.forward(x, return_cache=True)
        grads, dx = net.backward(cache, upstream)
        assert np.array_equal(out, out_ref)
        assert all(np.array_equal(grads[k], grads_ref[k]) for k in grads_ref)
        assert np.array_equal(dx, dx_ref)
        assert np.array_equal(upstream, upstream_before)  # caller's array kept

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    def test_skipped_input_gradient_keeps_parameter_bits(self, act):
        rng = np.random.default_rng(34)
        net = random_net(rng, dims=[5, 7, 1], acts=[act, act])
        x = rng.normal(size=(20, 5))
        upstream = rng.normal(size=(20, 1))
        _, cache = net.forward(x, return_cache=True)
        grads, dx = net.backward(cache, upstream)
        _, cache = net.forward(x, return_cache=True)
        skipped, none = net.backward(cache, upstream, input_grad=False)
        assert none is None and dx is not None
        assert grads.keys() == skipped.keys()
        assert all(np.array_equal(grads[k], skipped[k]) for k in grads)

    def test_backward_leaves_single_row_upstream_untouched(self):
        rng = np.random.default_rng(32)
        net = random_net(rng, dims=[3, 4, 2], acts=["relu", "relu"])
        _, cache = net.forward(rng.normal(size=3), return_cache=True)
        upstream = np.array([-1.5, 2.0])
        net.backward(cache, upstream)
        assert np.array_equal(upstream, [-1.5, 2.0])

    def test_adam_bits_over_several_steps(self):
        rng = np.random.default_rng(33)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v2 = {k: np.zeros_like(v) for k, v in params.items()}
        adam = AdamState()
        for step in range(1, 6):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            adam.apply(params, grads, lr=1e-2)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v2[k] = 0.999 * v2[k] + (1.0 - 0.999) * g * g
                m_hat = m[k] / (1.0 - 0.9 ** step)
                v_hat = v2[k] / (1.0 - 0.999 ** step)
                ref[k] -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert all(np.array_equal(params[k], ref[k]) for k in ref)


class TestDtype:
    """A network computes in its parameters' dtype."""

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    def test_float32_params_give_float32_outputs_and_gradients(self, act):
        rng = np.random.default_rng(36)
        double = random_net(rng, dims=[5, 7, 1], acts=[act, act])
        single = Network(double.dims, double.activations,
                         {k: v.astype(np.float32) for k, v in double.params.items()})
        x = rng.normal(size=(20, 5))
        out, cache = single.forward(x, return_cache=True)
        grads, dx = single.backward(cache, rng.normal(size=(20, 1)))
        assert single.dtype == out.dtype == dx.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())
        np.testing.assert_allclose(out, double.forward(x), rtol=1e-5, atol=1e-6)
        single.apply_gradients(grads, lr=1e-2)
        assert all(p.dtype == np.float32 for p in single.params.values())
        assert single.adam._m.dtype == single.adam._v.dtype == np.float32

    def test_float64_params_keep_float64(self):
        net = random_net(np.random.default_rng(37), dims=[3, 4, 2],
                         acts=["relu", "identity"])
        out = net.forward(np.ones(3, dtype=np.float32))
        assert net.dtype == out.dtype == np.float64


class TestOptimizerStep:
    def test_lr_zero_is_noop(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        before = {k: v.copy() for k, v in net.params.items()}
        grads = {k: rng.normal(size=v.shape) for k, v in net.params.items()}
        net.apply_gradients(grads, lr=0.0)
        assert all(np.array_equal(before[k], net.params[k]) for k in before)

    def test_first_step_descends(self):
        net = Network((1, 1), ("identity",),
                      {"w0": np.array([[1.0]]), "b0": np.array([0.0])})
        net.apply_gradients({"w0": np.array([[2.0]]), "b0": np.array([0.0])}, lr=0.1)
        assert net.params["w0"][0, 0] < 1.0

    def test_first_step_magnitude_is_lr(self):
        # Bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g).
        for g in (3.0, -0.017, 500.0):
            net = Network((1, 1), ("identity",),
                          {"w0": np.array([[0.0]]), "b0": np.array([0.0])})
            net.apply_gradients({"w0": np.array([[g]]), "b0": np.array([0.0])},
                                lr=1e-3)
            assert abs(net.params["w0"][0, 0]) == pytest.approx(1e-3, rel=1e-5)

    def test_non_finite_gradients_abort(self):
        net = random_net(np.random.default_rng(6))
        grads = {k: np.full(v.shape, np.nan) for k, v in net.params.items()}
        with pytest.raises(DivergenceError):
            net.apply_gradients(grads, lr=1e-3)


class TestSoftUpdate:
    def make_pair(self):
        rng = np.random.default_rng(8)
        online = random_net(rng, dims=[3, 4, 2], acts=["relu", "identity"])
        target = random_net(rng, dims=[3, 4, 2], acts=["relu", "identity"])
        return target, online

    def test_tau_one_copies_online(self):
        target, online = self.make_pair()
        soft_update(target, online, 1.0)
        assert all(np.allclose(target.params[k], online.params[k])
                   for k in online.params)

    def test_tau_zero_keeps_target(self):
        target, online = self.make_pair()
        before = {k: v.copy() for k, v in target.params.items()}
        soft_update(target, online, 0.0)
        assert all(np.array_equal(before[k], target.params[k]) for k in before)

    def test_halfway_blend(self):
        target = Network((1, 1), ("identity",),
                         {"w0": np.array([[0.0]]), "b0": np.array([0.0])})
        online = Network((1, 1), ("identity",),
                         {"w0": np.array([[1.0]]), "b0": np.array([1.0])})
        soft_update(target, online, 0.5)
        assert target.params["w0"][0, 0] == 0.5
        assert target.params["b0"][0] == 0.5

    def test_architecture_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        a = random_net(rng, dims=[3, 2], acts=["relu"])
        b = random_net(rng, dims=[3, 3], acts=["relu"])
        with pytest.raises(ValueError):
            soft_update(a, b, 0.5)

    def test_preserves_finiteness_and_linearity(self):
        target, online = self.make_pair()
        t0 = {k: v.copy() for k, v in target.params.items()}
        soft_update(target, online, 0.25)
        for k in t0:
            expected = 0.25 * online.params[k] + 0.75 * t0[k]
            assert np.allclose(target.params[k], expected)
            assert np.all(np.isfinite(target.params[k]))


class TestAdamState:
    def test_shared_across_named_arrays(self):
        adam = AdamState()
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        adam.apply(params, {"a": np.array([1.0]), "b": np.array([-1.0])}, lr=0.01)
        assert params["a"][0] < 1.0 and params["b"][0] > 2.0

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            activation("swish")

    def test_moments_are_views_into_flat_buffers(self):
        rng = np.random.default_rng(35)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        adam = AdamState()
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v2 = {k: np.zeros_like(v) for k, v in params.items()}
        for _ in range(3):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            adam.apply(params, grads, lr=1e-2)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v2[k] = 0.999 * v2[k] + (1.0 - 0.999) * g * g
        for k in params:
            assert adam.m[k].shape == params[k].shape
            assert np.array_equal(adam.m[k], m[k])
            assert np.array_equal(adam.v[k], v2[k])
        # One flat buffer per moment, split without overlap.
        assert adam.m["w"].base is adam.m["b"].base is not None
        assert not np.shares_memory(adam.m["w"], adam.m["b"])

    @pytest.mark.parametrize("later", [
        {"w": np.ones((2, 2))},                                   # one missing
        {"w": np.ones((2, 2)), "c": np.ones(3)},                  # renamed
        {"w": np.ones((2, 2)), "b": np.ones(4)},                  # reshaped
        {"w": np.ones(4), "b": np.ones(3)},                       # same size, new shape
        {"b": np.ones(3), "w": np.ones((2, 2))},                  # reordered
        {"w": np.ones((2, 2)), "b": np.ones(3), "c": np.ones(1)},  # one added
    ])
    def test_layout_fixed_by_first_update(self, later):
        params = {"w": np.zeros((2, 2)), "b": np.zeros(3), "c": np.zeros(3)}
        adam = AdamState()
        adam.apply(params, {"w": np.ones((2, 2)), "b": np.ones(3)}, lr=0.1)
        before = ({k: v.copy() for k, v in params.items()},
                  {k: v.copy() for k, v in adam.m.items()})
        with pytest.raises(ValueError, match="layout"):
            adam.apply(params, later, lr=0.1)
        assert adam.step == 1
        assert all(np.array_equal(before[0][k], params[k]) for k in params)
        assert all(np.array_equal(before[1][k], adam.m[k]) for k in adam.m)

    def test_non_finite_error_names_first_bad_parameter(self):
        params = {"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)}
        adam = AdamState()
        grads = {"a": np.ones(2), "b": np.array([1.0, np.nan]),
                 "c": np.array([np.inf, 1.0])}
        with pytest.raises(DivergenceError, match="'b'"):
            adam.apply(params, grads, lr=0.1)
        assert adam.step == 0 and not adam.m
        assert all(not p.any() for p in params.values())
