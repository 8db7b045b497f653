"""Forecaster tests: IO assembly, sparse attention vs a dense reference,
distillation block algebra, stacked vs per-region passes, training
behavior, float32 computation, baselines."""

import hashlib
import math
import tracemalloc
from copy import deepcopy

import numpy as np
import pytest

from edgeslice import checkpoint, forecasting, harness
from edgeslice.config import build_config
from edgeslice.errors import CheckpointError, DivergenceError
from edgeslice.forecasting import (ForecastConfig, ForecastModel, TrafficSeries,
                                   _positional_encoding, baseline_forecast, build_io, distill_block,
                                   fit, forecast, probsparse_attention,
                                   sparsity_measure, top_u_queries)


def dense_attention_reference(Q, K, V):
    """Independent dense softmax attention used as the oracle."""
    scores = Q @ K.T / math.sqrt(Q.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    return attn @ V, attn


class TestTrafficSeries:
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_invalid_counts_rejected(self, bad):
        counts = np.ones((2, 5))
        counts[1, 3] = bad
        with pytest.raises(ValueError, match="nonnegative|finite"):
            TrafficSeries(counts)


class TestBuildIO:
    def test_shape_law(self):
        counts = np.arange(12.0).reshape(2, 6)
        x_en, x_de = build_io(counts, 2, ForecastConfig(current_window=3))
        assert x_de.shape == (2, 5)
        assert np.all(x_de[:, -2:] == 0)

    def test_decoder_prefix_is_current_window(self):
        counts = np.arange(12.0).reshape(2, 6)
        _, x_de = build_io(counts, 2, ForecastConfig(current_window=3))
        assert np.array_equal(x_de[:, :3], counts[:, -3:])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            build_io(np.zeros((2, 0)), 1, ForecastConfig())

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_io(np.ones((1, 4)), 0, ForecastConfig())


class TestProbsparseAttention:
    def test_full_budget_equals_dense(self):
        rng = np.random.default_rng(0)
        Q, K, V = (rng.normal(size=(7, 4)) for _ in range(3))
        dense, _ = dense_attention_reference(Q, K, V)
        assert np.allclose(probsparse_attention(Q, K, V, u=7), dense, atol=1e-10)

    def test_single_query_and_key(self):
        Q = np.array([[1.0, 2.0]])
        K = np.array([[0.5, -1.0]])
        V = np.array([[3.0, 4.0]])
        assert np.allclose(probsparse_attention(Q, K, V, u=1), V)

    def test_partial_budget_against_reference(self):
        rng = np.random.default_rng(42)
        Q, K, V = (rng.normal(size=(6, 4)) for _ in range(3))
        out = probsparse_attention(Q, K, V, u=2)
        # Reference: compute selection and per-row outputs independently.
        scores = Q @ K.T / math.sqrt(4)
        measure = scores.max(axis=1) - scores.mean(axis=1)
        sel = np.sort(np.argsort(-measure, kind="stable")[:2])
        dense, _ = dense_attention_reference(Q, K, V)
        for i in range(6):
            if i in sel:
                assert np.allclose(out[i], dense[i], atol=1e-12)
            else:
                assert np.allclose(out[i], V.mean(axis=0), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        Q, K, V = (rng.normal(size=(9, 5)) for _ in range(3))
        scores = Q @ K.T / math.sqrt(5)
        sel = top_u_queries(scores, 4)
        e = np.exp(scores[sel] - scores[sel].max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(attn >= 0)

    def test_exactly_u_selected_with_index_tie_break(self):
        # Identical rows give identical sparsity scores; stable order keeps
        # the lowest indices.
        Q = np.ones((5, 3))
        K = np.ones((4, 3))
        scores = Q @ K.T / math.sqrt(3)
        sel = top_u_queries(scores, 3)
        assert np.array_equal(sel, [0, 1, 2])
        assert len(top_u_queries(scores, 5)) == 5

    def test_budget_out_of_range_rejected(self):
        rng = np.random.default_rng(2)
        Q, K, V = (rng.normal(size=(4, 3)) for _ in range(3))
        with pytest.raises(ValueError):
            probsparse_attention(Q, K, V, u=0)
        with pytest.raises(ValueError):
            probsparse_attention(Q, K, V, u=5)

    def test_measure_is_max_minus_mean(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 6))
        expected = scores.max(axis=1) - scores.mean(axis=1)
        assert np.allclose(sparsity_measure(scores), expected)


class TestDistillBlock:
    def identity_kernel(self, d):
        kernel = np.zeros((3, d, d))
        kernel[1] = np.eye(d)
        return kernel

    def test_halves_length(self):
        x = np.arange(16.0).reshape(8, 2)
        out = distill_block(x, self.identity_kernel(2), np.zeros(2))
        assert out.shape == (4, 2)

    def test_constant_input_identity_kernel(self):
        c = 1.7
        x = np.full((6, 3), c)
        out = distill_block(x, self.identity_kernel(3), np.zeros(3))
        # Interior rows see conv output exactly c; ELU(c) = c for c > 0.
        assert np.allclose(out[1:], c)

    def test_matches_stepwise_reference(self):
        rng = np.random.default_rng(5)
        L, d_in, d_out = 7, 3, 2
        x = rng.normal(size=(L, d_in))
        kernel = rng.normal(size=(3, d_in, d_out))
        bias = rng.normal(size=d_out)
        # Reference: explicit padding, per-position convolution, ELU, pool.
        padded = np.vstack([np.zeros((1, d_in)), x, np.zeros((1, d_in))])
        conv = np.empty((L, d_out))
        for t in range(L):
            acc = bias.copy()
            for k in range(3):
                acc = acc + padded[t + k] @ kernel[k]
            conv[t] = acc
        act = np.where(conv > 0, conv, np.expm1(conv))
        pooled = []
        for t in range(0, L - 1, 2):
            pooled.append(np.maximum(act[t], act[t + 1]))
        pooled.append(act[-1])  # odd tail
        assert np.allclose(distill_block(x, kernel, bias), np.vstack(pooled),
                           atol=1e-12)

    @pytest.mark.parametrize("length", list(range(2, 65)))
    def test_shape_law_all_lengths(self, length):
        x = np.random.default_rng(length).normal(size=(length, 2))
        out = distill_block(x, self.identity_kernel(2), np.zeros(2))
        assert out.shape[0] == math.ceil(length / 2)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            distill_block(np.ones((1, 2)), self.identity_kernel(2), np.zeros(2))


def small_model(width=8, layers=2, seed=0):
    config = ForecastConfig(width=width, encoder_layers=layers, head_hidden=8,
                            history_window=16, current_window=4)
    return ForecastModel(config, np.random.default_rng(seed))


class TestForecast:
    def test_output_shape(self):
        model = small_model()
        series = TrafficSeries(np.random.default_rng(0).uniform(0, 10, (3, 20)))
        out = forecast(model, series, horizon=2)
        assert out.shape == (3, 2)

    def test_deterministic(self):
        model = small_model(seed=3)
        series = TrafficSeries(np.random.default_rng(1).uniform(0, 10, (2, 12)))
        assert np.array_equal(forecast(model, series, 2), forecast(model, series, 2))

    def test_nonnegative_and_finite(self):
        model = small_model(seed=5)
        series = TrafficSeries(np.random.default_rng(2).uniform(0, 30, (2, 15)))
        out = forecast(model, series, 3)
        assert np.all(out >= 0) and np.all(np.isfinite(out))


def grad_names(model):
    return [n for n in model.params if n not in ("norm_mean", "norm_std")]


def single_precision(model):
    """A float32 copy of ``model``, cast the way `fit` casts it."""
    single = deepcopy(model)
    single._cast(np.float32)
    return single


class TestStackedRegions:
    """A pass over stacked regions equals one 1-D pass per region, bit for
    bit: outputs and every parameter gradient, the shared embedding too,
    for the float64 draws and for their float32 cast."""

    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("slots", list(range(1, 21)) + [63, 64, 65, 159])
    def test_stacked_equals_per_region(self, slots, horizon):
        model = ForecastModel(ForecastConfig(), np.random.default_rng(slots))
        rng = np.random.default_rng(100 + slots)
        counts = rng.uniform(0, 30, (3, slots))
        model.params["norm_mean"] = np.asarray(counts.mean())
        model.params["norm_std"] = np.asarray(max(counts.std(), 1e-6))
        x_en, x_de = build_io(counts, horizon, model.config)
        upstream = rng.normal(size=(3, horizon))
        for m in (model, single_precision(model)):
            out, cache = m._forward_region(x_en, x_de, want_cache=True)
            assert out.dtype == m.dtype
            d_out = np.zeros_like(out)
            d_out[:, -horizon:] = upstream
            stacked = {n: np.zeros_like(m.params[n]) for n in grad_names(m)}
            m._backward_region(cache, d_out, stacked)

            single = {n: np.zeros_like(m.params[n]) for n in grad_names(m)}
            for r in range(3):
                out_r, cache_r = m._forward_region(x_en[r], x_de[r], want_cache=True)
                assert out_r.shape == (x_de.shape[1],)
                assert out_r.tobytes() == out[r].tobytes()
                m._backward_region(cache_r, d_out[r], single)
            for name in single:
                assert stacked[name].tobytes() == single[name].tobytes(), (m.dtype, name)

    def test_one_pass_per_window(self, monkeypatch):
        counts = {"forward": 0, "backward": 0}
        forward, backward = ForecastModel._forward_region, ForecastModel._backward_region

        def counted(fn, key):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(ForecastModel, "_forward_region", counted(forward, "forward"))
        monkeypatch.setattr(ForecastModel, "_backward_region", counted(backward, "backward"))
        model = small_model(seed=19)
        series = TrafficSeries(np.random.default_rng(6).uniform(0, 9, (3, 12)))
        fit(model, series, epochs=2, lr=1e-3, rng=np.random.default_rng(0))
        windows = 2 * (12 - 4)
        assert counts == {"forward": windows, "backward": windows}
        forecast(model, series, 2)
        assert counts["forward"] == windows + 1


class TestFit:
    def test_golden_training_bits(self):
        # sha256 over the loss trace, parameters and Adam moments of a small
        # training run, pinned when training moved to float32.  Like
        # sliceoff's outputs, the last bits depend on the BLAS kernel.
        cfg = build_config({"regions": 3, "forecaster": {
            "width": 8, "encoder_layers": 2, "head_hidden": 8,
            "history_window": 16, "current_window": 4, "epochs": 2, "lr": 1e-3}})
        model, trace = harness.train_forecaster(cfg, seed=5, history_slots=40)
        digest = hashlib.sha256()
        digest.update(repr(trace).encode())
        for name in sorted(model.params):
            digest.update(name.encode() + model.params[name].tobytes())
        for name in sorted(model.adam.m):
            digest.update(name.encode() + model.adam.m[name].tobytes()
                          + model.adam.v[name].tobytes())
        digest.update(repr(model.adam.step).encode())
        assert digest.hexdigest() == \
            "c4a9281d9faedd68efd10c42d44a78a958bf44bbcdc71541ca13b5272f71e7d1"

    def test_zero_epochs_leaves_parameters_bit_identical(self):
        model = small_model(seed=7)
        before = {k: v.copy() for k, v in model.params.items()}
        series = TrafficSeries(np.random.default_rng(0).uniform(0, 9, (2, 20)))
        trace = fit(model, series, epochs=0, lr=1e-3)
        assert trace == []
        assert all(np.array_equal(before[k], model.params[k]) for k in before)

    def test_constant_series_loss_decreases_to_small(self):
        model = small_model(seed=9)
        series = TrafficSeries(np.full((2, 24), 5.0))
        trace = fit(model, series, epochs=20, lr=1e-3,
                    rng=np.random.default_rng(0))
        assert trace[-1] <= trace[0]
        assert trace[-1] < 1e-2

    def test_gradients_match_finite_differences(self):
        # Down-scaled model; frozen input window; loss = squared error of the
        # horizon outputs against fixed targets.
        model = small_model(width=4, layers=2, seed=11)
        rng = np.random.default_rng(4)
        x_en = rng.uniform(1, 9, size=12)
        x_de = rng.uniform(1, 9, size=5)
        x_de[-1] = 0.0
        target = np.array([4.0])
        names = [n for n in model.params if n not in ("norm_mean", "norm_std")]

        def loss():
            out = model._forward_region(x_en, x_de)
            err = out[-1:] - target
            return float(err @ err)

        out, cache = model._forward_region(x_en, x_de, want_cache=True)
        grads = {n: np.zeros_like(model.params[n]) for n in names}
        d_out = np.zeros_like(out)
        d_out[-1:] = 2.0 * (out[-1:] - target)
        model._backward_region(cache, d_out, grads)

        h = 1e-4
        worst = 0.0
        for name in names:
            flat = model.params[name].ravel()
            gflat = grads[name].ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = loss()
                flat[k] = orig - h
                lm = loss()
                flat[k] = orig
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(gflat[k]), 1e-8)
                worst = max(worst, abs(numeric - gflat[k]) / denom)
        assert worst <= 1e-4

    def test_divergence_aborts_with_diagnostic(self):
        model = small_model(seed=13)
        model.params["head_w1"][:] = np.inf
        series = TrafficSeries(np.random.default_rng(0).uniform(0, 9, (2, 16)))
        with pytest.raises(DivergenceError):
            fit(model, series, epochs=1, lr=1e-3, rng=np.random.default_rng(0))


def floating_arrays(obj):
    """Every floating ndarray inside nested tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        return [obj] if np.issubdtype(obj.dtype, np.floating) else []
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in floating_arrays(item)]
    return []


def window_pass(model, counts, t):
    """One fit window's forward output and parameter gradients."""
    x_en, x_de = build_io(counts[:, :t], 1, model.config)
    out, cache = model._forward_region(x_en, x_de, want_cache=True)
    d_out = np.zeros_like(out)
    d_out[:, -1:] = out[:, -1:] - model._normalize(counts[:, t:t + 1])
    grads = {n: np.zeros_like(model.params[n]) for n in grad_names(model)}
    model._backward_region(cache, d_out, grads)
    return out, grads


class TestSinglePrecision:
    """`fit` trains in float32 and a loaded model computes in float32; the
    statistics stay float64 and no pass is upcast by a float64 temporary."""

    def series(self, seed=0, slots=24):
        return TrafficSeries(np.random.default_rng(seed).uniform(0, 9, (3, slots)))

    def test_fresh_model_holds_float64_draws(self):
        model = small_model(seed=2)
        assert model.dtype == np.float64
        assert all(a.dtype == np.float64 for a in model.params.values())
        fit(model, self.series(), epochs=0, lr=1e-3)
        assert model.dtype == np.float64

    def test_fit_leaves_float32_parameters_and_moments(self):
        model = small_model(seed=3)
        fit(model, self.series(), epochs=1, lr=1e-3, rng=np.random.default_rng(0))
        for name, arr in model.params.items():
            expected = np.float64 if name in ("norm_mean", "norm_std") else np.float32
            assert arr.dtype == expected, name
        assert model.adam._m.dtype == model.adam._v.dtype == np.float32
        assert all(model.adam.m[n].dtype == model.adam.v[n].dtype == np.float32
                   for n in grad_names(model))

    def test_window_pass_stays_float32(self, monkeypatch):
        model = small_model(seed=4)
        counts = self.series(seed=1).counts
        fit(model, TrafficSeries(counts), epochs=1, lr=1e-3, rng=np.random.default_rng(0))
        seen = []

        def guarded(fn, check_args=True):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                checked = (args, kwargs, result) if check_args else result
                seen.extend((fn.__name__, a.dtype) for a in floating_arrays(checked))
                return result
            return wrapped
        for name in ("_probsparse_forward", "_probsparse_backward", "_masked_forward",
                     "_masked_backward", "_conv1d_forward", "_conv1d_backward",
                     "_maxpool_forward", "_maxpool_backward", "_ELU", "_DELU",
                     "_accumulate", "_positional_encoding"):
            monkeypatch.setattr(forecasting, name, guarded(getattr(forecasting, name)))
        for name in ("_normalize", "_embed_grads"):
            # Their inputs are float64 counts; their results must not be.
            monkeypatch.setattr(model, name, guarded(getattr(model, name), False))
        out, grads = window_pass(model, counts, 20)
        assert out.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())
        assert {name for name, _ in seen} >= {"_conv1d_backward", "_maxpool_backward",
                                              "_accumulate", "_embed_grads"}
        assert [(n, d) for n, d in seen if d != np.float32] == []

    def test_float32_gradients_match_float64(self):
        # The same draws and window in both precisions: every parameter's
        # analytic gradient agrees to a float32-sized relative tolerance.
        tolerance = 100 * np.finfo(np.float32).eps
        counts = self.series(seed=5).counts
        for seed in range(5):
            model = small_model(seed=seed)
            model.params["norm_mean"] = np.asarray(counts.mean())
            model.params["norm_std"] = np.asarray(counts.std())
            out64, grads64 = window_pass(model, counts, 16 + seed)
            out32, grads32 = window_pass(single_precision(model), counts, 16 + seed)
            assert np.allclose(out32, out64, rtol=0, atol=tolerance * np.abs(out64).max())
            for name, g in grads64.items():
                error = np.linalg.norm(grads32[name] - g) / np.linalg.norm(g)
                assert error <= tolerance, (seed, name, error)

    def test_float64_checkpoint_loads_as_float32(self, tmp_path):
        # A checkpoint written before training moved to float32 stores every
        # array as float64.
        model = small_model(seed=6)
        series = self.series(seed=2)
        model.params["norm_mean"] = np.asarray(series.counts.mean())
        model.params["norm_std"] = np.asarray(series.counts.std())
        path = tmp_path / "legacy.ckpt"
        checkpoint.save_arrays(path, model.params, {"format": ForecastModel.FORMAT,
                                                    **vars(model.config)})
        loaded = ForecastModel.load(path)
        for name, arr in loaded.params.items():
            if name in ("norm_mean", "norm_std"):
                assert arr.dtype == np.float64
                assert arr.tobytes() == model.params[name].tobytes(), name
            else:
                assert arr.dtype == np.float32
                assert arr.tobytes() == model.params[name].astype(np.float32).tobytes(), name
        out = forecast(loaded, series, 2)
        assert out.dtype == np.float64
        assert out.tobytes() == forecast(single_precision(model), series, 2).tobytes()


class TestBaselineForecast:
    def test_persistence_repeats_last(self):
        series = TrafficSeries(np.array([[1.0, 2.0, 7.0]]))
        out = baseline_forecast(series, horizon=3)
        assert np.all(out == 7.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            baseline_forecast(TrafficSeries(np.zeros((1, 0))), 1)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_outputs(self, tmp_path):
        model = small_model(seed=17)
        series = TrafficSeries(np.random.default_rng(3).uniform(0, 9, (2, 14)))
        fit(model, series, epochs=2, lr=1e-3, rng=np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = ForecastModel.load(path)
        assert np.array_equal(forecast(model, series, 2), forecast(loaded, series, 2))

    def test_oversized_header_refused_before_allocating(self, tmp_path):
        # A header width of 1024 sizes (1024, 1024) and (3, 1024, 1024)
        # parameters, about 120 MB in all.  The stored arrays have the
        # default width, so the load is refused before any parameter is made.
        path = tmp_path / "model.ckpt"
        ForecastModel(ForecastConfig(), np.random.default_rng(0)).save(path)
        arrays, meta = checkpoint.load_arrays(path)
        checkpoint.save_arrays(path, arrays, {**meta, "width": 1024})
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="'embed_w'"):
                ForecastModel.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak

    def test_magic_line_checked(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_text("NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(ValueError):
            ForecastModel.load(path)


def test_positional_encoding_is_a_shared_read_only_prefix():
    def direct(length, width):
        pos = np.arange(length)[:, None]
        dim = np.arange(width)[None, :]
        angle = pos / np.power(10000.0, (2 * (dim // 2)) / width)
        return np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))

    short = _positional_encoding(5, 6)
    for length in (5, 40, 3):
        pe = _positional_encoding(length, 6)
        assert np.array_equal(pe, direct(length, 6))
        assert not pe.flags.writeable
    assert np.array_equal(short, direct(5, 6))
