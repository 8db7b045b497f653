"""Per-region traffic forecasting.

An encoder-decoder over scalar user-count sequences: the encoder stacks
sparse self-attention layers with halving feature-distillation blocks
(width-3 convolution, ELU, stride-2 max-pool); the decoder runs causal
self-attention over the recent window plus placeholder positions, then
cross-attention into the encoder output; a two-layer head maps each
placeholder position to a predicted count.

The input windows are model hyperparameters: `build_io` cuts them from the
model's `ForecastConfig`, which its checkpoint stores, so a loaded model
reads the windows it was trained on.

Every pass runs all regions at once: sequences are stacked as (regions,
length, channels) and each matmul is a stacked `@`, which multiplies region
by region, so a region's outputs have the bits of a pass over that region
alone.  Parameter gradients add the regions' contributions in region order.

A model computes in its trainable parameters' dtype: normalised inputs,
targets, the positional encoding, every intermediate and every gradient
take it.  A fresh model holds float64 draws; `fit` casts them to float32
before its first window, and a loaded checkpoint is float32.  The
normalisation statistics stay float64, and forecasts are denormalised in
float64.  All gradients are hand-derived reverse mode; selection indices
(top-u queries, max-pool argmax) are treated as constants.  The
persistence baseline, the forecast used without a trained model, lives
here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .errors import CheckpointError, DivergenceError
from .nn import AdamState, activation

_ELU, _DELU = activation("elu")


# ---------------------------------------------------------------------------
# Series container and encoder/decoder input assembly
# ---------------------------------------------------------------------------

@dataclass
class TrafficSeries:
    """Validated user counts per (region, long slot); a model cuts its own
    input windows from them (`build_io`)."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.ndim != 2:
            raise ValueError(f"counts must be (regions, slots), got shape {self.counts.shape}")
        if not np.all(np.isfinite(self.counts)):
            raise ValueError("user counts must be finite")
        if self.counts.size and np.any(self.counts < 0):
            raise ValueError("user counts must be nonnegative")

    @property
    def num_regions(self) -> int:
        return self.counts.shape[0]

    @property
    def num_slots(self) -> int:
        return self.counts.shape[1]


def build_io(counts: np.ndarray, horizon: int, config: ForecastConfig):
    """Encoder input (the last ``config.history_window`` slots of (regions,
    slots) ``counts``) and decoder input (the last ``config.current_window``
    slots followed by a zero placeholder of length ``horizon``)."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if counts.shape[1] < 1:
        raise ValueError("cannot build model inputs from an empty history")
    x_en = counts[:, -config.history_window:]
    x_cur = counts[:, -config.current_window:]
    placeholder = np.zeros((counts.shape[0], horizon))
    x_de = np.concatenate([x_cur, placeholder], axis=1)
    return x_en, x_de


# ---------------------------------------------------------------------------
# Attention primitives (single head, regions stacked)
# ---------------------------------------------------------------------------

def _softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _t(a: np.ndarray) -> np.ndarray:
    """Each region's matrix transposed."""
    return a.swapaxes(-1, -2)


def sparsity_measure(scores: np.ndarray) -> np.ndarray:
    """Per-query activity score: max over keys minus the mean over keys."""
    return scores.max(axis=-1) - scores.mean(axis=-1)


def top_u_queries(scores: np.ndarray, u: int) -> np.ndarray:
    """Indices of the u most active queries, per region when scores are
    stacked; ties broken by lower index."""
    order = np.argsort(-sparsity_measure(scores), axis=-1, kind="stable")
    return np.sort(order[..., :u], axis=-1)


def _probsparse_forward(Q, K, V, u):
    R, L_q, d = Q.shape
    scores = Q @ _t(K) / math.sqrt(d)
    sel = top_u_queries(scores, u)
    rows = np.arange(R)[:, None]
    attn = _softmax_rows(scores[rows, sel])
    out = np.repeat(V.mean(axis=1)[:, None, :], L_q, axis=1)
    out[rows, sel] = attn @ V
    return out, (Q, K, V, sel, attn)


def _probsparse_backward(cache, d_out):
    Q, K, V, sel, attn = cache
    R, L_q, d = Q.shape
    L_k = K.shape[1]
    scale = 1.0 / math.sqrt(d)
    rows = np.arange(R)[:, None]
    dQ = np.zeros_like(Q)
    dK = np.zeros_like(K)
    dV = np.zeros_like(V)
    # Selected rows: softmax attention.
    d_sel = d_out[rows, sel]
    dV += _t(attn) @ d_sel
    d_attn = d_sel @ _t(V)
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    dQ[rows, sel] = d_scores @ K * scale
    dK += _t(d_scores) @ Q[rows, sel] * scale
    # Remaining rows emit the column mean of V.
    rest = L_q - sel.shape[1]
    if rest:
        mask = np.ones((R, L_q), dtype=bool)
        mask[rows, sel] = False
        d_rest = d_out[mask].reshape(R, rest, -1)
        dV += (d_rest.sum(axis=1) / L_k)[:, None, :]
    return dQ, dK, dV


def probsparse_attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray, u: int) -> np.ndarray:
    """Sparse attention: full softmax rows for the top-u queries ranked by
    the max-minus-mean activity of their key scores; all other query rows
    output the column mean of V."""
    Q, K, V = (np.asarray(m, dtype=float) for m in (Q, K, V))
    if Q.ndim != 2 or K.ndim != 2 or V.ndim != 2:
        raise ValueError("Q, K, V must be matrices")
    if Q.shape[1] != K.shape[1] or K.shape[0] != V.shape[0]:
        raise ValueError(
            f"incompatible shapes Q{Q.shape} K{K.shape} V{V.shape}")
    if not 1 <= u <= Q.shape[0]:
        raise ValueError(f"query budget u={u} outside [1, {Q.shape[0]}]")
    out, _ = _probsparse_forward(Q[None], K[None], V[None], u)
    return out[0]


def _masked_forward(Q, K, V):
    """Causal dense attention: query i attends keys 0..i."""
    L, d = Q.shape[1:]
    scores = Q @ _t(K) / math.sqrt(d)
    scores = np.where(np.triu(np.ones((L, L), dtype=bool), k=1), -np.inf, scores)
    attn = _softmax_rows(scores)
    return attn @ V, (Q, K, V, attn)


def _masked_backward(cache, d_out):
    Q, K, V, attn = cache
    scale = 1.0 / math.sqrt(Q.shape[-1])
    dV = _t(attn) @ d_out
    d_attn = d_out @ _t(V)
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    dQ = d_scores @ K * scale
    dK = _t(d_scores) @ Q * scale
    return dQ, dK, dV


# ---------------------------------------------------------------------------
# Distillation block: width-3 convolution, ELU, stride-2 max-pool
# ---------------------------------------------------------------------------

def _conv1d_forward(x, kernel, bias):
    """Same-padded width-3 convolution over time; x is (R, L, d_in)."""
    R, L, d_in = x.shape
    pad = np.zeros((R, L + 2, d_in), dtype=x.dtype)
    pad[:, 1:-1] = x
    y = np.empty((R, L, kernel.shape[2]), dtype=x.dtype)
    y[...] = bias
    for k in range(3):
        y += pad[:, k:k + L] @ kernel[k]
    return y, pad


def _conv1d_backward(pad, kernel, d_y):
    """Per-region kernel and bias gradients, and the input gradient."""
    L = d_y.shape[1]
    d_kernel = np.empty((d_y.shape[0],) + kernel.shape, dtype=d_y.dtype)
    d_pad = np.zeros_like(pad)
    for k in range(3):
        d_kernel[:, k] = _t(pad[:, k:k + L]) @ d_y
        d_pad[:, k:k + L] += d_y @ kernel[k].T
    return d_kernel, d_y.sum(axis=1), d_pad[:, 1:-1]


def _maxpool_forward(x):
    """Width-2 stride-2 max over time; odd tails pass through."""
    L = x.shape[1]
    L_even = (L // 2) * 2
    first, second = x[:, 0:L_even:2], x[:, 1:L_even:2]
    # Which slot of each pair holds the max; a tie picks the first.
    arg = second > first
    out = np.maximum(first, second)
    if L % 2:
        out = np.concatenate([out, x[:, -1:]], axis=1)
    return out, (L, arg)


def _maxpool_backward(cache, d_out):
    L, arg = cache
    n_pairs = arg.shape[1]
    # Pool windows are disjoint, so each gradient lands in one slot.
    d_pairs = d_out[:, :n_pairs]
    dx = np.zeros((d_out.shape[0], L, d_out.shape[2]), dtype=d_out.dtype)
    dx[:, 0:2 * n_pairs:2] = np.where(arg, 0.0, d_pairs)
    dx[:, 1:2 * n_pairs:2] = np.where(arg, d_pairs, 0.0)
    if L % 2:
        dx[:, -1] = d_out[:, -1]
    return dx


def distill_block(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Halve a feature sequence: convolution, ELU, max-pool.

    x is (L, channels) with L >= 2; output has ceil(L/2) rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"distill_block needs (L>=2, channels), got shape {x.shape}")
    y, _ = _conv1d_forward(x[None], kernel, bias)
    pooled, _ = _maxpool_forward(_ELU(y))
    return pooled[0]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class ForecastConfig:
    width: int = 32
    encoder_layers: int = 2
    topu_factor: float = 5.0
    head_hidden: int = 32
    history_window: int = 64  # most recent slots fed to the encoder
    current_window: int = 8   # recent slots prefixed to the decoder input

    def __post_init__(self):
        """Sizes are integers >= 1 (the width >= 2), ``topu_factor`` finite."""
        for f in fields(self):
            value, integer = getattr(self, f.name), f.name != "topu_factor"
            minimum = 2 if f.name == "width" else 1 if integer else -math.inf
            if (isinstance(value, bool)
                    or not isinstance(value, int if integer else (int, float))
                    or not minimum <= value < math.inf):
                kind = f"an integer >= {minimum}" if integer else "a finite number"
                raise ValueError(f"field 'forecaster.{f.name}' must be {kind}, got {value!r}")


_PE_TABLES: dict = {}  # (width, dtype) -> read-only encoding of the longest length asked


def _positional_encoding(length: int, width: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal (length, width) encoding as a read-only view in ``dtype``.

    Row ``p`` depends only on ``p`` and ``width``, so each width and dtype
    keeps one table, computed in float64 and rebuilt only when a longer
    sequence arrives, and every shorter length is a prefix of it: training
    cuts of many lengths share it."""
    key = (width, np.dtype(dtype))
    table = _PE_TABLES.get(key)
    if table is None or len(table) < length:
        pos = np.arange(length)[:, None]
        dim = np.arange(width)[None, :]
        angle = pos / np.power(10000.0, (2 * (dim // 2)) / width)
        table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype, copy=False)
        table.flags.writeable = False
        _PE_TABLES[key] = table
    return table[:length]


def _layout(config: ForecastConfig):
    """Each trainable parameter's (name, shape, fan-in), in the order
    `ForecastModel` draws them."""
    d = config.width
    yield "embed_w", (d,), 1
    yield "embed_b", (d,), 1
    for i in range(config.encoder_layers):
        for proj in ("wq", "wk", "wv"):
            yield f"enc{i}_{proj}", (d, d), d
        if i < config.encoder_layers - 1:
            yield f"dist{i}_kernel", (3, d, d), 3 * d
            yield f"dist{i}_bias", (d,), 3 * d
    for proj in ("wq", "wk", "wv"):
        yield f"dec_self_{proj}", (d, d), d
        yield f"dec_cross_{proj}", (d, d), d
    yield "head_w0", (d, config.head_hidden), d
    yield "head_b0", (config.head_hidden,), d
    yield "head_w1", (config.head_hidden, 1), config.head_hidden
    yield "head_b1", (1,), config.head_hidden


_DTYPE = np.float32  # the dtype `fit` trains in and a checkpoint loads as
_STATS = ("norm_mean", "norm_std")  # float64 normalisation statistics, not trained


class ForecastModel:
    """Encoder-decoder traffic predictor with named parameters.

    The trainable arrays share one floating dtype, in which the model
    computes (`dtype`); construction draws them in float64.  The
    normalisation statistics ``norm_mean`` and ``norm_std`` are float64."""

    FORMAT = "forecaster"

    def __init__(self, config: ForecastConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict = {}
        self.adam = AdamState()
        for name, shape, fan_in in _layout(config):
            bound = 1.0 / math.sqrt(fan_in)
            self.params[name] = rng.uniform(-bound, bound, size=shape)
        # Normalization stats, learned from the training series.
        self.params["norm_mean"] = np.zeros(())
        self.params["norm_std"] = np.ones(())

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        checkpoint.save_arrays(path, self.params,
                               {"format": self.FORMAT, **asdict(self.config)})

    @classmethod
    def load(cls, path) -> "ForecastModel":
        """Read a checkpoint, checking every stored array against the shape
        its header's configuration builds before any parameter is made, so
        a header naming a huge width costs no memory.  A ``norm_std`` <= 0
        is refused: `fit` stores at least 1e-6."""
        arrays, meta = checkpoint.load_arrays(path)
        if meta.get("format") != cls.FORMAT:
            raise CheckpointError(f"{path}: not a forecaster checkpoint")
        try:
            config = ForecastConfig(**{f.name: meta[f.name]
                                       for f in fields(ForecastConfig)})
        except KeyError as exc:
            raise CheckpointError(f"{path}: forecaster checkpoint lacks {exc}") from exc
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        shapes = {name: shape for name, shape, _ in _layout(config)}
        shapes.update(dict.fromkeys(_STATS, ()))
        missing = sorted(set(shapes) - set(arrays))
        if missing:
            raise CheckpointError(f"{path}: forecaster checkpoint lacks {missing}")
        for name, shape in shapes.items():
            checkpoint.check_array(path, name, arrays[name], shape)
        if not arrays["norm_std"] > 0:
            raise CheckpointError(f"{path}: array 'norm_std' must be > 0, got "
                                  f"{float(arrays['norm_std'])!r}")
        model = cls.__new__(cls)
        model.config, model.adam = config, AdamState()
        # Trainable arrays load as float32 (older checkpoints store float64);
        # the statistics stay float64, so inputs are normalised with
        # unrounded values.
        model.params = {name: arrays[name].astype(float if name in _STATS else _DTYPE,
                                                  copy=False)
                        for name in shapes}
        return model

    @property
    def dtype(self) -> np.dtype:
        """The trainable parameters' dtype, in which the model computes."""
        return self.params["embed_w"].dtype

    def _cast(self, dtype) -> None:
        """Cast every trainable array to ``dtype``; the statistics keep theirs."""
        for name, arr in self.params.items():
            if name not in _STATS:
                self.params[name] = arr.astype(dtype, copy=False)

    # -- internals -----------------------------------------------------------

    def _budget(self, length: int) -> int:
        u = math.ceil(self.config.topu_factor * math.log(max(length, 2)))
        return max(1, min(length, u))

    def _normalize(self, x):
        """Counts scaled in float64, returned in the model's dtype."""
        x = (x - float(self.params["norm_mean"])) / float(self.params["norm_std"])
        return x.astype(self.dtype, copy=False)

    def _denormalize(self, x):
        """Model outputs back to counts, in float64."""
        x = x.astype(float, copy=False)
        return x * float(self.params["norm_std"]) + float(self.params["norm_mean"])

    def _forward_region(self, x_en, x_de, want_cache=False):
        """Every region's sequences -> per-decoder-position head outputs.

        x_en is (regions, L_en) and x_de (regions, L_de); the output is
        (regions, L_de).  A 1-D pair is one region and gives a 1-D output."""
        p = self.params
        squeeze = np.ndim(x_en) == 1
        x_en, x_de = np.atleast_2d(x_en, x_de)

        def embed(x):
            h = self._normalize(x)[..., None] * p["embed_w"] + p["embed_b"]
            return h + _positional_encoding(x.shape[1], self.config.width, self.dtype)

        h = embed(x_en)
        enc_caches = []
        for i in range(self.config.encoder_layers):
            Q = h @ p[f"enc{i}_wq"]
            K = h @ p[f"enc{i}_wk"]
            V = h @ p[f"enc{i}_wv"]
            attn_out, attn_cache = _probsparse_forward(Q, K, V, self._budget(h.shape[1]))
            h_res = h + attn_out
            layer = {"h_in": h, "attn": attn_cache, "dist": None}
            h = h_res
            if i < self.config.encoder_layers - 1 and h.shape[1] >= 2:
                conv, pad = _conv1d_forward(h, p[f"dist{i}_kernel"], p[f"dist{i}_bias"])
                act = _ELU(conv)
                pooled, pool_cache = _maxpool_forward(act)
                layer["dist"] = (pad, conv, pool_cache)
                h = pooled
            enc_caches.append(layer)
        enc_out = h

        de = embed(x_de)
        Qs = de @ p["dec_self_wq"]
        Ks = de @ p["dec_self_wk"]
        Vs = de @ p["dec_self_wv"]
        self_out, self_cache = _masked_forward(Qs, Ks, Vs)
        dec = de + self_out
        Qc = dec @ p["dec_cross_wq"]
        Kc = enc_out @ p["dec_cross_wk"]
        Vc = enc_out @ p["dec_cross_wv"]
        cross_out, cross_cache = _probsparse_forward(
            Qc, Kc, Vc, self._budget(dec.shape[1]))
        fused = dec + cross_out

        z0 = fused @ p["head_w0"] + p["head_b0"]
        a0 = _ELU(z0)
        out = (a0 @ p["head_w1"] + p["head_b1"])[..., 0]
        if squeeze:
            out = out[0]
        if not want_cache:
            return out
        cache = dict(x_en=x_en, x_de=x_de, enc=enc_caches, enc_h=enc_out,
                     de=de, dec=dec, fused=fused, z0=z0, a0=a0,
                     self_cache=self_cache, cross_cache=cross_cache)
        return out, cache

    def _backward_region(self, cache, d_out, grads):
        """Accumulate parameter gradients for a cached forward pass.

        d_out has the forward output's shape.  Each parameter gradient
        adds the regions' contributions in region order.  The cache is
        consumed: backward pops each entry when it reaches it."""
        p = self.params
        d_col = np.atleast_2d(np.asarray(d_out, dtype=self.dtype))[..., None]
        _accumulate(grads["head_b1"], d_col.sum(axis=1))
        _accumulate(grads["head_w1"], _t(cache.pop("a0")) @ d_col)
        d_a0 = d_col @ p["head_w1"].T
        d_z0 = d_a0 * _DELU(cache.pop("z0"))
        _accumulate(grads["head_b0"], d_z0.sum(axis=1))
        _accumulate(grads["head_w0"], _t(cache.pop("fused")) @ d_z0)
        d_fused = d_z0 @ p["head_w0"].T

        # Cross attention (residual around it).
        d_dec = d_fused.copy()
        dQc, dKc, dVc = _probsparse_backward(cache.pop("cross_cache"), d_fused)
        enc_h = cache.pop("enc_h")
        _accumulate(grads["dec_cross_wq"], _t(cache.pop("dec")) @ dQc)
        _accumulate(grads["dec_cross_wk"], _t(enc_h) @ dKc)
        _accumulate(grads["dec_cross_wv"], _t(enc_h) @ dVc)
        d_dec += dQc @ p["dec_cross_wq"].T
        d_enc = dKc @ p["dec_cross_wk"].T + dVc @ p["dec_cross_wv"].T

        # Decoder self attention (residual).
        d_de = d_dec.copy()
        dQs, dKs, dVs = _masked_backward(cache.pop("self_cache"), d_dec)
        de = cache.pop("de")
        _accumulate(grads["dec_self_wq"], _t(de) @ dQs)
        _accumulate(grads["dec_self_wk"], _t(de) @ dKs)
        _accumulate(grads["dec_self_wv"], _t(de) @ dVs)
        d_de += dQs @ p["dec_self_wq"].T + dKs @ p["dec_self_wk"].T + dVs @ p["dec_self_wv"].T
        dec_w, dec_b = self._embed_grads(cache.pop("x_de"), d_de)

        # Encoder stack, reversed.
        d_h = d_enc
        layers = cache.pop("enc")
        for i in reversed(range(self.config.encoder_layers)):
            layer = layers.pop()
            if layer["dist"] is not None:
                pad, conv, pool_cache = layer["dist"]
                d_act = _maxpool_backward(pool_cache, d_h)
                d_conv = d_act * _DELU(conv)
                d_kernel, d_bias, d_h = _conv1d_backward(pad, p[f"dist{i}_kernel"], d_conv)
                _accumulate(grads[f"dist{i}_kernel"], d_kernel)
                _accumulate(grads[f"dist{i}_bias"], d_bias)
            d_in = d_h.copy()
            dQ, dK, dV = _probsparse_backward(layer["attn"], d_h)
            h_in = layer["h_in"]
            _accumulate(grads[f"enc{i}_wq"], _t(h_in) @ dQ)
            _accumulate(grads[f"enc{i}_wk"], _t(h_in) @ dK)
            _accumulate(grads[f"enc{i}_wv"], _t(h_in) @ dV)
            d_in += dQ @ p[f"enc{i}_wq"].T + dK @ p[f"enc{i}_wk"].T + dV @ p[f"enc{i}_wv"].T
            d_h = d_in
        enc_w, enc_b = self._embed_grads(cache.pop("x_en"), d_h)
        # The shared embedding takes each region's decoder then encoder part.
        for r in range(d_col.shape[0]):
            grads["embed_w"] += dec_w[r]
            grads["embed_w"] += enc_w[r]
            grads["embed_b"] += dec_b[r]
            grads["embed_b"] += enc_b[r]

    def _embed_grads(self, x, d_h):
        """Per-region (embed_w, embed_b) gradients of an embedded sequence."""
        xn = self._normalize(x)
        return (xn[..., None] * d_h).sum(axis=1), d_h.sum(axis=1)


def _accumulate(grad: np.ndarray, parts: np.ndarray) -> None:
    """grad += parts[0]; grad += parts[1]; ... in region order."""
    for part in parts:
        grad += part


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def forecast(model: ForecastModel, series: TrafficSeries, horizon: int) -> np.ndarray:
    """Predict the next ``horizon`` slots per region; clamped nonnegative."""
    if series.num_regions < 1:
        raise ValueError("series covers no regions")
    x_en, x_de = build_io(series.counts, horizon, model.config)
    out = model._forward_region(x_en, x_de)
    return np.maximum(model._denormalize(out[:, -horizon:]), 0.0)


def fit(model: ForecastModel, series: TrafficSeries, epochs: int, lr: float,
        rng: np.random.Generator | None = None):
    """Squared-error training on every cut t of the series from
    ``max(2, current_window)`` on: the counts before slot t predict slot t.

    Trains in float32: the trainable parameters are cast once, before the
    first window, and Adam's moments take their dtype.  Returns the
    per-epoch mean loss trace.  epochs == 0 leaves every parameter
    bit-identical.  A non-finite loss aborts with diagnostics.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return []
    rng = rng if rng is not None else np.random.default_rng(0)
    counts = series.counts
    cuts = range(max(2, model.config.current_window), series.num_slots)
    if not cuts:
        raise ValueError(f"series too short to train on: {series.num_slots} slots")
    model.params["norm_mean"] = np.asarray(counts.mean())
    model.params["norm_std"] = np.asarray(max(counts.std(), 1e-6))
    model._cast(_DTYPE)

    trace = []
    for _ in range(epochs):
        order = rng.permutation(len(cuts))
        epoch_loss = 0.0
        for w in order:
            t = cuts[w]
            x_en, x_de = build_io(counts[:, :t], 1, model.config)
            target = model._normalize(counts[:, t:t + 1])
            grads = {name: np.zeros_like(arr) for name, arr in model.params.items()
                     if name not in _STATS}
            out, cache = model._forward_region(x_en, x_de, want_cache=True)
            err = out[:, -1:] - target
            denom = target.size
            loss = 0.0
            for e in err:
                loss += float(e @ e) / denom
            d_out = np.zeros_like(out)
            d_out[:, -1:] = 2.0 * err / denom
            model._backward_region(cache, d_out, grads)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at window {t}", curves=trace)
            model.adam.apply(model.params, grads, lr)
            epoch_loss += loss
        trace.append(epoch_loss / len(cuts))
    return trace


def baseline_forecast(series: TrafficSeries, horizon: int) -> np.ndarray:
    """Persistence: every future slot repeats the last observed count."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if series.num_slots == 0:
        raise ValueError("cannot forecast from an empty history")
    return np.tile(series.counts[:, -1:], (1, horizon))
