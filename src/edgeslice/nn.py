"""Minimal dense-network substrate: forward, exact reverse-mode gradients,
adaptive-moment updates and soft target tracking.

Plain numpy, no external autodiff.  A network computes in its parameters'
dtype: inputs and upstream gradients are cast to it, and Adam's moments take
the gradients' dtype.  The offloading agent's actor/critic networks hold
float32 parameters; the forecaster's dense pieces stay float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError

_ACTIVATIONS = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(z.dtype)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                lambda z: (s := 1.0 / (1.0 + np.exp(-z))) * (1.0 - s)),
    "elu": (lambda z: np.where(z > 0.0, z, np.expm1(z)),
            lambda z: np.where(z > 0.0, 1.0, np.exp(z))),
}


def activation(name: str):
    """(f, df/dz) pair for a supported activation tag."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; "
                         f"supported: {sorted(_ACTIVATIONS)}") from None


# ---------------------------------------------------------------------------
# Generic adaptive-moment state over a dict of named arrays
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment buffers with bias correction, keyed by array name.

    The first update fixes the layout: the gradient names, their order and
    their shapes.  Both moments live in one flat buffer each, in that order
    and in the first gradients' dtype; ``m[name]`` and ``v[name]`` are
    reshaped views into them."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)
    _m: np.ndarray = field(default=None, init=False, repr=False)
    _v: np.ndarray = field(default=None, init=False, repr=False)
    _spans: dict = field(default_factory=dict, init=False, repr=False)

    def apply(self, params: dict, grads: dict, lr: float) -> None:
        """In-place adaptive-moment update of params given matching grads.

        lr == 0 is a strict no-op (moments untouched).  Raises ValueError
        when the gradients' names or shapes differ from the first update's,
        and DivergenceError naming the first parameter with a non-finite
        gradient."""
        if lr == 0.0:
            return
        layout = [(name, g.shape) for name, g in grads.items()]
        fixed = [(name, m.shape) for name, m in self.m.items()]
        if fixed and layout != fixed:
            raise ValueError(f"gradient layout {layout} differs from the "
                             f"moments' layout {fixed}")
        g = np.concatenate([a.ravel() for a in grads.values()])
        if not np.isfinite(g).all():
            bad = next(name for name, a in grads.items() if not np.isfinite(a).all())
            raise DivergenceError(f"non-finite gradient for parameter {bad!r}")
        if not fixed:
            self._allocate(layout, g.size, g.dtype)
        self.step += 1
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        # In place over the flat buffers, in the operation order of
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps).
        # The concatenated gradient and one scratch array are the step's
        # only allocations.
        m, v = self._m, self._v
        sq = g * (1.0 - self.beta2)
        sq *= g
        v *= self.beta2
        v += sq
        g *= 1.0 - self.beta1
        m *= self.beta1
        m += g
        step = np.divide(m, bc1, out=g)
        step *= lr
        denom = np.divide(v, bc2, out=sq)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        for name, shape in layout:
            params[name] -= step[self._spans[name]].reshape(shape)

    def _allocate(self, layout: list, size: int, dtype) -> None:
        self._m = np.zeros(size, dtype)
        self._v = np.zeros(size, dtype)
        start = 0
        for name, shape in layout:
            span = self._spans[name] = slice(start, start + math.prod(shape))
            self.m[name] = self._m[span].reshape(shape)
            self.v[name] = self._v[span].reshape(shape)
            start = span.stop


# ---------------------------------------------------------------------------
# Dense feed-forward network
# ---------------------------------------------------------------------------

class Network:
    """Ordered dense layers with per-layer activations.

    Parameters live in ``params`` as arrays named ``w0, b0, w1, ...`` with
    weight shape (fan_in, fan_out), all of one floating dtype; `initialize`
    draws float64.  Inputs are (batch, in) or (in,).  `forward` and
    `backward` cast their input and upstream to that dtype and compute in
    it, so outputs and gradients have it too.
    """

    def __init__(self, dims, activations, params: dict):
        if len(dims) < 2:
            raise ValueError("need at least an input and an output dimension")
        if len(activations) != len(dims) - 1:
            raise ValueError("one activation tag per layer required")
        for tag in activations:
            activation(tag)
        self.dims = tuple(int(d) for d in dims)
        self.activations = tuple(activations)
        self.params = params
        self.adam = AdamState()

    @classmethod
    def initialize(cls, dims, activations, rng: np.random.Generator) -> "Network":
        """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        params = {}
        for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            params[f"w{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            params[f"b{i}"] = rng.uniform(-bound, bound, size=(fan_out,))
        return cls(dims, activations, params)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, in which the network computes."""
        return self.params["w0"].dtype

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1

    def copy(self) -> "Network":
        return Network(self.dims, self.activations,
                       {k: v.copy() for k, v in self.params.items()})

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, return_cache: bool = False):
        """Layer-wise affine + activation composition; pure and deterministic."""
        x = np.asarray(x, dtype=self.dtype)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.dims[0]:
            raise ValueError(f"input dim {h.shape[1]} != network input {self.dims[0]}")
        pre = []
        post = [h]
        for i in range(self.num_layers):
            z = h @ self.params[f"w{i}"]
            z += self.params[f"b{i}"]
            pre.append(z)
            if self.activations[i] == "relu":
                # In place: backward reads relu's step from the output.
                h = np.maximum(z, 0.0, out=z)
            else:
                h = activation(self.activations[i])[0](z)
            post.append(h)
        out = h[0] if squeeze else h
        if return_cache:
            return out, {"pre": pre, "post": post, "squeeze": squeeze}
        return out

    def backward(self, cache: dict, upstream: np.ndarray, *, input_grad: bool = True):
        """Exact reverse-mode gradients of forward for a cached pass.

        upstream is dLoss/dOutput with the output's shape.  Returns
        (grads dict matching params, dLoss/dInput); dLoss/dInput is None
        when ``input_grad`` is false, which skips its product."""
        if cache is None:
            raise ValueError("backward requires the cache from a forward pass")
        upstream = np.asarray(upstream, dtype=self.dtype)
        delta = upstream[None, :] if cache["squeeze"] else upstream
        grads = {}
        for i in reversed(range(self.num_layers)):
            tag = self.activations[i]
            # Same bits as delta * df(pre): relu's derivative is the 0/1
            # step, sigmoid's is s(1 - s) of the cached output, identity's 1.
            if tag == "relu":
                # In place except at the output layer, where delta is the
                # caller's upstream array.
                delta = np.multiply(delta, cache["post"][i + 1] > 0.0,
                                    out=delta if i < self.num_layers - 1 else None)
            elif tag == "sigmoid":
                s = cache["post"][i + 1]
                delta = delta * (s * (1.0 - s))
            elif tag != "identity":
                delta = delta * activation(tag)[1](cache["pre"][i])
            grads[f"w{i}"] = cache["post"][i].T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            if i == 0 and not input_grad:
                return grads, None
            w = self.params[f"w{i}"]
            # A 1-wide layer's input gradient is an outer product: each
            # entry is one exact multiply, so broadcasting skips the matmul.
            delta = delta * w.T if w.shape[1] == 1 else delta @ w.T
        dinput = delta[0] if cache["squeeze"] else delta
        return grads, dinput

    # -- updates -------------------------------------------------------------

    def apply_gradients(self, grads: dict, lr: float) -> None:
        """One adaptive-moment step along -grads."""
        self.adam.apply(self.params, grads, lr)


def soft_update(target: Network, online: Network, tau: float) -> None:
    """target <- tau * online + (1 - tau) * target, elementwise in place."""
    if target.dims != online.dims or target.activations != online.activations:
        raise ValueError("target and online architectures differ")
    for name, p in online.params.items():
        target.params[name] *= (1.0 - tau)
        target.params[name] += tau * p
