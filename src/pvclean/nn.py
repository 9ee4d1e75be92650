"""Minimal dense networks with exact reverse-mode gradients.

Supports the affine chains used by the agents: ReLU hidden layers and a
linear or softmax head, float64 throughout.  Gradients are computed
analytically per layer; an Adam optimizer and a bit-exact text persistence
format round out the module.  Nothing here is a general autodiff system.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DenseNet", "Adam", "clip_global_norm", "save_net", "load_net"]

_ACTIVATIONS = ("relu", "linear", "softmax")


class DenseNet:
    """Fully connected chain of ``layer_dims``, one activation per layer.

    Weights use scaled-normal init (variance 2/fan_in for relu layers,
    1/fan_in otherwise), biases start at zero.  ``softmax`` is only valid
    on the final layer.
    """

    def __init__(self, layer_dims, activations, seed: int = 0):
        if len(layer_dims) != len(activations) + 1:
            raise ValueError("need one activation per layer")
        for i, act in enumerate(activations):
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
            if act == "softmax" and i != len(activations) - 1:
                raise ValueError("softmax only allowed on the final layer")
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self.activations = tuple(activations)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self.weights = []
        self.biases = []
        for i, act in enumerate(self.activations):
            fan_in, fan_out = self.layer_dims[i], self.layer_dims[i + 1]
            std = np.sqrt((2.0 if act == "relu" else 1.0) / fan_in)
            self.weights.append(gen.normal(0.0, std, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    def parameters(self):
        """Flat list of parameter arrays (weights and biases, interleaved)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x) -> np.ndarray:
        """Run the chain on ``x`` of shape (in_dim,) or (n, in_dim).

        Caches activations for a subsequent :meth:`backward`.
        """
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        a = x.reshape(1, -1) if squeeze else x
        if a.shape[1] != self.in_dim:
            raise ValueError(f"input dim {a.shape[1]} != {self.in_dim}")
        cache = [a]
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ w.T + b
            if act == "relu":
                a = np.maximum(z, 0.0)
            elif act == "linear":
                a = z
            else:  # softmax
                z = z - z.max(axis=1, keepdims=True)
                e = np.exp(z)
                a = e / e.sum(axis=1, keepdims=True)
            cache.append(a)
        self._cache = cache
        return a[0] if squeeze else a

    def backward(self, grad_out):
        """Gradients of a scalar loss given dL/d(output).

        Returns a flat list aligned with :meth:`parameters`.  Requires a
        preceding forward() on the same inputs.
        """
        if self._cache is None:
            raise RuntimeError("backward() before forward()")
        g = np.asarray(grad_out, dtype=float)
        if g.ndim == 1:
            g = g.reshape(1, -1)
        cache = self._cache
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            a_out = cache[i + 1]
            a_in = cache[i]
            act = self.activations[i]
            if act == "relu":
                dz = g * (a_out > 0.0)
            elif act == "linear":
                dz = g
            else:  # softmax jacobian: dz = p * (g - sum(g * p))
                dz = a_out * (g - (g * a_out).sum(axis=1, keepdims=True))
            grads_w[i] = dz.T @ a_in
            grads_b[i] = dz.sum(axis=0)
            g = dz @ self.weights[i]
        out = []
        for gw, gb in zip(grads_w, grads_b):
            out.append(gw)
            out.append(gb)
        return out

    def copy(self) -> "DenseNet":
        other = DenseNet(self.layer_dims, self.activations, seed=0)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other


class Adam:
    """Adaptive-moment update with bias correction."""

    def __init__(self, net: DenseNet, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in net.parameters()]
        self.v = [np.zeros_like(p) for p in net.parameters()]

    def step(self, grads) -> None:
        params = self.net.parameters()
        if len(grads) != len(params):
            raise ValueError("gradient list does not match parameters")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def clip_global_norm(grads, max_norm: float):
    """Scale the gradient list so its global L2 norm is at most ``max_norm``."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads


_MAGIC = "pvclean-densenet v1"


def save_net(net: DenseNet, path) -> None:
    """Persist a network as versioned text; bit-exact via float hex."""
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        fh.write("dims " + " ".join(str(d) for d in net.layer_dims) + "\n")
        fh.write("activations " + " ".join(net.activations) + "\n")
        for w, b in zip(net.weights, net.biases):
            for row in w:
                fh.write(" ".join(float(x).hex() for x in row) + "\n")
            fh.write(" ".join(float(x).hex() for x in b) + "\n")


def load_net(path) -> DenseNet:
    """Load a network saved by :func:`save_net`; forward outputs match bit-for-bit.

    Raises ValueError unless the file holds exactly one complete network.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a pvclean-densenet v1 file")
    header = [ln.split() for ln in lines[1:3]]
    if len(header) != 2 or header[0][:1] != ["dims"] or header[1][:1] != ["activations"]:
        raise ValueError(f"{path}: missing dims/activations header")
    try:
        dims = [int(d) for d in header[0][1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: bad dims line: {exc}") from exc
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: layer sizes must be >= 1: {dims}")
    expected = 3 + sum(fan_out + 1 for fan_out in dims[1:])
    if len(lines) != expected:
        raise ValueError(f"{path}: {len(lines)} lines, dims {dims} need {expected}")

    def row(idx: int, n: int) -> list:
        try:
            values = [float.fromhex(x) for x in lines[idx].split()]
        except ValueError as exc:
            raise ValueError(f"{path}: line {idx + 1}: {exc}") from exc
        if len(values) != n:
            raise ValueError(f"{path}: line {idx + 1}: {len(values)} values, expected {n}")
        return values

    weights, biases = [], []
    idx = 3
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(np.array([row(idx + k, fan_in) for k in range(fan_out)]))
        biases.append(np.array(row(idx + fan_out, fan_out)))
        idx += fan_out + 1
    try:
        net = DenseNet(dims, header[1][1:], seed=0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    net.weights, net.biases = weights, biases
    return net
