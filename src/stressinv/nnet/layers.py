"""Network layers built on the autodiff tensor primitives."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def he_uniform(rng, fan_in, shape):
    """He-style fan-in uniform initialization."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class: parameter collection plus a train/eval switch."""

    def __init__(self):
        self.training = True

    def _members(self):
        """Attribute values in vars order, with list and tuple items inlined."""
        for value in vars(self).values():
            if isinstance(value, (list, tuple)):
                yield from value
            else:
                yield value

    def _state_arrays(self):
        """Parameters (Tensors with requires_grad) and buffers (ndarray
        attributes, such as batch-norm running statistics), depth first."""
        for value in self._members():
            if isinstance(value, Module):
                yield from value._state_arrays()
            elif isinstance(value, np.ndarray) or (
                    isinstance(value, Tensor) and value.requires_grad):
                yield value

    def parameters(self):
        return [v for v in self._state_arrays() if isinstance(v, Tensor)]

    def children(self):
        return [v for v in self._members() if isinstance(v, Module)]

    def train(self):
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self):
        self.training = False
        for child in self.children():
            child.eval()
        return self

    def forward(self, x, rng=None):
        raise NotImplementedError

    def __call__(self, x, rng=None):
        out = self.forward(x, rng=rng)
        if not np.all(np.isfinite(out.data)):
            raise T.NumericError(f"non-finite activation from {type(self).__name__}")
        return out

    def state(self):
        """Copies of every parameter and buffer, in a stable order."""
        return [_array(v).copy() for v in self._state_arrays()]

    def load_state(self, arrays):
        targets = [_array(v) for v in self._state_arrays()]
        if len(arrays) != len(targets):
            raise ValueError(f"state length {len(arrays)} != expected {len(targets)}")
        for target, a in zip(targets, arrays):
            a = np.asarray(a, dtype=np.float64)
            if a.shape != target.shape:
                raise ValueError(f"state shape {a.shape} != expected {target.shape}")
            target[...] = a


def _array(value):
    return value.data if isinstance(value, Tensor) else value


class Linear(Module):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(he_uniform(rng, in_features, (in_features, out_features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x, rng=None):
        return T.matmul(x, self.weight) + self.bias


class LeakyReLU(Module):
    def __init__(self, slope=0.01):
        super().__init__()
        self.slope = slope

    def forward(self, x, rng=None):
        return T.leaky_relu(x, self.slope)


class ELU(Module):
    def __init__(self, alpha=1.0):
        super().__init__()
        if alpha <= 0:
            raise ValueError("elu alpha must be positive")
        self.alpha = alpha

    def forward(self, x, rng=None):
        return T.elu(x, self.alpha)


class LayerNorm(Module):
    """Per-row normalization followed by a learned affine map."""

    def __init__(self, dim, eps=1e-5):
        super().__init__()
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        self.dim = dim
        self.eps = eps
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x, rng=None):
        mu = T.mean(x, axis=1, keepdims=True)
        centered = x - mu
        var = T.mean(centered * centered, axis=1, keepdims=True)
        xhat = centered / T.sqrt(var + self.eps)
        return xhat * self.gamma + self.beta


class BatchNorm(Module):
    """Per-column normalization with running statistics for eval mode."""

    def __init__(self, dim, eps=1e-5, momentum=0.1):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x, rng=None):
        if self.training:
            if x.data.shape[0] < 2:
                raise ValueError("batch_norm in train mode needs at least 2 rows")
            mu = T.mean(x, axis=0, keepdims=True)
            centered = x - mu
            var = T.mean(centered * centered, axis=0, keepdims=True)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mu.data[0])
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data[0])
            xhat = centered / T.sqrt(var + self.eps)
        else:
            xhat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return xhat * self.gamma + self.beta


class Dropout(Module):
    def __init__(self, p):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p

    def forward(self, x, rng=None):
        if self.training and self.p > 0.0 and rng is None:
            raise ValueError("dropout in train mode requires an rng")
        return T.dropout(x, self.p, rng, self.training)


class Sequential(Module):
    def __init__(self, *modules):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x, rng=None):
        for i, module in enumerate(self.modules):
            try:
                x = module(x, rng=rng)
            except T.NumericError as exc:
                raise T.NumericError(f"layer {i}: {exc}") from None
        return x


class Residual(Module):
    """output = main(x) + shortcut(x)."""

    def __init__(self, main, shortcut):
        super().__init__()
        self.main = main
        self.shortcut = shortcut

    def forward(self, x, rng=None):
        return self.main(x, rng=rng) + self.shortcut(x, rng=rng)


class Conv1d(Module):
    def __init__(self, in_channels, out_channels, kernel_size, rng):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        self.weight = Tensor(he_uniform(rng, fan_in, (out_channels, in_channels, kernel_size)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x, rng=None):
        if x.data.shape[2] < self.kernel_size:
            raise ValueError("input shorter than the convolution kernel")
        return T.conv1d(x, self.weight, self.bias)


class MaxPool1d(Module):
    def __init__(self, size):
        super().__init__()
        self.size = size

    def forward(self, x, rng=None):
        return T.maxpool1d(x, self.size)


class Flatten(Module):
    def forward(self, x, rng=None):
        n = x.data.shape[0]
        return T.reshape(x, (n, -1))


class LSTM(Module):
    """Single-layer LSTM over a (batch, steps) scalar sequence; returns final h."""

    def __init__(self, input_size, hidden_size, rng):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Tensor(he_uniform(rng, input_size, (input_size, 4 * hidden_size)),
                          requires_grad=True)
        self.w_h = Tensor(he_uniform(rng, hidden_size, (hidden_size, 4 * hidden_size)),
                          requires_grad=True)
        self.bias = Tensor(np.zeros(4 * hidden_size), requires_grad=True)

    def forward(self, x, rng=None):
        n, steps = x.data.shape[0], x.data.shape[1]
        h = Tensor(np.zeros((n, self.hidden_size)))
        c = Tensor(np.zeros((n, self.hidden_size)))
        hs = self.hidden_size
        for t in range(steps):
            x_t = x[:, t : t + 1]
            gates = T.matmul(x_t, self.w_x) + T.matmul(h, self.w_h) + self.bias
            i = T.sigmoid(gates[:, 0:hs])
            f = T.sigmoid(gates[:, hs : 2 * hs])
            g = T.tanh(gates[:, 2 * hs : 3 * hs])
            o = T.sigmoid(gates[:, 3 * hs : 4 * hs])
            c = f * c + i * g
            h = o * T.tanh(c)
        return h
