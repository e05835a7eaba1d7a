"""Neural stage-2 predictors: residual-block DNN, 1-D CNN, and LSTM."""

from __future__ import annotations

from ..nnet import (Tensor, Module, Sequential, Linear, BatchNorm, Dropout,
                    LeakyReLU, ELU, Residual, Conv1d, MaxPool1d, Flatten, LSTM)
from ..nnet import tensor as T
from ..nnet.optim import train_network  # noqa: F401  (re-exported)

N_TARGETS = 4


def build_dnn(input_width, rng, dropouts=(0.2, 0.2, 0.25, 0.0)):
    """Four-block DNN: 512 -> 512 (residual) -> 256 -> 128 -> 4 outputs."""
    if input_width < 1:
        raise ValueError("input_width must be >= 1")
    block1 = Sequential(Linear(input_width, 512, rng), BatchNorm(512),
                        Dropout(dropouts[0]), LeakyReLU(0.01))
    block2 = Residual(
        main=Sequential(Linear(512, 512, rng), BatchNorm(512),
                        Dropout(dropouts[1]), LeakyReLU(0.01)),
        shortcut=Sequential(Linear(512, 512, rng), BatchNorm(512)),
    )
    block3 = Sequential(Linear(512, 256, rng), BatchNorm(256),
                        Dropout(dropouts[2]), ELU(1.0))
    block4 = Sequential(Linear(256, 128, rng), BatchNorm(128),
                        Dropout(dropouts[3]), LeakyReLU(0.01))
    return Sequential(block1, block2, block3, block4, Linear(128, N_TARGETS, rng))


class CurveCNN(Module):
    """Two conv/pool blocks over the curve, dense head; extra scalars join the head."""

    def __init__(self, curve_len, n_extra, rng, channels=(8, 16), kernels=(7, 5),
                 pool=2, head_width=64):
        super().__init__()
        self.curve_len = curve_len
        self.n_extra = n_extra
        self.conv1 = Conv1d(1, channels[0], kernels[0], rng)
        self.conv2 = Conv1d(channels[0], channels[1], kernels[1], rng)
        self.pool = MaxPool1d(pool)
        self.act = LeakyReLU(0.01)
        self.flatten = Flatten()
        l1 = (curve_len - kernels[0] + 1) // pool
        l2 = (l1 - kernels[1] + 1) // pool
        if l2 < 1:
            raise ValueError("curve shorter than the receptive field")
        self.head1 = Linear(channels[1] * l2 + n_extra, head_width, rng)
        self.head2 = Linear(head_width, N_TARGETS, rng)

    def forward(self, x, rng=None):
        seq = T.reshape(x[:, : self.curve_len], (x.data.shape[0], 1, self.curve_len))
        z = self.pool(self.act(self.conv1(seq)))
        z = self.pool(self.act(self.conv2(z)))
        z = self.flatten(z)
        if self.n_extra:
            z = T.concat([z, x[:, self.curve_len :]], axis=1)
        return self.head2(self.act(self.head1(z)))


class CurveLSTM(Module):
    """Recurrence over the curve; final hidden state (plus extras) to 4 outputs."""

    def __init__(self, curve_len, n_extra, rng, hidden_size=64):
        super().__init__()
        self.curve_len = curve_len
        self.n_extra = n_extra
        self.lstm = LSTM(1, hidden_size, rng)
        self.head = Linear(hidden_size + n_extra, N_TARGETS, rng)

    def forward(self, x, rng=None):
        h = self.lstm(x[:, : self.curve_len])
        if self.n_extra:
            h = T.concat([h, x[:, self.curve_len :]], axis=1)
        return self.head(h)


def consistency_penalty(pred_std, target_scaler, alpha, log_peaks):
    """Mean squared strength-law gap, differentiable wrt the standardized output."""
    mean = Tensor(target_scaler.a)
    std = Tensor(target_scaler.b)
    pred = pred_std * std + mean
    gap = T.matmul(pred, Tensor(alpha.reshape(4, 1))) - Tensor(log_peaks.reshape(-1, 1))
    return T.mean(gap * gap)
