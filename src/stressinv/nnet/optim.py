"""Optimizers, learning-rate schedules, early stopping, and the training loop."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, no_grad, mse_loss


class Adam:
    """Adam with bias correction.

    ``decoupled=False`` applies weight decay as coupled L2 through the
    gradient (classic Adam); ``decoupled=True`` shrinks parameters directly
    before the moment update (AdamW).
    """

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, decoupled=False):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay != 0.0:
                if self.decoupled:
                    p.data -= self.lr * self.weight_decay * p.data
                else:
                    g = g + self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adamw(params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    return Adam(params, lr, betas=betas, eps=eps,
                weight_decay=weight_decay, decoupled=True)


class StepDecay:
    """Multiply the lr by ``factor`` at every positive multiple of ``interval``."""

    def __init__(self, factor, interval):
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.factor = factor
        self.interval = interval

    def step(self, epoch, lr, val_metric=None):
        if epoch > 0 and epoch % self.interval == 0:
            return lr * self.factor
        return lr


class PlateauDecay:
    """Multiply the lr by ``factor`` after ``patience`` non-improving epochs."""

    def __init__(self, factor, patience, min_delta=1e-6):
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.factor = factor
        self.patience = patience
        self.min_delta = min_delta
        self.best_metric = np.inf
        self.epochs_since_improve = 0

    def step(self, epoch, lr, val_metric=None):
        if val_metric is None:
            return lr
        if val_metric < self.best_metric - self.min_delta:
            self.best_metric = val_metric
            self.epochs_since_improve = 0
            return lr
        self.epochs_since_improve += 1
        if self.epochs_since_improve >= self.patience:
            self.epochs_since_improve = 0
            return lr * self.factor
        return lr


class EarlyStopping:
    """Stop when the validation loss fails to improve for ``patience`` epochs."""

    def __init__(self, patience, min_delta=0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if min_delta < 0:
            raise ValueError("min_delta must be >= 0")
        self.patience = patience
        self.min_delta = min_delta
        self.best_val_loss = np.inf
        self.epochs_since_improve = 0
        self.should_stop = False

    def update(self, val_loss):
        if not np.isfinite(val_loss):
            raise ValueError("validation loss must be finite")
        if val_loss < self.best_val_loss - self.min_delta:
            self.best_val_loss = val_loss
            self.epochs_since_improve = 0
        else:
            self.epochs_since_improve += 1
            if self.epochs_since_improve >= self.patience:
                self.should_stop = True
        return self.should_stop


def train_network(network, optimizer, x, y, train_idx, val_idx, rng, *,
                  batch_size=32, epochs=500, schedule=None, stopper=None,
                  restore_best=True, extra_loss=None, batch_input=None,
                  min_batch=2):
    """Mini-batch loop shared by every network: MSE (+ extra_loss(pred, batch)).

    Each epoch shuffles train_idx with rng (which also drives dropout), steps
    the optimizer once per batch, skips batches of fewer than min_batch rows
    (batch norm needs two), scores MSE on val_idx, and lets ``schedule`` (a
    StepDecay or PlateauDecay; None keeps the lr) and ``stopper`` (an
    EarlyStopping) act on it. batch_input(batch), if given, replaces x[batch]
    as the network input. With restore_best the network ends with the
    parameters of its lowest validation MSE. Returns one row per epoch:
    epoch, train_loss, val_mse, lr.
    """
    x_val = Tensor(x[val_idx])
    y_val = y[val_idx]
    lr = optimizer.lr
    best_val = np.inf
    best_state = None
    history = []
    order = np.array(train_idx, dtype=np.intp)
    for epoch in range(1, epochs + 1):
        optimizer.lr = lr
        rng.shuffle(order)
        network.train()
        total, count = 0.0, 0
        for start in range(0, order.size, batch_size):
            batch = order[start : start + batch_size]
            if batch.size < min_batch:
                continue
            xb = x[batch] if batch_input is None else batch_input(batch)
            pred = network(Tensor(xb), rng=rng)
            loss = mse_loss(pred, Tensor(y[batch]))
            if extra_loss is not None:
                loss = loss + extra_loss(pred, batch)
            if not np.isfinite(loss.item()):
                raise ArithmeticError(f"non-finite training loss at epoch {epoch} "
                                      f"(lr={lr})")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            total += loss.item() * batch.size
            count += batch.size
        network.eval()
        with no_grad():
            val_mse = float(np.mean((network(x_val).data - y_val) ** 2))
        history.append({"epoch": epoch, "train_loss": total / max(count, 1),
                        "val_mse": val_mse, "lr": lr})
        if restore_best and val_mse < best_val:
            best_val = val_mse
            best_state = network.state()
        if schedule is not None:
            lr = schedule.step(epoch, lr, val_mse)
        if stopper is not None and stopper.update(val_mse):
            break
    if best_state is not None:
        network.load_state(best_state)
    network.eval()
    return history
