"""Fully-connected networks trained by seeded mini-batch gradient descent.

Two presets cover the benchmarked configurations: a single hidden layer
of 10 sigmoid units, and two hidden layers of 50 rectified-linear units.
Regression trains on squared loss with targets scaled into [0, 1]
internally (inverted at predict time); classification trains on softmax
cross-entropy.  Weights initialize uniformly in +/- 1/sqrt(fan_in),
biases at zero.

A training step runs one forward pass over its batch and computes the
gradients only; ``epoch_losses`` holds the full-data loss after each
epoch.  The sigmoid needs no masks: ``exp(-|z|)`` never overflows and
gives each element the same expression as the split formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import ValidationError
from .base import TrainingDivergedError, check_params, query_data, training_data


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below zero.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class MlpNetwork:
    """The bare network: parameters, forward pass, loss, and gradients.

    Exposed separately from the fitted-model wrapper so the analytic
    gradients can be checked against finite differences directly.
    """

    def __init__(self, layer_sizes: tuple[int, ...], activation: str, task: str, seed: int = 42):
        if len(layer_sizes) < 2:
            raise ValidationError("need at least input and output layer sizes")
        check_params(activation=activation)
        if task not in ("regression", "classification"):
            raise ValidationError(f"unknown task {task!r}")
        self.layer_sizes = tuple(layer_sizes)
        self.activation = activation
        self.task = task
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def _act(self, z: np.ndarray) -> np.ndarray:
        return _sigmoid(z) if self.activation == "sigmoid" else np.maximum(z, 0.0)

    def _act_grad(self, a: np.ndarray) -> np.ndarray:
        # For ReLU, a > 0 exactly where z > 0, since a = max(z, 0).
        return a * (1.0 - a) if self.activation == "sigmoid" else (a > 0).astype(float)

    def _layers(self, X: np.ndarray) -> list[np.ndarray]:
        """The input, each hidden activation, then the raw output."""
        layers = [np.asarray(X, dtype=float)]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            layers.append(self._act(layers[-1] @ W + b))
        layers.append(layers[-1] @ self.weights[-1] + self.biases[-1])
        return layers

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Network output: raw values (regression) or class probabilities."""
        out = self._layers(X)[-1]
        return _softmax(out) if self.task == "classification" else out

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        # Overflow here is the divergence signal, not an error: the caller
        # checks for a non-finite result.
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.forward(X)
            if self.task == "regression":
                t = np.asarray(y, dtype=float).reshape(out.shape)
                return float(0.5 * np.mean(np.sum((out - t) ** 2, axis=1)))
            n = len(out)
            picked = out[np.arange(n), np.asarray(y, dtype=int)]
            return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))

    def grads(self, X: np.ndarray, y: np.ndarray):
        """Gradients of the mean batch loss: ``(grads_w, grads_b)``."""
        inputs = self._layers(X)
        out = inputs.pop()
        n = len(out)
        if self.task == "regression":
            delta = (out - np.asarray(y, dtype=float).reshape(out.shape)) / n
        else:
            delta = _softmax(out)
            delta[np.arange(n), np.asarray(y, dtype=int)] -= 1.0
            delta /= n
        grads_w: list[np.ndarray] = []
        grads_b: list[np.ndarray] = []
        for l in range(len(self.weights) - 1, -1, -1):
            grads_w.append(inputs[l].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if l > 0:
                delta = (delta @ self.weights[l].T) * self._act_grad(inputs[l])
        return grads_w[::-1], grads_b[::-1]

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Mean loss over the batch plus gradients for every parameter."""
        return (self.loss(X, y), *self.grads(X, y))

    def get_params(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights] + [b.ravel() for b in self.biases])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        pos = 0
        for w in self.weights:
            w[...] = flat[pos : pos + w.size].reshape(w.shape)
            pos += w.size
        for b in self.biases:
            b[...] = flat[pos : pos + b.size].reshape(b.shape)
            pos += b.size

    def flat_grads(self, grads_w, grads_b) -> np.ndarray:
        return np.concatenate([g.ravel() for g in grads_w] + [g.ravel() for g in grads_b])


@dataclass(frozen=True)
class MlpModel:
    """Fitted wrapper: owns the network plus the target scaling."""

    net: MlpNetwork
    y_min: float = 0.0
    y_span: float = 1.0
    epoch_losses: tuple[float, ...] = ()

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self.net.forward(query_data(X, self.net.layer_sizes[0]))
        if self.net.task == "regression":
            return out[:, 0] * self.y_span + self.y_min
        raise ValidationError("use predict_confidence for classification")

    def predict_confidence(self, X: np.ndarray) -> np.ndarray:
        if self.net.task != "classification":
            raise ValidationError("confidence output requires a classification model")
        return self.net.forward(query_data(X, self.net.layer_sizes[0]))


def fit_mlp(
    X,
    y,
    *,
    hidden: tuple[int, ...] = (10,),
    activation: str = "sigmoid",
    epochs: int = 500,
    rate: float = 0.1,
    batch_size: int = 16,
    seed: int = 42,
    task: str = "regression",
    n_classes: int | None = None,
) -> MlpModel:
    """Train a network; features should be standardized upstream (MlpNetwork checks activation)."""
    check_params(hidden=hidden, epochs=epochs, rate=rate, batch_size=batch_size)
    X, y = training_data(X, y, task, n_classes)
    if task == "regression":
        y_min = float(y.min())
        y_span = float(y.max() - y.min()) or 1.0
        targets = (y - y_min) / y_span
        out_size = 1
    else:
        targets = y
        y_min, y_span = 0.0, 1.0
        out_size = n_classes

    net = MlpNetwork(
        layer_sizes=(X.shape[1], *hidden, out_size),
        activation=activation,
        task=task,
        seed=seed,
    )
    rng = np.random.default_rng([seed, 1])
    n = len(X)
    epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            grads_w, grads_b = net.grads(X[batch], targets[batch])
            for W, g in zip(net.weights, grads_w):
                W -= rate * g
            for b, g in zip(net.biases, grads_b):
                b -= rate * g
        epoch_loss = net.loss(X, targets)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training loss became non-finite at epoch {epoch}", epoch=epoch
            )
        epoch_losses.append(epoch_loss)
    return MlpModel(net=net, y_min=y_min, y_span=y_span, epoch_losses=tuple(epoch_losses))
