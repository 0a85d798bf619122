"""A reference MLP trainer, written step by step as plain functions.

It keeps an earlier form of ``fit_mlp``'s arithmetic: a sigmoid split by
boolean masks, a forward pass that keeps every pre-activation, and a
training step that computes the batch loss together with the gradients.
``fit_mlp`` must match it byte for byte, so its epoch losses and final
parameters pin the trainer's exact floating-point operations.  Only the
initial parameters come from ``MlpNetwork``.
"""

import numpy as np

from locbench.learners import TrainingDivergedError
from locbench.learners.mlp import MlpNetwork


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def activate(z, activation):
    return masked_sigmoid(z) if activation == "sigmoid" else np.maximum(z, 0.0)


def forward_pass(weights, biases, activation, X):
    """Every pre-activation ``z`` and every layer's output, input first."""
    zs, activations = [], [X]
    last = len(weights) - 1
    for l, (W, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ W + b
        zs.append(z)
        activations.append(z if l == last else activate(z, activation))
    return zs, activations


def batch_loss(out, y, task):
    n = len(out)
    if task == "regression":
        t = np.asarray(y, dtype=float).reshape(out.shape)
        return float(0.5 * np.mean(np.sum((out - t) ** 2, axis=1)))
    picked = out[np.arange(n), np.asarray(y, dtype=int)]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))


def loss(weights, biases, activation, task, X, y):
    with np.errstate(over="ignore", invalid="ignore"):
        out = forward_pass(weights, biases, activation, X)[1][-1]
        if task == "classification":
            out = softmax(out)
        return batch_loss(out, y, task)


def loss_and_grads(weights, biases, activation, task, X, y):
    zs, activations = forward_pass(weights, biases, activation, X)
    a = activations[-1]
    n = len(X)
    if task == "regression":
        t = np.asarray(y, dtype=float).reshape(a.shape)
        value = batch_loss(a, t, task)
        delta = (a - t) / n
    else:
        probs = softmax(a)
        yi = np.asarray(y, dtype=int)
        value = batch_loss(probs, yi, task)
        delta = probs.copy()
        delta[np.arange(n), yi] -= 1.0
        delta /= n
    grads_w = [np.zeros_like(W) for W in weights]
    grads_b = [np.zeros_like(b) for b in biases]
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = activations[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            a = activations[l]
            if activation == "sigmoid":
                slope = a * (1.0 - a)
            else:
                slope = (zs[l - 1] > 0).astype(float)
            delta = (delta @ weights[l].T) * slope
    return value, grads_w, grads_b


def reference_fit(X, y, *, hidden, activation, epochs, rate, batch_size, seed, task, n_classes=None):
    """Train as ``fit_mlp`` does; returns ``(epoch_losses, weights, biases)``.

    Raises ``TrainingDivergedError`` at the first epoch whose full-data
    loss is not finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if task == "regression":
        y = y.astype(float)
        y_min = float(y.min())
        y_span = float(y.max() - y.min()) or 1.0
        targets = (y - y_min) / y_span
        out_size = 1
    else:
        targets = y.astype(int)
        out_size = n_classes
    net = MlpNetwork((X.shape[1], *hidden, out_size), activation, task, seed=seed)
    weights, biases = net.weights, net.biases
    rng = np.random.default_rng([seed, 1])
    epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            batch = order[start : start + batch_size]
            _, grads_w, grads_b = loss_and_grads(
                weights, biases, activation, task, X[batch], targets[batch]
            )
            for W, g in zip(weights, grads_w):
                W -= rate * g
            for b, g in zip(biases, grads_b):
                b -= rate * g
        value = loss(weights, biases, activation, task, X, targets)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}", epoch=epoch)
        epoch_losses.append(value)
    return epoch_losses, weights, biases
