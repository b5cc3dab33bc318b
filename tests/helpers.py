"""Shared test utilities: finite-difference oracles and small builders.

The finite-difference code here is deliberately independent of the autodiff
module: it only calls functions that map plain numpy arrays to a float.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np


def fd_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
            h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray,
                floor: float = 1e-6) -> float:
    """Max elementwise relative error with an absolute floor on the scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def fit_pixel_probe(x, y, n_classes, steps=200, lr=0.1):
    """Multinomial logistic probe on raw features, full-batch GD from zeros."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    onehot = np.eye(n_classes)[np.asarray(y, dtype=np.int64)]
    w = np.zeros((n_classes, x.shape[1]))
    b = np.zeros(n_classes)
    for _ in range(steps):
        logits = x @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (g.T @ x)
        b -= lr * g.sum(axis=0)
    return w, b


def probe_accuracy(w, b, x, y):
    pred = (np.asarray(x, dtype=np.float64) @ w.T + b).argmax(axis=1)
    return float(np.mean(pred == np.asarray(y, dtype=np.int64)))


def exit_in_child(parent_pid: int, code: int):
    """A stand-in for an augmentation function that ends any process other
    than parent_pid with the given exit status, as a dying helper would."""
    def augment(x, seed):
        if os.getpid() == parent_pid:
            raise AssertionError("augmentation ran in the parent process")
        os._exit(code)
    return augment
