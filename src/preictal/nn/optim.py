"""Bias-corrected adaptive-moment (Adam) parameter updates."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # two parameter-sized buffers per group, so an update allocates nothing
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(named_params, state: AdamState) -> AdamState:
    """One in-place update over (name, param, grad) triples.

    Standard update: m and v are exponential moment averages, bias-corrected
    by 1 - beta^t; params move by -lr * m_hat / (sqrt(v_hat) + eps).
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, param, grad in named_params:
        if name not in state.m:
            state.m[name] = np.zeros_like(param)
            state.v[name] = np.zeros_like(param)
            state.scratch[name] = np.empty_like(param), np.empty_like(param)
        m, v = state.m[name], state.v[name]
        s, t = state.scratch[name]
        # param -= lr * (m / c1) / (sqrt(v / c2) + eps), after
        # m = b1 * m + (1 - b1) * grad and v = b2 * v + (1 - b2) * grad * grad,
        # rounded in that order
        m *= b1
        m += np.multiply(grad, 1 - b1, out=s)
        v *= b2
        np.multiply(grad, 1 - b2, out=s)
        v += np.multiply(s, grad, out=s)
        np.multiply(np.divide(m, c1, out=s), state.lr, out=s)
        np.add(np.sqrt(np.divide(v, c2, out=t), out=t), state.eps, out=t)
        param -= np.divide(s, t, out=s)
    return state
