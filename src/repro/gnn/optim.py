"""Adam optimiser (the configuration used in the paper, Table II)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction; operates in-place on parameter arrays."""

    def __init__(
        self,
        parameters: Sequence[np.ndarray],
        *,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._m: List[np.ndarray] = [np.zeros_like(p) for p in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p) for p in self.parameters]
        self._t = 0

    def step(self, gradients: Sequence[np.ndarray]) -> None:
        """Apply one update given gradients aligned with ``parameters``."""
        if len(gradients) != len(self.parameters):
            raise ValueError(
                f"expected {len(self.parameters)} gradients, got {len(gradients)}"
            )
        self._t += 1
        bias1 = 1 - self.beta1 ** self._t
        bias2 = 1 - self.beta2 ** self._t
        # In place, rounding as m = b1*m + (1-b1)*g and lr * m_hat / (sqrt(v_hat) + eps) do.
        for param, grad, m, v in zip(self.parameters, gradients, self._m, self._v):
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * (grad * grad)
            step = m / bias1
            step *= self.learning_rate
            step /= np.sqrt(v / bias2) + self.epsilon
            param -= step
