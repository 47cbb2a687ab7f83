"""Gradient-descent optimizers and gradient clipping.

The paper trains its networks with Adam (Kingma & Ba) and clips gradient
norms to 10 in the global tier; both are implemented here. Optimizers
operate on lists of :class:`~repro.nn.parameter.Parameter` — shared
parameters appear once and therefore get exactly one update per step.

An optimizer packs its parameters into one value vector and one gradient
vector (:func:`~repro.nn.parameter.pack`), each parameter's arrays being
views of its slice. A step is then a fixed sequence of in-place ufunc
calls over the whole vector, writing through preallocated scratch
vectors, and :meth:`Optimizer.zero_grad` is one ``fill``. Every element
sees the same operations in the same order as a per-array update would,
so the weights come out bit for bit the same; the in-place form matters,
because at the Q-network's size a flat update that allocates its
temporaries is slower than the per-array loop.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter, pack


class Optimizer:
    """Base optimizer over a fixed parameter list.

    ``values`` and ``grads`` are the flat vectors behind the parameters,
    in list order.
    """

    def __init__(self, parameters: list[Parameter]) -> None:
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        # Deduplicate while preserving order; shared params update once.
        seen: dict[int, Parameter] = {}
        for p in parameters:
            seen.setdefault(id(p), p)
        self.parameters = list(seen.values())
        self.values, self.grads = pack(self.parameters)
        self._work = np.empty_like(self.values)
        # The squared gradient of each parameter, in its shape, so that
        # the clip sums parameter by parameter as numpy sums each array.
        self._squares = []
        offset = 0
        for p in self.parameters:
            self._squares.append(self._work[offset : offset + p.size].reshape(p.shape))
            offset += p.size

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset every gradient to zero."""
        self.grads.fill(0.0)

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale the gradients so that their global L2 norm is at most ``max_norm``.

        The squared norm is summed parameter by parameter, in list order.
        Returns the pre-clipping global norm (useful for monitoring).
        """
        if max_norm <= 0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        np.square(self.grads, out=self._work)
        total = float(np.sqrt(sum(float(sq.sum()) for sq in self._squares)))
        if total > max_norm and total > 0.0:
            self.grads *= max_norm / total
        return total


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = np.zeros_like(self.values)

    def step(self) -> None:
        update = self._work
        if self.momentum:
            self._velocity *= self.momentum
            self._velocity += self.grads
            np.multiply(self._velocity, self.lr, out=update)
        else:
            np.multiply(self.grads, self.lr, out=update)
        self.values -= update


class Adam(Optimizer):
    """Adam: adaptive moment estimation (Kingma & Ba, 2014).

    The paper's stated optimizer for both the LSTM predictor and the
    global-tier DNN training.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m = np.zeros_like(self.values)
        self._v = np.zeros_like(self.values)
        self._denom = np.empty_like(self.values)
        self._t = 0

    def step(self) -> None:
        # Per element: m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2;
        # value -= lr * (m / bias1) / (sqrt(v / bias2) + eps).
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        g, m, v = self.grads, self._m, self._v
        update, denom = self._work, self._denom
        np.multiply(g, 1.0 - self.beta1, out=update)
        m *= self.beta1
        m += update
        np.square(g, out=update)
        update *= 1.0 - self.beta2
        v *= self.beta2
        v += update
        np.divide(m, bias1, out=update)
        update *= self.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self.values -= update
