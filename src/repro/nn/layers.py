"""Module base class and the fully-connected (Dense) layer.

Layers are functional-with-caches: ``forward`` returns ``(output, cache)``
and ``backward`` consumes the cache, accumulates parameter gradients, and
returns the gradient with respect to the layer input. One layer object may
therefore appear several times in a single computation graph (weight
sharing); each call site keeps its own cache.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.nn.activations import Activation, Identity, get_activation
from repro.nn.initializers import xavier_uniform, zeros
from repro.nn.parameter import Parameter

_FLOAT64 = np.dtype(np.float64)


def as_batch(x: Any) -> np.ndarray:
    """``np.atleast_2d(np.asarray(x, dtype=np.float64))``, skipped for an
    input that already is a float64 ndarray of two or more dimensions
    (which that call would return as it is)."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim >= 2:
        return x
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


class Module:
    """Base class: anything that owns (possibly shared) parameters."""

    def parameters(self) -> list[Parameter]:
        """Return this module's unique parameters (deduplicated by identity)."""
        seen: dict[int, Parameter] = {}
        for param in self._iter_parameters():
            seen.setdefault(id(param), param)
        return list(seen.values())

    def _iter_parameters(self) -> Iterator[Parameter]:
        """Yield parameters, possibly with duplicates; override in subclasses."""
        for value in vars(self).values():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Module):
                yield from value._iter_parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Parameter):
                        yield item
                    elif isinstance(item, Module):
                        yield from item._iter_parameters()

    def zero_grad(self) -> None:
        """Zero the gradient accumulators of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters (shared counted once)."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot parameter values keyed by parameter name + index."""
        return {
            f"{i}:{p.name}": p.value.copy() for i, p in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        Values are copied into the parameters' existing arrays, which may
        be views of an optimizer's buffer (see :mod:`repro.nn.parameter`).

        Raises
        ------
        ValueError
            If the snapshot does not match this module's parameters.
        """
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} entries, module has {len(params)} parameters"
            )
        for i, param in enumerate(params):
            key = f"{i}:{param.name}"
            if key not in state:
                raise ValueError(f"missing parameter {key!r} in state dict")
            value = state[key]
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {value.shape} vs {param.value.shape}"
                )
            param.value[...] = value


class Dense(Module):
    """Fully-connected layer ``y = act(x @ W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    activation:
        Activation name or instance; defaults to identity (linear layer).
    rng:
        Random generator for weight init (Xavier uniform). Required unless
        ``weight``/``bias`` parameters are supplied for sharing.
    weight, bias:
        Existing :class:`Parameter` objects to share instead of allocating
        new ones.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str | Activation = "identity",
        rng: np.random.Generator | None = None,
        weight: Parameter | None = None,
        bias: Parameter | None = None,
        name: str = "dense",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"layer widths must be positive, got {in_features} -> {out_features}"
            )
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.activation: Activation = get_activation(activation)
        if weight is None:
            if rng is None:
                raise ValueError("rng is required when weight is not provided")
            weight = Parameter(
                xavier_uniform(rng, in_features, out_features), name=f"{name}.W"
            )
        if bias is None:
            bias = Parameter(zeros((out_features,)), name=f"{name}.b")
        if weight.shape != (in_features, out_features):
            raise ValueError(
                f"shared weight shape {weight.shape} != ({in_features}, {out_features})"
            )
        if bias.shape != (out_features,):
            raise ValueError(f"shared bias shape {bias.shape} != ({out_features},)")
        self.weight = weight
        self.bias = bias

    def forward(
        self, x: np.ndarray, spans: Sequence[slice] | None = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Compute ``act(x @ W + b)``.

        ``x`` has shape ``(batch, in_features)``, or a stacked
        ``(groups, batch, in_features)`` — the stacked form runs one BLAS
        call per leading slice (numpy's batched matmul), so each slice's
        result is bit-identical to a separate 2-D forward of that slice.

        ``spans`` are row ranges that partition a 2-D batch. Each span
        gets its own product, shaped as a separate forward of its rows
        would shape it, so its rows come out bit for bit that forward's;
        the bias and the activation then run once over the whole batch.
        """
        x = as_batch(x)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"input width {x.shape[-1]} != layer in_features {self.in_features}"
            )
        z = np.empty((*x.shape[:-1], self.out_features))
        for rows in spans or (slice(None),):
            np.matmul(x[rows], self.weight.value, out=z[rows])
        z += self.bias.value
        y = self.activation.forward(z)
        return y, {"x": x, "z": z, "y": y}

    def backward(
        self,
        dy: np.ndarray,
        cache: dict[str, Any],
        spans: Sequence[slice] | None = None,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Backprop through the layer; accumulates grads, returns ``dL/dx``.

        For stacked ``(groups, batch, ...)`` caches, parameter gradients
        are accumulated slice by slice in leading-axis order, matching a
        sequential per-slice backward bit for bit. With the ``spans`` of
        :meth:`forward` they are accumulated span by span, in span
        order, and ``dL/dx`` is one product per span. With
        ``input_grad=False`` the product for ``dL/dx`` is skipped and
        ``None`` returned, for a layer whose input gradient nobody reads.
        """
        dy = as_batch(dy)
        if isinstance(self.activation, Identity):
            dz = dy  # dy * 1 is dy, bit for bit
        else:
            # dy * derivative, written over the (fresh) derivative.
            dz = self.activation.derivative(cache["z"], cache["y"])
            np.multiply(dy, dz, out=dz)
        x = cache["x"]
        # np.add.reduce is the reduction ndarray.sum calls.
        if dz.ndim == 2:
            for rows in spans or (slice(None),):
                self.weight.accumulate(x[rows].T @ dz[rows])
                self.bias.accumulate(np.add.reduce(dz[rows], axis=0))
        else:
            dw = np.matmul(np.swapaxes(x, -1, -2), dz)
            db = np.add.reduce(dz, axis=-2)
            for k in range(dz.shape[0]):
                self.weight.accumulate(dw[k])
                self.bias.accumulate(db[k])
        if not input_grad:
            return None
        dx = np.empty(x.shape)
        for rows in spans or (slice(None),):
            np.matmul(dz[rows], self.weight.value.T, out=dx[rows])
        return dx

    def share_with(self, other: "Dense") -> None:
        """Make this layer use ``other``'s parameters (weight sharing)."""
        if (other.in_features, other.out_features) != (
            self.in_features,
            self.out_features,
        ):
            raise ValueError("cannot share weights between differently-shaped layers")
        self.weight = other.weight
        self.bias = other.bias

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dense({self.in_features} -> {self.out_features}, "
            f"activation={self.activation.name})"
        )
