"""Trainable parameter container and the flat buffers behind trained networks.

A :class:`Parameter` pairs a value array with a gradient accumulator.
Weight sharing in this library is expressed by letting several modules
reference the *same* ``Parameter`` instance: every backward pass adds into
``grad``, so shared parameters receive the sum of gradients from all of
their use sites — the semantics the paper relies on for its shared
autoencoders and Sub-Q networks.

An optimizer gives the network it trains one contiguous value vector and
one contiguous gradient vector (:func:`pack`): each parameter's ``value``
and ``grad`` become views of its slice, in the parameter's own shape,
and stay those views from then on. Everything that changes a parameter
writes *into* them (``p.value[...] = x``, ``p.grad += g``); rebinding
the attribute would cut the parameter off from the optimizer's buffers,
so later steps would no longer reach it.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable array with an accumulated gradient.

    Parameters
    ----------
    value:
        Initial value; copied into a float64 array.
    name:
        Optional human-readable name, used in ``repr`` and error messages.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64).copy()
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the accumulated gradient.

        Raises
        ------
        ValueError
            If ``grad`` does not broadcast-match the parameter shape.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.value.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name or '<unnamed>'} shape {self.value.shape}"
            )
        self.grad += grad

    def copy(self) -> "Parameter":
        """Return an independent deep copy (value and gradient)."""
        out = Parameter(self.value, name=self.name)
        out.grad = self.grad.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


def pack(parameters: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """The flat value and gradient vectors behind ``parameters``, in order.

    Parameters that already are one consecutive run of packed buffers
    (an autoencoder inside a packed Q-network) get views of that run, so
    both optimizers keep updating the same memory. Otherwise values and
    gradients are copied into fresh buffers and every parameter's
    ``value`` and ``grad`` are rebound, once, to views of its slice.

    Raises
    ------
    ValueError
        If a parameter is a view into some other array that the list
        does not cover as one consecutive run: copying it out would cut
        it off from whoever updates that array.
    """
    run = _packed_run(parameters)
    if run is not None:
        return run
    for p in parameters:
        if p.value.base is not None or p.grad.base is not None:
            raise ValueError(
                f"parameter {p.name or '<unnamed>'} is a view into another "
                "array and the list is not one consecutive run of it"
            )
    size = sum(p.size for p in parameters)
    values = np.empty(size)
    grads = np.empty(size)
    offset = 0
    for p in parameters:
        stop = offset + p.size
        values[offset:stop] = p.value.ravel()
        grads[offset:stop] = p.grad.ravel()
        p.value = values[offset:stop].reshape(p.value.shape)
        p.grad = grads[offset:stop].reshape(p.grad.shape)
        offset = stop
    return values, grads


def _packed_run(parameters: list[Parameter]) -> tuple[np.ndarray, np.ndarray] | None:
    """Views of the buffers ``parameters`` already fill in order, or None."""
    values, grads = parameters[0].value.base, parameters[0].grad.base
    if values is None or grads is None or values.ndim != 1 or grads.ndim != 1:
        return None
    start = stop = _offset(parameters[0].value, values)
    for p in parameters:
        if (
            p.value.base is not values
            or p.grad.base is not grads
            or not (p.value.flags.c_contiguous and p.grad.flags.c_contiguous)
            or _offset(p.value, values) != stop
            or _offset(p.grad, grads) != stop
        ):
            return None
        stop += p.size
    return values[start:stop], grads[start:stop]


def _offset(view: np.ndarray, base: np.ndarray) -> int:
    """Element offset of ``view``'s first element inside ``base``."""
    start = view.__array_interface__["data"][0]
    return (start - base.__array_interface__["data"][0]) // base.itemsize
