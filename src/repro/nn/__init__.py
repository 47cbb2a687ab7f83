"""Pure-NumPy neural network substrate.

The paper's DNNs (autoencoder + weight-shared Sub-Q networks in the global
tier, the LSTM workload predictor in the local tier) are implemented here
from scratch: dense layers, ELU/tanh/sigmoid activations, the MSE loss,
SGD and Adam optimizers with gradient-norm clipping, and an LSTM cell
with full backpropagation through time.

The API is functional-with-caches: ``layer.forward(x)`` returns
``(y, cache)`` and ``layer.backward(dy, cache)`` returns ``dx`` while
*accumulating* gradients into the layer's :class:`Parameter` objects.
Because gradients accumulate, the same layer object can be applied several
times inside one computation graph — which is exactly how the paper's
weight sharing (one autoencoder / one Sub-Q applied to every server group)
is realized.
"""

from repro.nn.activations import ELU, Identity, Sigmoid, Tanh, get_activation
from repro.nn.autoencoder import Autoencoder
from repro.nn.initializers import constant, normal, xavier_uniform, zeros
from repro.nn.layers import Dense, Module
from repro.nn.losses import MSELoss
from repro.nn.lstm import LSTMCell, LSTMNetwork
from repro.nn.mlp import MLP
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.parameter import Parameter

__all__ = [
    "ELU",
    "Identity",
    "Sigmoid",
    "Tanh",
    "get_activation",
    "Autoencoder",
    "constant",
    "normal",
    "xavier_uniform",
    "zeros",
    "Dense",
    "Module",
    "MSELoss",
    "LSTMCell",
    "LSTMNetwork",
    "MLP",
    "SGD",
    "Adam",
    "Optimizer",
    "Parameter",
]
