"""Plain-numpy highway layers, the reference for the fused ``tensor.highway`` op.

One layer at a time with the textbook sigmoid, so it shares no code and no
arithmetic shortcut with the op under test.
"""

import numpy as np


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def highway_layer(y, w_t, b_t, w_h, b_h):
    """One layer: returns its output and its relu input."""
    t = sigmoid(y @ w_t + b_t)
    z = y @ w_h + b_h
    return t * np.maximum(z, 0.0) + (1.0 - t) * y, z


def highway(x, layers):
    """Run ``highway_layer`` over each ``(w_t, b_t, w_h, b_h)`` in turn.

    Returns the output and the list of every layer's relu input.
    """
    relu_inputs = []
    for params in layers:
        x, z = highway_layer(x, *params)
        relu_inputs.append(z)
    return x, relu_inputs
