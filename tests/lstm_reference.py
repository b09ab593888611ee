"""Plain-numpy per-step LSTM, the reference for the fused ``tensor.lstm`` op.

One step at a time with the textbook sigmoid, so it shares no code and no
arithmetic shortcut with the op under test.
"""

import numpy as np


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step(x, h, c, wx, wh, b):
    """One step of the 4-gate LSTM, gates in (i, f, o, g) column order."""
    d = wh.shape[0]
    z = x @ wx + h @ wh + b
    i, f, o = sigmoid(z[:, :d]), sigmoid(z[:, d:2 * d]), sigmoid(z[:, 2 * d:3 * d])
    c = f * c + i * np.tanh(z[:, 3 * d:])
    return o * np.tanh(c), c


def lstm_steps(xs, h, c, wx, wh, b, lengths=None):
    """Run ``lstm_step`` over (steps, batch, input_dim) inputs.

    With ``lengths``, lane j runs its first ``lengths[j]`` steps only and
    then keeps its h and c; its inputs after that are ignored.  Returns the
    (steps, batch, hidden) outputs and the final h and c.
    """
    outs = []
    for k, x in enumerate(xs):
        h_new, c_new = lstm_step(x, h, c, wx, wh, b)
        if lengths is None:
            h, c = h_new, c_new
        else:
            live = (k < np.asarray(lengths))[:, None]
            h, c = np.where(live, h_new, h), np.where(live, c_new, c)
        outs.append(h)
    return np.stack(outs), h, c
