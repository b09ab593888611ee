"""Plain-numpy max-over-time convolution, the reference for the fused
``tensor.conv1d_max_over_time`` op.

Each bank applies tanh to every window's response and then takes the max
over the row's valid window starts, one row at a time, so it shares no
pooling, masking or argmax code with the op under test.  The windows are
built by concatenating positions and multiplied by the weights in one 2-D
product, the same BLAS call the op makes, so forward results can be
compared bit for bit.
"""

import numpy as np


def windows(seq, width):
    """(m, n-width+1, width*d): window t of row i is seq[i, t:t+width] flattened."""
    m, n, d = seq.shape
    count = n - width + 1
    cols = [seq[:, j:j + count, :] for j in range(width)]
    return np.concatenate(cols, axis=2)


def preactivations(seq, w, width):
    """z[i, t, f] = window(i, t) @ w[:, f], without the bias."""
    win = windows(seq, width)
    m, count, wd = win.shape
    return (win.reshape(m * count, wd) @ w).reshape(m, count, -1)


def valid_counts(seq, banks, lengths):
    """Per bank, the number of window starts each row pools over."""
    m, n, _ = seq.shape
    widest = max(width for width, _, _ in banks)
    extent = np.full(m, n) if lengths is None else np.minimum(
        np.maximum(np.asarray(lengths), widest), n)
    return [extent - width + 1 for width, _, _ in banks]


def conv_max_over_time(seq, banks, lengths=None):
    """out[i, f] = max over valid t of tanh(window(i, t) @ w[:, f] + b[f]),
    banks concatenated; ``banks`` holds ``(width, w, b)`` arrays."""
    m = seq.shape[0]
    outs = []
    for (width, w, b), counts in zip(banks, valid_counts(seq, banks, lengths)):
        z = preactivations(seq, w, width)
        resp = np.tanh(z + b)
        outs.append(np.stack([resp[i, :counts[i]].max(axis=0) for i in range(m)]))
    return np.concatenate(outs, axis=1)


def conv_max_over_time_grads(seq, banks, lengths, g):
    """Gradients of sum(g * out) for seq and each bank's (w, b), with the
    gradient of each (row, filter) sent through its first maximal window."""
    m, _, d = seq.shape
    dseq = np.zeros_like(seq)
    dbanks = []
    col = 0
    for (width, w, b), counts in zip(banks, valid_counts(seq, banks, lengths)):
        z = preactivations(seq, w, width)
        dw, db = np.zeros_like(w), np.zeros_like(b)
        for i in range(m):
            for f in range(w.shape[1]):
                t = int(np.argmax(z[i, :counts[i], f]))
                y = np.tanh(z[i, t, f] + b[f])
                gz = g[i, col + f] * (1.0 - y * y)
                win = seq[i, t:t + width].reshape(-1)
                dw[:, f] += gz * win
                db[f] += gz
                dseq[i, t:t + width] += (gz * w[:, f]).reshape(width, d)
        dbanks.append((dw, db))
        col += w.shape[1]
    return dseq, dbanks
