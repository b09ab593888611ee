"""Correctness checks on the program's outputs.

Each check raises :class:`CheckFailed` with a message.  The checks compare
against computations made apart from the program (stream arithmetic, the
source's closed-form entropy rate, central finite differences, a plain
numpy forward pass) or against properties the method must have (state
carried across windows makes the total NLL independent of the window
length).  ``selftest.py`` shows that each one rejects a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np

from sublm import tensor


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_finite(values, what: str) -> None:
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    require(bad.size == 0, f"{what}: {bad.size} non-finite values, first at {bad[:1]}")


def train_window_count(stream_len: int, batch: int, steps: int) -> int:
    """Windows of ``batch`` contiguous lanes by ``steps`` tokens a stream holds."""
    return (stream_len // batch - 1) // steps


def check_train_tokens(window_sizes, stream_len: int, batch: int, steps: int,
                       rounds: int) -> None:
    expected = train_window_count(stream_len, batch, steps) * rounds
    require(len(window_sizes) == expected,
            f"{len(window_sizes)} training windows, stream arithmetic gives {expected}")
    tokens = int(np.sum(window_sizes))
    require(tokens == expected * batch * steps,
            f"{tokens} training tokens, expected {expected} x {batch * steps}")


def check_eval_count(count: int, stream_len: int) -> None:
    require(count == stream_len - 1,
            f"scored {count} tokens of a {stream_len}-token stream, expected {stream_len - 1}")


def check_nll_bounds(nll: float, vocab_size: int, entropy_rate: float,
                     token_std: float, count: int) -> None:
    """ln V > nll >= entropy rate minus five standard errors of the sample."""
    floor = entropy_rate - 5.0 * token_std / math.sqrt(count)
    require(math.isfinite(nll), f"held-out NLL {nll} is not finite")
    require(nll < math.log(vocab_size),
            f"held-out NLL {nll:.4f} is not below ln V = {math.log(vocab_size):.4f}")
    require(nll >= floor,
            f"held-out NLL {nll:.4f} is below the source entropy rate "
            f"{entropy_rate:.4f} minus slack ({floor:.4f})")


def check_gradients(model, inputs, targets, corpus, rng: np.random.Generator,
                    eps: float = 1e-5, rtol: float = 1e-4, atol: float = 1e-10,
                    train_seed: int | None = None, sampler=None,
                    sample_count: int = 0) -> int:
    """Directional central differences of one window loss, per parameter.

    In eval mode by default.  With ``train_seed`` the loss is taken in train
    mode (dropout, and the sampled softmax when a sampler is given), and
    every evaluation draws from a fresh ``default_rng(train_seed)``, so the
    dropout masks and sampled negatives are the same each time.  The
    direction for each parameter mixes its reported gradient's direction
    with a random one, so a wrongly scaled or wrongly pointed gradient both
    show.  Needs a float64 model.  Returns the number of parameters checked.
    """
    batch = np.shape(inputs)[0]

    def window_loss():
        if train_seed is None:
            return model.window_nll(inputs, targets, corpus, model.zero_state(batch),
                                    mode="eval")[0]
        draws = np.random.default_rng(train_seed)
        with tensor.Graph(rng=draws):
            return model.window_nll(inputs, targets, corpus, model.zero_state(batch),
                                    mode="train", rng=draws, sampler=sampler,
                                    sample_count=sample_count)[0]

    def loss_value() -> float:
        with tensor.no_grad():
            return window_loss().item()

    for p in model.params.values():
        p.grad = None
    tensor.backward(window_loss())
    grads = {name: (np.zeros_like(p.data) if p.grad is None else np.array(p.grad))
             for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = None

    for name, p in model.params.items():
        g = grads[name]
        direction = rng.standard_normal(p.data.shape)
        direction /= np.linalg.norm(direction)
        g_norm = np.linalg.norm(g)
        if g_norm > 0:
            direction += g / g_norm
            direction /= np.linalg.norm(direction)
        base = p.data
        p.data = base + eps * direction
        up = loss_value()
        p.data = base - eps * direction
        down = loss_value()
        p.data = base
        numeric = (up - down) / (2 * eps)
        analytic = float(np.sum(g * direction))
        require(abs(numeric - analytic) <= atol + rtol * max(abs(numeric), abs(analytic)),
                f"gradient of {name}: backward gives {analytic:.9g} along a "
                f"direction, central differences give {numeric:.9g}")
    return len(grads)


def check_window_invariance(nll_a: float, nll_b: float, count: int,
                            rtol: float) -> None:
    """Carried state makes the total NLL independent of the window length."""
    require(abs(nll_a - nll_b) <= rtol * abs(nll_a),
            f"total NLL over {count} tokens is {nll_a:.9g} with one window length "
            f"and {nll_b:.9g} with another (relative tolerance {rtol:g})")


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_log_probs(arrays: dict, subword_rows: np.ndarray,
                        row_lengths: np.ndarray, stream: np.ndarray) -> np.ndarray:
    """ln p(stream[t+1] | stream[..t]) from a plain numpy Syl-Concat LM.

    Syl-Concat composition (masked subword concatenation, projection,
    highway layers), a two-layer LSTM run over the whole stream from a zero
    state, and a full softmax; float64 throughout.
    """
    a = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    ids = np.asarray(stream[:-1])
    targets = np.asarray(stream[1:])
    rows = subword_rows[ids]
    n = rows.shape[1]
    mask = np.arange(n)[None, :] < row_lengths[ids][:, None]
    x = (a["composer.e_s"][rows] * mask[:, :, None]).reshape(len(ids), -1)
    y = x @ a["composer.proj.w"] + a["composer.proj.b"]
    layer = 0
    while f"composer.hw{layer}.w_t" in a:
        gate = _sigmoid(y @ a[f"composer.hw{layer}.w_t"] + a[f"composer.hw{layer}.b_t"])
        body = np.maximum(y @ a[f"composer.hw{layer}.w_h"] + a[f"composer.hw{layer}.b_h"], 0.0)
        y = gate * body + (1.0 - gate) * y
        layer += 1
    seq = y
    for layer in (0, 1):
        wx, wh, b = (a[f"lm.l{layer}.{k}"] for k in ("wx", "wh", "b"))
        d = wh.shape[0]
        h = np.zeros(d)
        c = np.zeros(d)
        xw = seq @ wx + b
        out = np.empty((len(ids), d))
        for t in range(len(ids)):
            z = xw[t] + h @ wh
            i, f, o, g = _sigmoid(z[:d]), _sigmoid(z[d:2 * d]), _sigmoid(z[2 * d:3 * d]), np.tanh(z[3 * d:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        seq = out
    logits = seq @ a["lm.w_out"] + a["lm.b_out"]
    zmax = logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits - zmax).sum(axis=1)) + zmax[:, 0]
    return logits[np.arange(len(ids)), targets] - log_z


def check_reference(program_log_probs: np.ndarray, reference: np.ndarray,
                    atol: float) -> None:
    program_log_probs = np.asarray(program_log_probs, dtype=np.float64)
    require(program_log_probs.shape == reference.shape,
            f"{program_log_probs.shape[0]} scored tokens, reference has {reference.shape[0]}")
    diff = np.abs(program_log_probs - reference)
    worst = int(np.argmax(diff))
    require(diff[worst] <= atol,
            f"token {worst + 1}: program ln p = {program_log_probs[worst]:.7f}, "
            f"numpy reference {reference[worst]:.7f} (tolerance {atol:g})")
