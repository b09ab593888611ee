"""The optimization recipe: SGD with gradient clipping and lr halving,
parameter budgeting, and random hyperparameter search under a budget.

Training is deterministic: one seeded rng drives initialization, dropout
masks, and softmax sampling, so a fixed (seed, config, data) triple yields a
bitwise-identical checkpoint.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .composition import ModelSizes, build_composer, uniform_init
from .config import TrainConfig
from .corpus import EncodedCorpus, Vocabularies, batch_stream, check_eval_stream
from .errors import BudgetError, ConfigError, NonFiniteGradientError
from .lm import (LanguageModel, LogUniformSampler, _ppl, perplexity,
                 sample_count_for)

log = logging.getLogger("sublm")


def build_model(config: TrainConfig, sizes: ModelSizes,
                rng: np.random.Generator | None = None) -> LanguageModel:
    """Build the model, random uniform init drawn from ``rng``.

    Without an rng the build is shape-only, for counting and for loading a
    checkpoint: every array is a read-only zero-stride view (the LSTM forget
    biases stay 0), so almost nothing is allocated and nothing can train on it.
    """
    dtype = np.float64 if config.precision == "f64" else np.float32

    def shape_only(shape):
        try:
            return np.broadcast_to(np.zeros((), dtype), shape)
        except ValueError as err:  # say, more elements than numpy can index
            raise ConfigError(f"cannot build a parameter of shape {shape}: {err}") from None

    init = uniform_init(rng, config.init_range, dtype) if rng is not None else shape_only
    composer = build_composer(config, sizes, init=init)
    if config.d_lm < 1:
        raise ConfigError("d_lm must be positive")
    return LanguageModel(composer, d_lm=config.d_lm, vocab_size=sizes.vocab_size,
                         dropout_rate=config.dropout, init=init)


def count_parameters(model: LanguageModel) -> int:
    """Exact count of trainable scalars."""
    return sum(p.data.size for p in model.params.values())


def check_budget(config: TrainConfig, count: int) -> None:
    if not config.budget:
        return
    tol = config.budget_tolerance
    lo, hi = config.budget * (1 - tol), config.budget * (1 + tol)
    if not lo <= count <= hi:
        raise BudgetError(
            f"model has {count} parameters, outside the budget band "
            f"[{lo:.0f}, {hi:.0f}] ({config.budget} +/- {tol:.0%})", count=count)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    Returns the scale factor applied (1.0 when under the limit).  A NaN or
    infinite gradient aborts, naming the offending parameter; a finite one
    whose squares overflow its own precision is summed again in float64.
    """
    total = 0.0
    for name, g in grads.items():
        flat = g.reshape(-1)
        with np.errstate(over="ignore"):
            s = float(np.dot(flat, flat))
        if not math.isfinite(s) and np.isfinite(flat).all():
            wide = flat.astype(np.float64)
            s = float(np.dot(wide, wide))
        if not math.isfinite(s):
            raise NonFiniteGradientError(name)
        total += s
    norm = math.sqrt(total)
    if norm <= max_norm:
        return 1.0
    scale = max_norm / norm
    for g in grads.values():
        g *= scale
    return scale


def next_lr(lr: float, val_ppl: float, best_ppl: float) -> float:
    """Halve when validation perplexity fails to improve on the best so far.

    A NaN perplexity counts as stagnation.
    """
    return lr if val_ppl < best_ppl else lr * 0.5


def train(config: TrainConfig, vocabs: Vocabularies, corpus: EncodedCorpus,
          log_line=None) -> Checkpoint:
    """Run the full recipe and return the best-on-validation checkpoint.

    Per epoch one `epoch<TAB>lr<TAB>train_ppl<TAB>val_ppl` line goes to
    ``log_line``.  On divergence (non-finite loss or gradient) training
    aborts and the last good checkpoint is returned.  When no epoch improved,
    that is epoch 0 with the initial arrays, drawn again from the seed:
    parameters are copied only when an epoch improves.
    """
    sizes = ModelSizes.from_vocabs(vocabs)
    check_budget(config, count_parameters(build_model(config, sizes)))
    rng = np.random.default_rng(config.seed)
    model = build_model(config, sizes, rng=rng)

    train_stream = corpus.streams["train"]
    valid_stream = corpus.streams.get("valid")
    # fail now rather than after the first epoch's training windows (the
    # test stream is scored after training, by the caller)
    for split in ("valid", "test"):
        if split in corpus.streams:
            check_eval_stream(corpus.streams[split], config.bptt)
    sampler = None
    sample_count = 0
    if config.softmax == "sampled":
        sampler = LogUniformSampler(vocabs.word_freq)
        sample_count = sample_count_for(vocabs.word_count, config.sample_fraction)

    lr = config.lr
    best_val = math.inf
    best_epoch = 0
    best_arrays = None

    for epoch in range(1, config.max_epochs + 1):
        state = model.zero_state(config.batch_size)
        total_nll = 0.0
        total_tokens = 0
        try:
            for inputs, targets, carry in batch_stream(train_stream,
                                                       config.batch_size,
                                                       config.bptt):
                if not carry:
                    state = model.zero_state(config.batch_size)
                steps = inputs.shape[1]
                loss, state = model.window_nll(
                    inputs, targets, corpus, state, mode="train", rng=rng,
                    sampler=sampler, sample_count=sample_count)
                if not math.isfinite(loss.item()):
                    raise NonFiniteGradientError("loss")
                # gradients of the time-summed, batch-averaged loss,
                # as the clipping threshold expects
                T.backward(T.mul_scalar(loss, float(steps)))
                clip_global_norm({name: p.grad for name, p in model.params.items()
                                  if p.grad is not None}, config.clip_norm)
                for name, p in model.params.items():
                    if p.grad is not None:
                        p.grad *= lr  # in place: no full-size temporary
                        p.data -= p.grad
                    p.grad = None
                total_nll += loss.item() * inputs.size
                total_tokens += inputs.size
                # frees this window's recording before the next forward pass:
                # between windows only the parameters, the carried state and
                # the best arrays stay live, no gradient
                del loss
        except NonFiniteGradientError as err:
            log.warning("training diverged at epoch %d (%s); "
                        "returning the last good checkpoint", epoch, err)
            break

        train_ppl = _ppl(total_nll, total_tokens)
        if valid_stream is not None:
            val_ppl = perplexity(model, valid_stream, corpus, steps=config.bptt)
        else:
            val_ppl = train_ppl
        if log_line is not None:
            log_line(f"{epoch}\t{lr:g}\t{train_ppl:.3f}\t{val_ppl:.3f}")
        new_lr = next_lr(lr, val_ppl, best_val)
        if val_ppl < best_val:
            best_val = val_ppl
            best_epoch = epoch
            best_arrays = {k: v.data.copy() for k, v in model.params.items()}
        lr = new_lr

    if best_arrays is None:
        initial = build_model(config, sizes, rng=np.random.default_rng(config.seed))
        best_arrays = {k: v.data for k, v in initial.params.items()}
    return Checkpoint(config=config.to_dict(), vocab_hashes=vocabs.hashes(),
                      epoch=best_epoch, best_val_ppl=best_val, arrays=best_arrays)


def model_from_checkpoint(ckpt: Checkpoint, sizes: ModelSizes):
    """Rebuild the model a checkpoint describes and load its arrays.

    Each parameter adopts its array, shared with ``ckpt``; only a dtype mismatch copies.
    """
    config = TrainConfig.from_dict(ckpt.config)
    model = build_model(config, sizes)
    missing = set(model.params) ^ set(ckpt.arrays)
    if missing:
        raise ConfigError(f"checkpoint arrays do not match the model: {sorted(missing)}")
    for name, arr in ckpt.arrays.items():
        p = model.params[name]
        if p.data.shape != arr.shape:
            raise ConfigError(f"checkpoint array {name} has shape {arr.shape}, "
                              f"model expects {p.data.shape}")
        p.data = arr.astype(p.data.dtype, copy=False)
    return model, config


# ---------------------------------------------------------------------------
# random hyperparameter search under a parameter budget


D_S_RANGE = (20, 650)
D_HW_RANGE = (160, 2000)
D_LM_RANGE = (300, 2000)


def d_lm_cap(config: TrainConfig, vocab_size: int) -> float:
    """The largest d that keeps d*V + V + 12d^2 + 8d, the least any variant's
    output and word-LSTM layers hold, inside ``config``'s budget band, plus
    0.5 so every integer d_lm that fits keeps its whole rounding interval."""
    v, hi = vocab_size, config.budget * (1 + config.budget_tolerance)
    disc = (v + 8) ** 2 - 48 * (v - hi)
    return (math.sqrt(max(disc, 0.0)) - (v + 8)) / 24 + 0.5


def sample_dims(rng: np.random.Generator,
                d_lm_cap: float = math.inf) -> tuple[int, int, int]:
    """One draw of (d_s, d_hw, d_lm): d_s uniform, the others log-uniform,
    with d_lm's range cut at ``d_lm_cap``."""
    d_lm_hi = min(D_LM_RANGE[1], d_lm_cap)
    if d_lm_hi < D_LM_RANGE[0]:
        raise ConfigError(f"the budget fits no d_lm in the search range {D_LM_RANGE}, "
                          f"only d_lm < {d_lm_cap:.0f}")
    d_s = int(round(rng.uniform(*D_S_RANGE)))
    d_hw = int(round(math.exp(rng.uniform(*map(math.log, D_HW_RANGE)))))
    d_lm = int(round(math.exp(rng.uniform(math.log(D_LM_RANGE[0]), math.log(d_lm_hi)))))
    return d_s, d_hw, d_lm


@dataclass
class Trial:
    """An accepted config (drawn dimensions, derived seed, budget), its model's
    size and composer output width, and its validation PPL once trained."""

    config: TrainConfig
    param_count: int
    out_dim: int
    val_ppl: float = math.inf


def propose_trials(base: TrainConfig, trials: int, sizes: ModelSizes, seed: int,
                   max_draws: int | None = None) -> list[Trial]:
    """Rejection-sample draws with d_s < d_lm until ``trials`` fit ``base``'s budget.

    d_lm is drawn below :func:`d_lm_cap` only, which leaves the law of the
    accepted draws unchanged.  Raises ConfigError for a base that cannot
    build, no positive budget, ``trials`` < 1, a negative ``seed``, or no
    draw accepted.
    """
    if trials < 1:
        raise ConfigError(f"random search needs at least 1 trial, got {trials}")
    if seed < 0:
        raise ConfigError(f"random search needs a non-negative seed, got {seed}")
    if base.budget <= 0:
        raise ConfigError(f"random search needs a positive budget, got {base.budget}")
    cap = d_lm_cap(base, sizes.vocab_size)
    rng = np.random.default_rng(seed)
    accepted: list[Trial] = []
    max_draws = max_draws or max(1000, 400 * trials)
    for draw in range(max_draws):
        d_s, d_hw, d_lm = sample_dims(rng, cap)
        if d_s >= d_lm:
            continue
        candidate = dataclasses.replace(base, d_s=d_s, d_hw=d_hw, d_lm=d_lm)
        model = build_model(candidate, sizes)
        count = count_parameters(model)
        try:
            check_budget(candidate, count)
        except BudgetError:
            continue
        trial_seed = int(np.random.SeedSequence([seed, len(accepted)])
                         .generate_state(1)[0])
        accepted.append(Trial(dataclasses.replace(candidate, seed=trial_seed),
                              count, model.composer.out_dim))
        if len(accepted) == trials:
            return accepted
    if not accepted:
        raise ConfigError(
            f"random search found no configuration inside the {base.budget} "
            f"(+/- {base.budget_tolerance:.0%}) budget after {max_draws} draws")
    log.warning("random search accepted only %d of %d requested trials",
                len(accepted), trials)
    return accepted


def random_search(base: TrainConfig, trials: int, vocabs: Vocabularies,
                  corpus: EncodedCorpus, seed: int, log_line=None) -> list[Trial]:
    """Train every accepted trial's config and rank the trials by validation PPL."""
    accepted = propose_trials(base, trials, ModelSizes.from_vocabs(vocabs), seed)
    for i, trial in enumerate(accepted):
        ckpt = train(trial.config, vocabs, corpus,
                     log_line=(lambda s: log_line(f"trial {i}\t{s}"))
                     if log_line else None)
        trial.val_ppl = ckpt.best_val_ppl
    return sorted(accepted, key=lambda t: (t.val_ppl, t.config.d_s))
