"""The benchmark's workloads: set-up, measured phase, checks and metrics.

Each workload drives the package's public functions the way ``sublm
train`` and ``sublm eval`` do, in one process with one client (a closed
loop): segmenter and vocabulary build, corpus encoding, then either
``training.train`` or ``lm.evaluate_stream``.  The measured phase repeats
identical rounds until the requested seconds have passed (and at least
``MIN_ROUNDS`` times), so every round is the same work and its result must
repeat bitwise.  ``tok_s`` is the median over the run's rounds of a round's
tokens divided by its wall time.  The eval workload's checkpoint is trained
in a child process, so the workload process's peak RSS is that of set-up
and scoring alone.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from sublm import checkpoint, composition, corpus, lm, syllabify, tensor, training
from sublm.config import TrainConfig

import checks
import inputs
from tracing import Tracer

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

BATCH = 20
BPTT = 35
EVAL_STEPS = 35
SETUP_REPS = 9
# Peak RSS settles only after a few train() rounds in one process (the
# allocator's reuse of freed graph memory), so every run measures at least
# this many rounds whatever --seconds says.
MIN_ROUNDS = 3
# The recipe's lr of 1.0 overshoots in the first windows of a fresh 10k-way
# softmax (window losses of 9.2, 8.5, 14.8, ...), so a held-out NLL taken
# after a handful of windows would depend on where the run stops; at 0.1 the
# window losses fall steadily.
LR = 0.1
SYL_CONCAT_5M = {"variant": "syl-concat", "d_s": 50, "d_hw": 300, "d_lm": 300}
SYL_LSTM_5M = {"variant": "syl-lstm", "d_s": 50, "d_w": 300, "d_lm": 300}
# eval-concat-f32 checks window-length invariance on this many tokens
INVARIANCE_TOKENS = 701
INVARIANCE_RTOL = 1e-6       # observed 1e-8; dropping state moves it by 2e-3
# and compares this many leading tokens with the numpy reference
REFERENCE_TOKENS = 106
REFERENCE_ATOL = 2e-5        # on ln p; observed 4e-7, shifted targets move it by 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train" or "eval"
    model: dict               # TrainConfig keys of the model
    windows: int              # training windows per round, or for the eval checkpoint
    heldout_tokens: int       # held-out stream: NLL for training, the scored stream for eval


WORKLOADS = {w.name: w for w in (
    Workload("train-concat-f32", "train", dict(SYL_CONCAT_5M, precision="f32"),
             windows=6, heldout_tokens=2800),
    Workload("train-lstm-sampled", "train",
             dict(SYL_LSTM_5M, softmax="sampled", sample_fraction=0.2),
             windows=3, heldout_tokens=2800),
    Workload("eval-concat-f32", "eval", dict(SYL_CONCAT_5M, precision="f32"),
             windows=2, heldout_tokens=2800),
)}

UNITS = {"tok_s": "tok/s", "nll_nats": "nats", "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Inputs:
    source: inputs.Source
    vocab_text: str           # the training text plus a dictionary of every word
    train_text: str
    heldout_text: str


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    source = inputs.make_source(rng)
    # just enough whole lines for ``windows`` windows of BATCH x BPTT tokens
    train_text = source.text(rng, BATCH * (BPTT * workload.windows + 1))
    heldout_text = source.text(rng, workload.heldout_tokens)
    return Inputs(source, train_text + source.dictionary_text(), train_text,
                  heldout_text)


@dataclass
class Prepared:
    vocabs: corpus.Vocabularies
    corpus: corpus.EncodedCorpus
    model: lm.LanguageModel | None = None


def set_up(inp: Inputs, ckpt: checkpoint.Checkpoint | None = None,
           path: str | None = None) -> Prepared:
    """The program's set-up calls: what ``setup_s`` times.

    Patterns, segmenter, vocabularies and encoded corpus; with a checkpoint,
    also its save and load and the model rebuilt from it (``sublm eval``).
    """
    segmenter = syllabify.Segmenter("liang", syllabify.load_default_patterns())
    vocabs = corpus.build_vocabs(inp.vocab_text, segmenter)
    encoded = corpus.encode_corpus({"train": inp.train_text,
                                    "heldout": inp.heldout_text}, vocabs, segmenter)
    prepared = Prepared(vocabs, encoded)
    if ckpt is not None:
        ckpt.save(path)
        loaded = checkpoint.Checkpoint.load(path)
        loaded.verify_vocabs(vocabs.hashes())
        prepared.model, _ = training.model_from_checkpoint(
            loaded, training.ModelSizes.from_vocabs(vocabs))
    return prepared


@contextmanager
def observe_windows(seen: list):
    """Record (tokens, loss) of every train-mode window ``train()`` runs."""
    original = lm.LanguageModel.window_nll

    def window_nll(self, word_ids, targets, *args, **kwargs):
        loss, state = original(self, word_ids, targets, *args, **kwargs)
        seen.append((np.size(word_ids), loss.item()))
        return loss, state

    lm.LanguageModel.window_nll = window_nll
    try:
        yield
    finally:
        lm.LanguageModel.window_nll = original


@contextmanager
def observe_eval_windows(seen: list):
    """Record (tokens, mean loss) of every window ``evaluate_stream`` scores."""
    original = lm.full_softmax_nll

    def full_softmax_nll(logits, targets):
        loss, probs = original(logits, targets)
        seen.append((np.size(targets), loss.item()))
        return loss, probs

    lm.full_softmax_nll = full_softmax_nll
    try:
        yield
    finally:
        lm.full_softmax_nll = original


def failed_windows(seen: list, expected: int) -> int:
    """Windows that failed: a non-finite loss, or never run (``train()``
    stops at the first non-finite loss)."""
    bad = sum(1 for _, loss in seen if not math.isfinite(loss))
    return bad + max(expected - len(seen), 0)


class SetUpRuns:
    """Timed repetitions of the set-up, spread over the run.

    One repetition runs before the first measured round and one after every
    round (and more at the end until there are ``SETUP_REPS``), so the
    median of the set-up times samples the whole run rather than its first
    seconds.  The rounds use the first repetition's results; the later ones
    are identical.
    """

    def __init__(self, fn, phase):
        self.fn = fn
        self.phase = phase
        self.times: list[float] = []
        self.first: Prepared | None = None

    def __call__(self) -> None:
        with self.phase("setup"):
            gc.collect()
            start = time.perf_counter()
            prepared = self.fn()
            self.times.append(time.perf_counter() - start)
        if self.first is None:
            self.first = prepared


class WindowClock:
    """Per-round and per-window throughput of the measured phase.

    ``LanguageModel.embed_window`` runs once at the start of every window,
    in training and in evaluation alike, so the time from one call to the
    next is one whole window: forward, backward, clipping and update.  The
    first window of a round also carries the round's start-up (the model
    build in ``train()``) and the last one its wind-down, so the windows of
    a round add up to the round's wall time.
    """

    def __init__(self):
        self.starts: list[float] = []  # one per window
        self.tokens: list[int] = []
        self.rounds: list[tuple[int, float, float]] = []

    @contextmanager
    def installed(self):
        original = lm.LanguageModel.embed_window
        clock = self

        def embed_window(model, word_ids, corpus_):
            clock.starts.append(time.perf_counter())
            clock.tokens.append(np.size(word_ids))
            return original(model, word_ids, corpus_)

        lm.LanguageModel.embed_window = embed_window
        try:
            yield self
        finally:
            lm.LanguageModel.embed_window = original

    @contextmanager
    def round(self):
        first = len(self.starts)
        start = time.perf_counter()
        yield
        self.rounds.append((first, start, time.perf_counter()))

    def elapsed(self) -> float:
        return sum(end - start for _, start, end in self.rounds)

    def window_rates(self) -> list[float]:
        rates = []
        bounds = [r[0] for r in self.rounds[1:]] + [len(self.starts)]
        for (first, start, end), last in zip(self.rounds, bounds):
            edges = [start] + self.starts[first + 1:last] + [end]
            rates += [t / d for t, d in zip(self.tokens[first:last], np.diff(edges))]
        return rates

    def round_rates(self) -> list[float]:
        bounds = [r[0] for r in self.rounds[1:]] + [len(self.starts)]
        return [sum(self.tokens[first:last]) / (end - start)
                for (first, start, end), last in zip(self.rounds, bounds)]

    def median_rate(self) -> float:
        """Median over rounds of a round's tokens per second of wall time."""
        return statistics.median(self.round_rates())

    def notes(self) -> list[str]:
        rates = self.window_rates()
        quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        return ["round tok/s " + " ".join(f"{r:.1f}" for r in self.round_rates()),
                f"rounds {len(self.rounds)}, windows {len(rates)}, window tok/s "
                "quartiles " + " ".join(f"{q:.1f}" for q in quartiles)]


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions (see README for the metric map)."""
    def count_op(args, out):
        tracer.add("ops")
        tracer.add("op_bytes", getattr(out.data, "nbytes", 0))

    def count_distinct(args, out):
        tracer.add("distinct", np.unique(np.asarray(args[1])).size)

    def count_rows(args, out):
        tracer.add("rows", np.size(args[1]))

    w = tracer.wrap
    w(syllabify.Segmenter, "segment", "syllabify.segment", span=False)
    w(corpus, "build_vocabs", "corpus.build_vocabs")
    w(corpus, "encode_corpus", "corpus.encode_corpus")
    w(checkpoint.Checkpoint, "save", "checkpoint.save")
    w(checkpoint.Checkpoint, "load", "checkpoint.load")
    w(training, "train", "training.train")
    w(training, "build_model", "training.build_model")
    w(training, "clip_global_norm", "training.clip_global_norm")
    w(lm.LanguageModel, "window_nll", "lm.window_nll")
    w(lm.LanguageModel, "embed_window", "composition.embed_window",
      observe=count_distinct)
    # rows composed: every composition variant's own __call__
    composers = [c for c in composition.Composer.__subclasses__() if "__call__" in vars(c)]
    for cls in composers:
        w(cls, "__call__", "composition.compose", span=False, observe=count_rows)
    if not composers:
        tracer.missing.add("composition.compose")
    w(lm.LanguageModel, "lm_forward", "lm.lm_forward")
    w(lm.LanguageModel, "logits", "lm.logits")
    w(tensor, "softmax_xent", "tensor.softmax_xent")
    w(lm, "sampled_softmax_nll", "lm.sampled_softmax_nll")
    w(lm.LogUniformSampler, "sample", "lm.sampler")
    w(lm, "evaluate_stream", "lm.evaluate_stream")
    w(tensor, "backward", "tensor.backward")
    w(tensor, "custom_op", "tensor.custom_op", span=False, observe=count_op)


def layer_metrics(tracer: Tracer, setup_reps: int) -> dict:
    """Per-layer figures: set-up ones per set-up, checkpoint I/O per call,
    the others per window of the measured phase."""
    calls, total, own = tracer.totals("main")
    setup_calls, setup_total, _ = tracer.totals("setup")
    check_calls, check_total, _ = tracer.totals("check")
    windows = max(calls.get("composition.embed_window", 0), 1)

    def have(*names):
        return not any(n in tracer.missing for n in names)

    def per_window_ms(seconds):
        return 1000.0 * seconds / windows

    m = {}
    m["syllabify.segment_s"] = tracer.counter("setup", "syllabify.segment.seconds") / setup_reps
    m["syllabify.segment_calls"] = tracer.counter("setup", "syllabify.segment.calls") / setup_reps
    m["corpus.build_vocabs_s"] = setup_total.get("corpus.build_vocabs", 0.0) / setup_reps
    m["corpus.encode_s"] = setup_total.get("corpus.encode_corpus", 0.0) / setup_reps
    for key, name in (("checkpoint.save_s", "checkpoint.save"),
                      ("checkpoint.load_s", "checkpoint.load")):
        # per call: in the eval set-up, or after training before scoring
        calls = setup_calls.get(name, 0) + check_calls.get(name, 0)
        seconds = setup_total.get(name, 0.0) + check_total.get(name, 0.0)
        m[key] = seconds / calls if calls else 0.0
    m["composition.fwd_ms"] = per_window_ms(total.get("composition.embed_window", 0.0))
    rows = tracer.counter("main", "rows")
    m["composition.distinct_ratio"] = tracer.counter("main", "distinct") / rows if rows else 0.0
    m["lm.lstm_fwd_ms"] = per_window_ms(total.get("lm.lm_forward", 0.0))
    m["lm.softmax_fwd_ms"] = per_window_ms(
        own.get("lm.logits", 0.0) + own.get("tensor.softmax_xent", 0.0)
        + own.get("lm.sampled_softmax_nll", 0.0))
    m["lm.sampler_ms"] = per_window_ms(total.get("lm.sampler", 0.0))
    m["tensor.backward_ms"] = per_window_ms(total.get("tensor.backward", 0.0))
    m["tensor.ops_per_window"] = tracer.counter("main", "ops") / windows
    m["tensor.op_mib_per_window"] = tracer.counter("main", "op_bytes") / 2 ** 20 / windows
    m["training.clip_ms"] = per_window_ms(total.get("training.clip_global_norm", 0.0))
    # the update and loop glue of train(): time inside train() and
    # window_nll() that no layer span covers
    m["training.other_ms"] = per_window_ms(
        own.get("training.train", 0.0) + own.get("lm.window_nll", 0.0))

    needs = {
        "syllabify.segment_s": ("syllabify.segment",),
        "syllabify.segment_calls": ("syllabify.segment",),
        "corpus.build_vocabs_s": ("corpus.build_vocabs",),
        "corpus.encode_s": ("corpus.encode_corpus",),
        "checkpoint.save_s": ("checkpoint.save",),
        "checkpoint.load_s": ("checkpoint.load",),
        "composition.fwd_ms": ("composition.embed_window",),
        "composition.distinct_ratio": ("composition.embed_window", "composition.compose"),
        "lm.lstm_fwd_ms": ("lm.lm_forward",),
        "lm.softmax_fwd_ms": ("lm.logits", "tensor.softmax_xent", "lm.sampled_softmax_nll"),
        "lm.sampler_ms": ("lm.sampler",),
        "tensor.backward_ms": ("tensor.backward",),
        "tensor.ops_per_window": ("tensor.custom_op",),
        "tensor.op_mib_per_window": ("tensor.custom_op",),
        "training.clip_ms": ("training.clip_global_norm",),
        "training.other_ms": ("training.train", "lm.window_nll"),
    }
    return {k: (v if have(*needs[k]) else None) for k, v in m.items()}


LAYER_UNITS = {
    "syllabify.segment_s": "s", "syllabify.segment_calls": "count",
    "corpus.build_vocabs_s": "s", "corpus.encode_s": "s",
    "composition.fwd_ms": "ms", "composition.distinct_ratio": "ratio",
    "lm.lstm_fwd_ms": "ms", "lm.softmax_fwd_ms": "ms", "lm.sampler_ms": "ms",
    "tensor.backward_ms": "ms", "tensor.ops_per_window": "count",
    "tensor.op_mib_per_window": "MiB", "training.clip_ms": "ms",
    "training.other_ms": "ms", "checkpoint.save_s": "s", "checkpoint.load_s": "s",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list

    def as_json(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def train_config(workload: Workload, seed: int, **overrides) -> TrainConfig:
    values = dict(workload.model, batch_size=BATCH, bptt=BPTT, max_epochs=1,
                  lr=LR, seed=seed)
    values.update(overrides)
    return TrainConfig(**values)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        scratch_dir: str, setup_reps: int = SETUP_REPS,
        min_rounds: int = MIN_ROUNDS) -> Result:
    inp = make_inputs(workload, seed)
    config = train_config(workload, seed)
    tracer = Tracer() if trace else None
    phase = tracer.phase if tracer else (lambda name: nullcontext())
    notes: list[str] = []
    failures: list[str] = []
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch_dir)
    try:
        if tracer:
            install_tracing(tracer)
        ckpt = None
        ckpt_path = os.path.join(workdir, "model.slm")
        if workload.kind == "eval":
            # the checkpoint to score: a short training run in a child
            # process, so that its memory stays out of this one's peak RSS
            trained_path = os.path.join(workdir, "trained.slm")
            make_checkpoint_in_child(workload, seed, trained_path)
            ckpt = checkpoint.Checkpoint.load(trained_path)

        setup = SetUpRuns(lambda: set_up(inp, ckpt, ckpt_path), phase)
        if workload.kind == "train":
            tok_s, attempted, failed, nll, rss_mib, extra = _train_phase(
                config, inp, setup, seconds, min_rounds, phase, failures, ckpt_path)
        else:
            tok_s, attempted, failed, nll, rss_mib, extra = _eval_phase(
                inp, setup, seconds, min_rounds, phase, failures)
        while len(setup.times) < setup_reps:
            setup()
        setup_s = statistics.median(setup.times)
        notes.append("set-ups " + " ".join(f"{s:.3f}" for s in setup.times))
        notes.extend(extra)

        if tracer:
            notes.append(f"traced tok_s {tok_s:.2f}")
            if tracer.missing:
                notes.append("missing: " + ", ".join(sorted(tracer.missing)))
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                       for k, v in layer_metrics(tracer, len(setup.times)).items()}
            tracer.dump(os.path.join(scratch_dir, f"trace-{workload.name}-seed{seed}.json"))
        else:
            values = {"tok_s": tok_s, "nll_nats": nll, "setup_s": setup_s,
                      "peak_rss_mib": rss_mib}
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        notes.extend(f"check failed: {f}" for f in failures)
        return Result(not failures, attempted, failed, metrics, notes)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def train_checkpoint(workload: Workload, seed: int, path: str) -> None:
    """Train the checkpoint the eval workload scores and save it to ``path``."""
    inp = make_inputs(workload, seed)
    prep = set_up(inp)
    training.train(train_config(workload, seed), prep.vocabs, prep.corpus).save(path)


def make_checkpoint_in_child(workload: Workload, seed: int, path: str) -> None:
    """``train_checkpoint`` in a fresh interpreter (``run.py --make-checkpoint``)."""
    proc = subprocess.run([sys.executable, RUN_PY, "--workload", workload.name,
                           "--seed", str(seed), "--make-checkpoint", path],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0 or not os.path.exists(path):
        raise RuntimeError(f"training the eval checkpoint failed "
                           f"(status {proc.returncode}): {proc.stderr[-2000:]}")


def peak_rss_mib() -> float:
    """Peak RSS of this process so far; read right after the measured phase,
    so that the checks' own allocations never count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(failures: list, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except checks.CheckFailed as err:
        failures.append(str(err))
        return None


def _train_phase(config, inp, setup, seconds, min_rounds, phase, failures,
                 ckpt_path):
    setup()
    vocabs, encoded = setup.first.vocabs, setup.first.corpus
    stream = encoded.streams["train"]
    seen: list = []
    log_lines: list = []
    digests = []
    clock = WindowClock()
    with phase("main"), observe_windows(seen), clock.installed():
        while len(clock.rounds) < min_rounds or clock.elapsed() < seconds:
            ckpt = None  # the previous round's result is not kept alive
            gc.collect()
            with clock.round():
                ckpt = training.train(config, vocabs, encoded, log_line=log_lines.append)
            digests.append(checkpoint_digest(ckpt))
            setup()
    rss_mib = peak_rss_mib()
    rounds = len(clock.rounds)
    attempted = checks.train_window_count(len(stream), BATCH, BPTT) * rounds
    failed = failed_windows(seen, attempted)

    with phase("check"):
        sizes = training.ModelSizes.from_vocabs(vocabs)
        _check(failures, checks.check_train_tokens, [s for s, _ in seen],
               len(stream), BATCH, BPTT, rounds)
        _check(failures, checks.check_finite, [l for _, l in seen], "window losses")
        _check(failures, _check_epoch_lines, log_lines, seen, rounds)
        _check(failures, checks.require, len(set(digests)) == 1,
               f"{len(set(digests))} different checkpoints from {rounds} identical rounds")
        # as `sublm train` then `sublm eval`: save, load, rebuild, score
        ckpt.save(ckpt_path)
        loaded = checkpoint.Checkpoint.load(ckpt_path)
        _check(failures, checks.require, checkpoint_digest(loaded) == digests[0],
               "the checkpoint changed in a save and load")
        model, _ = training.model_from_checkpoint(loaded, sizes)
        heldout = encoded.streams["heldout"]
        total, count, _ = lm.evaluate_stream(model, heldout, encoded, steps=EVAL_STEPS)
        nll = total / count
        _check(failures, checks.check_eval_count, count, len(heldout))
        _check(failures, checks.check_nll_bounds, nll, vocabs.word_count,
               inp.source.entropy_rate, inp.source.token_std, count)
        del model
        # gradients of one small window of the same model in float64
        fd_config = dataclasses.replace(config, precision="f64")
        fd_model = training.build_model(fd_config, sizes,
                                        rng=np.random.default_rng(config.seed + 1))
        inputs_, targets, _ = next(corpus.batch_stream(stream, 2, 6))
        _check(failures, checks.check_gradients, fd_model, inputs_, targets, encoded,
               np.random.default_rng(config.seed + 2))
        if config.softmax == "sampled":
            # train mode too: dropout and the sampled softmax's own backward,
            # with the same draws in every evaluation
            sampler = lm.LogUniformSampler(vocabs.word_freq)
            count = lm.sample_count_for(vocabs.word_count, config.sample_fraction)
            _check(failures, checks.check_gradients, fd_model, inputs_, targets, encoded,
                   np.random.default_rng(config.seed + 3),
                   train_seed=config.seed + 4, sampler=sampler, sample_count=count)
    return clock.median_rate(), attempted, failed, nll, rss_mib, clock.notes()


def _check_epoch_lines(log_lines, seen, rounds):
    """One epoch line per round whose train PPL matches the windows' losses."""
    checks.require(len(log_lines) == rounds,
                   f"{len(log_lines)} epoch lines for {rounds} one-epoch rounds")
    per_round = len(seen) // max(rounds, 1)
    for r, line in enumerate(log_lines):
        reported = float(line.split("\t")[2])
        losses = [l for _, l in seen[r * per_round:(r + 1) * per_round]]
        expected = math.exp(sum(losses) / len(losses))
        checks.require(math.isfinite(reported) and abs(reported - expected) <= 1e-3 * expected + 1e-3,
                       f"round {r}: train PPL {reported} but its windows give {expected:.3f}")


def checkpoint_digest(ckpt) -> str:
    """SHA-256 over the checkpoint's arrays, in name order."""
    h = hashlib.sha256()
    for name in sorted(ckpt.arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(ckpt.arrays[name]).tobytes())
    return h.hexdigest()


def _eval_phase(inp, setup, seconds, min_rounds, phase, failures):
    setup()
    model, encoded = setup.first.model, setup.first.corpus
    stream = encoded.streams["heldout"]
    totals = []
    seen: list = []
    clock = WindowClock()
    with phase("main"), observe_eval_windows(seen), clock.installed():
        while len(clock.rounds) < min_rounds or clock.elapsed() < seconds:
            gc.collect()
            with clock.round():
                total, count, _ = lm.evaluate_stream(model, stream, encoded,
                                                     steps=EVAL_STEPS)
            totals.append((total, count))
            setup()
    rss_mib = peak_rss_mib()
    rounds = len(clock.rounds)
    windows = -(-(len(stream) - 1) // EVAL_STEPS)
    failed = failed_windows(seen, windows * rounds)
    with phase("check"):
        for total, count in totals:
            _check(failures, checks.check_eval_count, count, len(stream))
            _check(failures, checks.check_finite, [total], "eval NLL")
        _check(failures, checks.check_finite, [l for _, l in seen], "eval window losses")
        _check(failures, checks.require, len({t for t, _ in totals}) == 1,
               "identical eval rounds gave different totals")
        nll = totals[0][0] / totals[0][1]
        prefix = stream[:INVARIANCE_TOKENS]
        a, n_a, _ = lm.evaluate_stream(model, prefix, encoded, steps=EVAL_STEPS)
        b, _, _ = lm.evaluate_stream(model, prefix, encoded, steps=50)
        _check(failures, checks.check_window_invariance, a, b, n_a, INVARIANCE_RTOL)
        head = stream[:REFERENCE_TOKENS]
        _, _, records = lm.evaluate_stream(model, head, encoded, steps=EVAL_STEPS,
                                           collect_records=True)
        arrays = {name: p.data for name, p in model.params.items()}
        reference = checks.reference_log_probs(arrays, encoded.subword_rows,
                                               encoded.row_lengths, head)
        _check(failures, checks.check_reference,
               np.log([p for _, _, p in records]), reference, REFERENCE_ATOL)
    return clock.median_rate(), windows * rounds, failed, nll, rss_mib, clock.notes()
