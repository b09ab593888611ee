"""Self-tests of the benchmark: each check rejects a corrupted output.

Run from the repository root (takes about a minute, most of it the smoke
run of every workload):

    python3 perfbench/selftest.py

The corruption tests use a small lexicon and model so that they run in
seconds; the checks themselves do not depend on the sizes.  Each one patches
the program to produce a wrong output (targets shifted by one token, one
gradient scaled by 1.01, state dropped between eval windows, a window lost,
a loss made NaN) and asserts that the matching check fails, after a control
run without the patch has passed it.  A NaN loss must also show in the
run's ``failed`` count.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import contextmanager

import run

bench = run.import_bench()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from sublm import lm, tensor, training  # noqa: E402
from sublm.config import TrainConfig  # noqa: E402

BATCH, STEPS = 4, 5


@contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def dropping_state(eval_windows):
    """``eval_windows`` that never carries state into the next window."""
    def windows(stream, steps):
        for x, y, _ in eval_windows(stream, steps):
            yield x, y, False
    return windows


def small_setup(seed=0, windows=3):
    rng = np.random.default_rng(seed)
    source = inputs.make_source(rng, size=300)
    train_text = source.text(rng, BATCH * (STEPS * windows + 1))
    heldout_text = source.text(rng, 300)
    inp = bench.Inputs(source, train_text + source.dictionary_text(), train_text,
                       heldout_text)
    return inp, bench.set_up(inp)


def small_config(**overrides):
    values = dict(variant="syl-concat", d_s=8, d_hw=16, d_lm=16, batch_size=BATCH,
                  bptt=STEPS, max_epochs=1, lr=0.1, init_range=0.5, seed=4)
    values.update(overrides)
    return TrainConfig(**values)


def small_model(prepared, config):
    sizes = training.ModelSizes.from_vocabs(prepared.vocabs)
    return training.build_model(config, sizes, rng=np.random.default_rng(config.seed))


class TrainingChecks(unittest.TestCase):
    def setUp(self):
        self.inp, self.prep = small_setup()
        self.stream = self.prep.corpus.streams["train"]

    def train_once(self):
        seen, lines = [], []
        with bench.observe_windows(seen):
            training.train(small_config(), self.prep.vocabs, self.prep.corpus,
                           log_line=lines.append)
        return seen, lines

    def test_token_count_rejects_a_lost_window(self):
        seen, _ = self.train_once()
        checks.check_train_tokens([s for s, _ in seen], len(self.stream), BATCH, STEPS, 1)

        def short(stream, batch, steps):
            windows = list(original(stream, batch, steps))
            yield from windows[:-1]

        with patched(training, "batch_stream", short) as original:
            seen, _ = self.train_once()
        with self.assertRaises(checks.CheckFailed):
            checks.check_train_tokens([s for s, _ in seen], len(self.stream),
                                      BATCH, STEPS, 1)

    def test_finite_losses_and_epoch_line_reject_a_nan_loss(self):
        seen, lines = self.train_once()
        checks.check_finite([l for _, l in seen], "losses")
        bench._check_epoch_lines(lines, seen, 1)

        def nan_window(self_, *args, **kwargs):
            loss, state = original(self_, *args, **kwargs)
            return tensor.mul_scalar(loss, float("nan")), state

        with patched(lm.LanguageModel, "window_nll", nan_window) as original:
            seen, lines = self.train_once()
        with self.assertRaises(checks.CheckFailed):
            checks.check_finite([l for _, l in seen], "losses")
        with self.assertRaises(checks.CheckFailed):
            bench._check_epoch_lines(lines, seen, 1)

    def test_epoch_line_rejects_a_wrong_train_ppl(self):
        seen, lines = self.train_once()
        epoch, lr, ppl, val = lines[0].split("\t")
        wrong = "\t".join([epoch, lr, f"{float(ppl) * 1.01:.3f}", val])
        with self.assertRaises(checks.CheckFailed):
            bench._check_epoch_lines([wrong], seen, 1)

    def test_repeated_rounds_must_match_bitwise(self):
        a = training.train(small_config(), self.prep.vocabs, self.prep.corpus)
        b = training.train(small_config(), self.prep.vocabs, self.prep.corpus)
        self.assertEqual(bench.checkpoint_digest(a), bench.checkpoint_digest(b))
        b.arrays["lm.b_out"][0] += 1e-7
        self.assertNotEqual(bench.checkpoint_digest(a), bench.checkpoint_digest(b))

    def test_gradient_check_rejects_a_scaled_gradient(self):
        sampled = {"train_seed": 5, "sampler": lm.LogUniformSampler(self.prep.vocabs.word_freq),
                   "sample_count": lm.sample_count_for(self.prep.vocabs.word_count, 0.2)}
        for variant, mode in (({}, {}), ({"variant": "syl-lstm", "d_w": 16}, {}),
                              ({"variant": "syl-lstm", "d_w": 16}, sampled)):
            config = small_config(init_range=0.05, **variant)
            model = small_model(self.prep, config)
            x, y, _ = next(iter(training.batch_stream(self.stream, 2, 3)))
            checks.check_gradients(model, x, y, self.prep.corpus, np.random.default_rng(0),
                                   **mode)

            # lm.w_out's gradient comes from the sampled softmax's backward
            # in the sampled case
            for name in ("lm.l0.wh", "lm.w_out"):
                target = model.params[name]

                def scaled(loss):
                    original(loss)
                    target.grad = target.grad * 1.01

                with patched(tensor, "backward", scaled) as original:
                    with self.assertRaises(checks.CheckFailed):
                        checks.check_gradients(model, x, y, self.prep.corpus,
                                               np.random.default_rng(0), **mode)

    def test_train_mode_gradient_check_needs_the_same_draws(self):
        """Without a fixed rng per evaluation the masks and negatives differ."""
        config = small_config(init_range=0.05, variant="syl-lstm", d_w=16)
        model = small_model(self.prep, config)
        x, y, _ = next(iter(training.batch_stream(self.stream, 2, 3)))
        sampler = lm.LogUniformSampler(self.prep.vocabs.word_freq)
        count = lm.sample_count_for(self.prep.vocabs.word_count, 0.2)
        seeds = iter(range(1000))

        def fresh_draws(seed):
            return original(next(seeds))

        with patched(np.random, "default_rng", fresh_draws) as original:
            with self.assertRaises(checks.CheckFailed):
                checks.check_gradients(model, x, y, self.prep.corpus, original(0),
                                       train_seed=5, sampler=sampler, sample_count=count)

    def test_nll_bounds(self):
        h, std = self.inp.source.entropy_rate, self.inp.source.token_std
        v = self.prep.vocabs.word_count
        checks.check_nll_bounds(0.5 * (h + math.log(v)), v, h, std, 1000)
        for wrong in (math.log(v), h - 1.0, float("nan")):
            with self.assertRaises(checks.CheckFailed):
                checks.check_nll_bounds(wrong, v, h, std, 1000)


class FailedCount(unittest.TestCase):
    """A NaN loss makes ``failed`` non-zero and ``correct`` false."""

    def run_short(self, name, owner, attr, nan):
        workload = dataclasses.replace(bench.WORKLOADS[name], windows=2,
                                       heldout_tokens=400)
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with patched(owner, attr, nan) as original:
            self.original = original
            return bench.run(workload, seed=0, seconds=0.0, trace=False,
                             scratch_dir=run.OUT_DIR, setup_reps=1, min_rounds=1)

    def test_nan_training_loss(self):
        def nan_window(self_, *args, **kwargs):
            loss, state = self.original(self_, *args, **kwargs)
            return tensor.mul_scalar(loss, float("nan")), state

        result = self.run_short("train-concat-f32", lm.LanguageModel, "window_nll",
                                nan_window)
        self.assertFalse(result.correct)
        # the first window fails and train() runs no more
        self.assertEqual(result.failed, result.attempted)
        self.assertGreaterEqual(result.failed, 1)

    def test_nan_eval_loss(self):
        def nan_nll(logits, targets):
            loss, probs = self.original(logits, targets)
            return tensor.mul_scalar(loss, float("nan")), probs

        result = self.run_short("eval-concat-f32", lm, "full_softmax_nll", nan_nll)
        self.assertFalse(result.correct)
        self.assertEqual(result.failed, result.attempted)

    def test_failed_windows(self):
        self.assertEqual(bench.failed_windows([(700, 1.0)] * 3, 3), 0)
        self.assertEqual(bench.failed_windows([(700, 1.0), (700, math.nan)], 3), 2)


class RateTest(unittest.TestCase):
    def test_round_rate_covers_the_whole_round(self):
        clock = bench.WindowClock()
        # two rounds of two 10-token windows; round 0 takes 2 s, round 1 4 s
        clock.rounds = [(0, 0.0, 2.0), (2, 10.0, 14.0)]
        clock.starts = [0.5, 1.0, 10.0, 13.0]
        clock.tokens = [10, 10, 10, 10]
        self.assertEqual(clock.round_rates(), [10.0, 5.0])
        self.assertEqual(clock.median_rate(), 7.5)
        self.assertEqual(len(clock.window_rates()), 4)


class EvalChecks(unittest.TestCase):
    def setUp(self):
        self.inp, self.prep = small_setup(seed=1)
        self.model = small_model(self.prep, small_config(precision="f32"))
        self.stream = self.prep.corpus.streams["heldout"][:61]

    def score(self, steps=7, records=False):
        return lm.evaluate_stream(self.model, self.stream, self.prep.corpus,
                                  steps=steps, collect_records=records)

    def reference(self):
        arrays = {k: p.data for k, p in self.model.params.items()}
        return checks.reference_log_probs(arrays, self.prep.corpus.subword_rows,
                                          self.prep.corpus.row_lengths, self.stream)

    def program_log_probs(self):
        _, _, records = self.score(records=True)
        return np.log([p for _, _, p in records])

    def test_reference_rejects_shifted_targets_and_dropped_state(self):
        reference = self.reference()
        checks.check_reference(self.program_log_probs(), reference, bench.REFERENCE_ATOL)

        def shifted(stream, steps):
            # each window scored against the token after its true target
            lo = 0
            for x, _, carry in original(stream[:-1], steps):
                t = x.shape[1]
                yield x, stream[lo + 2:lo + 2 + t][None, :], carry
                lo += t

        with patched(lm, "eval_windows", shifted) as original:
            corrupted = self.program_log_probs()
        with self.assertRaises(checks.CheckFailed):
            checks.check_reference(corrupted, reference[:len(corrupted)], bench.REFERENCE_ATOL)

        with patched(lm, "eval_windows", dropping_state(lm.eval_windows)):
            corrupted = self.program_log_probs()
        with self.assertRaises(checks.CheckFailed):
            checks.check_reference(corrupted, reference, bench.REFERENCE_ATOL)

    def test_window_invariance_rejects_dropped_state(self):
        a, n, _ = self.score(steps=7)
        b, _, _ = self.score(steps=10)
        checks.check_window_invariance(a, b, n, bench.INVARIANCE_RTOL)

        with patched(lm, "eval_windows", dropping_state(lm.eval_windows)):
            c, _, _ = self.score(steps=7)
        with self.assertRaises(checks.CheckFailed):
            checks.check_window_invariance(a, c, n, bench.INVARIANCE_RTOL)

    def test_eval_count_rejects_a_skipped_window(self):
        _, count, _ = self.score()
        checks.check_eval_count(count, len(self.stream))

        def skip_last(stream, steps):
            yield from list(original(stream, steps))[:-1]

        with patched(lm, "eval_windows", skip_last) as original:
            _, count, _ = self.score()
        with self.assertRaises(checks.CheckFailed):
            checks.check_eval_count(count, len(self.stream))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = bench.make_inputs(bench.WORKLOADS["train-concat-f32"], 3)
        b = bench.make_inputs(bench.WORKLOADS["train-concat-f32"], 3)
        c = bench.make_inputs(bench.WORKLOADS["train-concat-f32"], 4)
        self.assertEqual(a.vocab_text, b.vocab_text)
        self.assertEqual(a.heldout_text, b.heldout_text)
        self.assertNotEqual(a.train_text, c.train_text)
        self.assertEqual(len(a.source.lexicon), inputs.LEXICON_SIZE)

    def test_entropy_rate_matches_a_long_sample(self):
        rng = np.random.default_rng(0)
        source = inputs.make_source(rng)
        ids = np.searchsorted(np.cumsum(source.probs), rng.random(200_000), side="right")
        ids = np.minimum(ids, len(source.probs) - 1)
        sample = -np.log(source.probs[ids]).mean() * inputs.LINE_WORDS / (inputs.LINE_WORDS + 1)
        self.assertAlmostEqual(sample, source.entropy_rate, delta=0.03)


class Smoke(unittest.TestCase):
    def test_every_workload_runs_untraced_and_traced(self):
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--smoke"],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        self.assertEqual(len(results), 2 * len(bench.WORKLOADS))
        for result in results:
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])

    def test_fails_without_the_package(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        root = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
        try:
            shutil.copytree(run.HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "train-concat-f32", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=root, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
