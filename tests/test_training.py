import dataclasses
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from sublm import tensor as T
from sublm.analysis import vocabulary_embeddings
from sublm.checkpoint import Checkpoint
from sublm.cli import run
from sublm.composition import uniform_init
from sublm.config import TrainConfig, parse_config
from sublm import lm as lm_module
from sublm import training as training_mod
from sublm.corpus import batch_stream, build_vocabs, encode_corpus, eval_windows
from sublm.errors import BudgetError, ConfigError, NonFiniteGradientError
from sublm.lm import (LanguageModel, LogUniformSampler, evaluate_stream,
                      perplexity, sample_count_for)
from sublm.syllabify import Segmenter
from sublm.training import (D_HW_RANGE, D_LM_RANGE, D_S_RANGE, ModelSizes,
                            build_model, check_budget, clip_global_norm,
                            count_parameters, d_lm_cap, model_from_checkpoint, next_lr,
                            propose_trials, random_search, sample_dims, train)

PAPER_SIZES = ModelSizes(vocab_size=10_000, subword_vocab_size=6_000, max_subwords=8)


def symbolic_count(variant, sizes, d_s=0, d_w=0, d_hw=0, d_lm=0, L=0, c=0, n=0):
    """Independent closed-form parameter count used as the oracle."""
    W, S = sizes.vocab_size, sizes.subword_vocab_size
    n = n or sizes.max_subwords
    lstm = lambda p, d: 4 * d * (p + d + 1)
    highway = lambda d: 2 * (2 * d * d + 2 * d)
    if variant == "word-direct":
        comp, out = W * d_w, d_w
    elif variant == "syl-lstm":
        comp, out = S * d_s + lstm(d_s, d_w), d_w
    elif variant == "syl-cnn":
        conv = sum(w * d_s * (c * w) + c * w for w in range(1, L + 1))
        out = c * L * (L + 1) // 2
        comp = S * d_s + conv + highway(out)
    elif variant == "syl-concat":
        comp = S * d_s + (n * d_s * d_hw + d_hw) + highway(d_hw)
        out = d_hw
    else:  # linear family
        comp, out = S * d_s + highway(d_s), d_s
        if variant == "syl-avg-a":
            comp += n
        elif variant == "syl-avg-b":
            comp += S * n + n
    lm = lstm(out, d_lm) + lstm(d_lm, d_lm) + d_lm * W + W
    return comp + lm


def tiny_data(seed=0, sentences=60):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "omega"]
    lines = [" ".join(rng.choice(words, size=6)) for _ in range(sentences)]
    text = "\n".join(lines) + "\n"
    vocabs = build_vocabs(text, Segmenter("chars"))
    corpus = encode_corpus({"train": text, "valid": text}, vocabs)
    return vocabs, corpus


def tiny_config(**overrides):
    base = dict(variant="syl-sum", d_s=8, d_lm=12, batch_size=4, bptt=6,
                max_epochs=2, dropout=0.0, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


VARIANT_DIMS = {
    "word-direct": dict(d_w=8),
    "syl-lstm": dict(d_s=6, d_w=8),
    "syl-cnn": dict(d_s=6, cnn_max_width=2, cnn_depth_unit=2),
    "syl-concat": dict(d_s=6, d_hw=10),
    "syl-sum": dict(d_s=8),
    "syl-avg": dict(d_s=8),
    "syl-avg-a": dict(d_s=8),
    "syl-avg-b": dict(d_s=8),
}


class TestCountParameters:
    def test_lstm_word_5m(self):
        cfg = TrainConfig(variant="word-direct", d_w=108, d_lm=300)
        count = count_parameters(build_model(cfg, PAPER_SIZES))
        assert abs(count - 5e6) < 0.1 * 5e6
        assert count == symbolic_count("word-direct", PAPER_SIZES, d_w=108, d_lm=300)

    def test_syl_concat_tuned_13m(self):
        cfg = TrainConfig(variant="syl-concat", d_s=228, d_hw=781, d_lm=439)
        count = count_parameters(build_model(cfg, PAPER_SIZES))
        assert abs(count - 13e6) < 0.1 * 13e6
        assert count == symbolic_count("syl-concat", PAPER_SIZES,
                                       d_s=228, d_hw=781, d_lm=439)

    @pytest.mark.parametrize("variant,kw", [
        ("syl-lstm", dict(d_s=50, d_w=300)),
        ("syl-cnn", dict(d_s=50, L=3, c=60)),
        ("syl-sum", dict(d_s=175)),
        ("syl-avg-a", dict(d_s=175)),
        ("syl-avg-b", dict(d_s=160)),
        ("syl-concat", dict(d_s=50, d_hw=300)),
    ])
    def test_matches_symbolic_formula(self, variant, kw):
        cfg_kw = dict(variant=variant, d_lm=300,
                      d_s=kw.get("d_s", 0), d_w=kw.get("d_w", 0),
                      d_hw=kw.get("d_hw", 0))
        if variant == "syl-cnn":
            cfg_kw.update(cnn_max_width=kw["L"], cnn_depth_unit=kw["c"])
        count = count_parameters(build_model(TrainConfig(**cfg_kw), PAPER_SIZES))
        assert count == symbolic_count(variant, PAPER_SIZES, d_lm=300, **kw)

    def test_doubling_d_lm_moves_only_lm_terms(self):
        for d_lm in (300, 600):
            cfg = TrainConfig(variant="syl-sum", d_s=175, d_lm=d_lm)
            count = count_parameters(build_model(cfg, PAPER_SIZES))
            assert count == symbolic_count("syl-sum", PAPER_SIZES, d_s=175, d_lm=d_lm)


MIB = 1 << 20


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestShapeOnlyBuild:
    """A build without an rng knows every shape and allocates no parameter memory."""

    def test_counting_13m_allocates_nothing(self):
        cfg = TrainConfig(variant="syl-concat", d_s=228, d_hw=781, d_lm=439)
        assert traced_peak(lambda: count_parameters(build_model(cfg, PAPER_SIZES))) < MIB

    def test_propose_trials_allocates_no_model(self):
        base = TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=6, d_lm=300,
                           budget=20_000_000, budget_tolerance=0.05)
        trials = []
        peak = traced_peak(lambda: trials.extend(
            propose_trials(base, trials=3, sizes=PAPER_SIZES, seed=0)))
        assert len(trials) == 3 and peak < MIB

    def test_checkpoint_load_allocates_no_model(self):
        cfg = TrainConfig(variant="syl-concat", d_s=20, d_hw=40, d_lm=40)
        arrays = {name: np.zeros(p.data.shape)
                  for name, p in build_model(cfg, PAPER_SIZES).params.items()}
        assert sum(a.nbytes for a in arrays.values()) > 4 * MIB
        ckpt = Checkpoint(config=cfg.to_dict(), vocab_hashes={}, epoch=1,
                          best_val_ppl=1.0, arrays=arrays)
        loaded = []
        peak = traced_peak(lambda: loaded.append(model_from_checkpoint(ckpt, PAPER_SIZES)))
        assert peak < MIB
        model, _ = loaded[0]
        assert all(model.params[name].data is a for name, a in arrays.items())

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("variant", list(VARIANT_DIMS))
    def test_arrays_are_read_only_and_match_the_seeded_build(self, variant, precision):
        cfg = tiny_config(variant=variant, precision=precision, **VARIANT_DIMS[variant])
        sizes = ModelSizes(vocab_size=20, subword_vocab_size=15, max_subwords=4)
        shapes = build_model(cfg, sizes)
        seeded = build_model(cfg, sizes, rng=np.random.default_rng(0))
        assert list(shapes.params) == list(seeded.params)
        for name, p in shapes.params.items():
            assert not p.data.flags.writeable, name
            assert p.data.shape == seeded.params[name].data.shape, name
            assert p.data.dtype == seeded.params[name].data.dtype, name
        with pytest.raises(ValueError, match="read-only"):
            shapes.w_out.data -= 1.0

    def test_lstm_biases_do_not_grow_with_d_lm(self, tmp_path, capsys):
        # syl-concat-5m: every shape-only array is a zero-stride view, the
        # LSTM biases too.  d_lm = 10**6 comes first, so a build that grows
        # with d_lm fails there before 10**8 asks for gigabytes.
        cfg = TrainConfig(variant="syl-concat", d_s=50, d_hw=300, d_lm=10 ** 6)
        counts = []
        peak = traced_peak(lambda: counts.append(count_parameters(
            build_model(cfg, PAPER_SIZES))))
        assert counts == [12011208791500] and peak < MIB
        path = tmp_path / "wide.cfg"
        path.write_text("variant = syl-concat\nd_s = 50\nd_hw = 300\nd_lm = 100000000\n"
                        "vocab_size = 10000\nsubword_vocab_size = 6000\nmax_subwords = 8\n")
        assert run(["params", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "params\t120001120800791500\n"


class TestSylCNNWidths:
    def test_width_beyond_n_lists_no_bank_before_it_is_rejected(self):
        cfg = TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=200_000, d_lm=300)

        def build():
            with pytest.raises(ConfigError, match="filter width 200000 exceeds"):
                build_model(cfg, PAPER_SIZES)
        assert traced_peak(build) < MIB

    def test_d_hw_picks_the_nearest_depth_unit(self):
        # widths 1..6 take 21 depth units; 300 / 21 rounds to 14, so 294 wide
        cfg = TrainConfig(variant="syl-cnn", d_s=50, d_hw=300, cnn_max_width=6, d_lm=300)
        assert build_model(cfg, PAPER_SIZES).composer.out_dim == 294

    def test_search_accepts_widths_off_the_depth_unit_grid(self):
        base = TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=3, d_lm=300,
                           budget=20_000_000, budget_tolerance=0.05)
        trials = propose_trials(base, trials=3, sizes=PAPER_SIZES, seed=0)
        assert any(t.config.d_hw % 6 for t in trials)

    def test_trials_report_the_built_width(self):
        base = TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=3, d_lm=300,
                           budget=20_000_000, budget_tolerance=0.05)
        trials = propose_trials(base, trials=3, sizes=PAPER_SIZES, seed=0)
        assert (trials[0].config.d_hw, trials[0].out_dim) == (1010, 1008)
        for t in trials:
            assert t.out_dim == build_model(t.config, PAPER_SIZES).composer.out_dim

    def test_explicit_unit_that_misses_d_hw_is_a_config_error(self, tmp_path):
        cfg = TrainConfig(variant="syl-cnn", d_s=50, d_hw=300, cnn_max_width=3,
                          cnn_depth_unit=60, d_lm=300)
        with pytest.raises(ConfigError, match="give 360"):
            build_model(cfg, PAPER_SIZES)
        path = tmp_path / "cnn.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in dict(
            variant="syl-cnn", d_s=50, d_hw=300, cnn_max_width=3, cnn_depth_unit=60,
            d_lm=300, vocab_size=10000, subword_vocab_size=6000, max_subwords=8).items()))
        assert run(["params", "--config", str(path)]) == 4

    @pytest.mark.parametrize("key", ["cnn_max_width", "cnn_depth_unit", "d_hw"])
    def test_negative_width_keys_are_config_errors(self, key):
        dims = dict(d_s=50, d_hw=300, cnn_max_width=3, d_lm=300)
        cfg = TrainConfig(variant="syl-cnn", **{**dims, key: -2})
        with pytest.raises(ConfigError, match=key):
            build_model(cfg, PAPER_SIZES)


class TestBudget:
    def test_within_band_passes(self):
        cfg = tiny_config(budget=1000, budget_tolerance=0.9)
        check_budget(cfg, 1200)

    def test_outside_band_raises_with_count(self):
        cfg = tiny_config(budget=1_000_000, budget_tolerance=0.05)
        with pytest.raises(BudgetError) as exc:
            check_budget(cfg, 2_000_000)
        assert exc.value.count == 2_000_000
        assert "2000000" in str(exc.value)

    def test_under_budget_also_fails(self):
        cfg = tiny_config(budget=1_000_000, budget_tolerance=0.05)
        with pytest.raises(BudgetError):
            check_budget(cfg, 100_000)

    def test_train_rejects_oversized_model(self, monkeypatch):
        # the budget is checked on a shape-only build, before any init draw
        def no_init(*args, **kwargs):
            raise AssertionError("the initializer ran before the budget check")

        monkeypatch.setattr(training_mod, "uniform_init", no_init)
        vocabs, corpus = tiny_data()
        cfg = tiny_config(budget=100, budget_tolerance=0.05)
        with pytest.raises(BudgetError):
            train(cfg, vocabs, corpus)


class TestClip:
    def test_under_norm_unchanged(self):
        g = {"a": np.array([3.0])}
        assert clip_global_norm(g, 5.0) == 1.0
        assert g["a"][0] == 3.0

    def test_scales_to_max_norm(self):
        g = {"a": np.array([6.0]), "b": np.array([8.0])}  # norm 10
        scale = clip_global_norm(g, 5.0)
        assert scale == pytest.approx(0.5)
        norm = math.sqrt(sum(float((v ** 2).sum()) for v in g.values()))
        assert abs(norm - 5.0) < 1e-9

    def test_huge_gradient_clips_exactly(self):
        g = {"a": np.array([1e6])}
        clip_global_norm(g, 5.0)
        assert abs(abs(g["a"][0]) - 5.0) < 1e-6

    def test_non_finite_names_parameter(self):
        g = {"fine": np.ones(3), "broken": np.array([np.nan])}
        with pytest.raises(NonFiniteGradientError) as exc:
            clip_global_norm(g)
        assert "broken" in str(exc.value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_huge_finite_gradient_clips_in_either_precision(self, dtype):
        # the f32 squares overflow, the gradient itself is finite
        g = {"w": np.full(4, 1e20, dtype)}
        clip_global_norm(g, 5.0)
        assert g["w"].dtype == dtype
        np.testing.assert_allclose(g["w"], 2.5, rtol=1e-6)

    def test_infinite_f32_gradient_still_names_parameter(self):
        g = {"fine": np.ones(3, np.float32), "broken": np.array([np.inf, 1.0], np.float32)}
        with pytest.raises(NonFiniteGradientError, match="broken"):
            clip_global_norm(g)


class TestInit:
    def test_uniform_range_and_forget_biases(self):
        vocabs, _ = tiny_data()
        cfg = tiny_config(variant="syl-lstm", d_w=6, init_range=0.05)
        model = build_model(cfg, ModelSizes.from_vocabs(vocabs),
                            rng=np.random.default_rng(0))
        for name, p in model.params.items():
            vals = p.data.reshape(-1)
            if name.endswith(".b") and ("cell" in name or "lm.l" in name):
                d = p.data.size // 4
                assert np.all(p.data[d:2 * d] == 1.0), name
                rest = np.concatenate([p.data[:d], p.data[2 * d:]])
                assert np.abs(rest).max() < 0.05
            else:
                assert np.abs(vals).max() < 0.05, name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lstm_params_draw_b_then_wx_then_wh(self, dtype):
        wx, wh, b = T.lstm_params(3, 5, uniform_init(np.random.default_rng(4), 0.1, dtype))
        rng = np.random.default_rng(4)
        ref_b, ref_wx, ref_wh = (rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
                                 for shape in ((20,), (3, 20), (5, 20)))
        ref_b[5:10] = 1.0
        for got, ref in ((b, ref_b), (wx, ref_wx), (wh, ref_wh)):
            assert got.data.dtype == dtype
            assert got.data.tobytes() == ref.tobytes()


class TestLrSchedule:
    def test_halving_rule(self):
        # val sequence [100, 101]: epoch 2 fails to improve, lr halves
        lr, best = 1.0, math.inf
        lr = next_lr(lr, 100.0, best); best = min(best, 100.0)
        assert lr == 1.0
        lr = next_lr(lr, 101.0, best)
        assert lr == 0.5

    def test_equal_ppl_counts_as_stagnation(self):
        assert next_lr(1.0, 100.0, 100.0) == 0.5

    def test_integration_lr_non_increasing(self):
        vocabs, corpus = tiny_data()
        lines = []
        train(tiny_config(max_epochs=6), vocabs, corpus, log_line=lines.append)
        lrs = [float(l.split("\t")[1]) for l in lines]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


class TestTrain:
    def test_determinism_bitwise(self, tmp_path):
        vocabs, corpus = tiny_data()
        paths = []
        for run in range(2):
            ckpt = train(tiny_config(max_epochs=3, dropout=0.2), vocabs, corpus)
            path = tmp_path / f"run{run}.ckpt"
            ckpt.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_best_checkpoint_returned(self):
        vocabs, corpus = tiny_data()
        lines = []
        ckpt = train(tiny_config(max_epochs=4), vocabs, corpus, log_line=lines.append)
        vals = [float(l.split("\t")[3]) for l in lines]
        assert ckpt.best_val_ppl == pytest.approx(min(vals), abs=5e-4)
        assert ckpt.epoch == int(np.argmin(vals)) + 1

    def test_divergence_returns_last_good(self, caplog, monkeypatch):
        # a NaN gradient partway through training aborts with the best
        # checkpoint seen so far instead of raising
        vocabs, corpus = tiny_data()
        calls = {"n": 0}
        real_clip = clip_global_norm

        def failing_clip(grads, max_norm=5.0):
            calls["n"] += 1
            if calls["n"] > 25:
                raise NonFiniteGradientError("lm.w_out")
            return real_clip(grads, max_norm)

        import sublm.training as training_mod
        monkeypatch.setattr(training_mod, "clip_global_norm", failing_clip)
        with caplog.at_level("WARNING", logger="sublm"):
            ckpt = train(tiny_config(max_epochs=5), vocabs, corpus)
        assert "diverged" in caplog.text
        assert isinstance(ckpt, Checkpoint)
        assert all(np.isfinite(a).all() for a in ckpt.arrays.values())

    @pytest.mark.parametrize("nan_window", [1, 3])
    def test_divergence_before_any_epoch_returns_the_initial_arrays(
            self, monkeypatch, tmp_path, nan_window):
        vocabs, corpus = tiny_data()
        calls = []
        original = LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            loss, state = original(self, *args, **kwargs)
            calls.append(1)
            if len(calls) == nan_window:
                loss = T.mul_scalar(loss, float("nan"))
            return loss, state

        monkeypatch.setattr(LanguageModel, "window_nll", window_nll)
        cfg = tiny_config()
        ckpt = train(cfg, vocabs, corpus)
        assert ckpt.epoch == 0 and ckpt.best_val_ppl == math.inf
        sizes = ModelSizes.from_vocabs(vocabs)
        initial = build_model(cfg, sizes, rng=np.random.default_rng(cfg.seed))
        assert list(ckpt.arrays) == list(initial.params)
        for name, p in initial.params.items():
            assert ckpt.arrays[name].dtype == p.data.dtype, name
            assert ckpt.arrays[name].tobytes() == p.data.tobytes(), name
        ckpt.save(tmp_path / "m.ckpt")
        model, _ = model_from_checkpoint(Checkpoint.load(tmp_path / "m.ckpt"), sizes)
        assert model.w_out.data.tobytes() == initial.w_out.data.tobytes()

    def test_only_the_parameters_are_live_at_every_window(self, monkeypatch):
        # the best arrays are copied when an epoch improves, not up front, and
        # no window's gradients outlive its update into the next window
        vocabs, corpus = tiny_data()
        at_window = []
        original = LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            at_window.append(tracemalloc.get_traced_memory()[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LanguageModel, "window_nll", window_nll)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ckpt = train(tiny_config(d_lm=300, max_epochs=1), vocabs, corpus)
        finally:
            tracemalloc.stop()
        param_bytes = sum(a.nbytes for a in ckpt.arrays.values())
        assert len(at_window) > 2
        for i, traced in enumerate(at_window, 1):
            assert traced - start < 1.5 * param_bytes, f"window {i}"

    def test_runaway_loss_stays_finite_in_logs(self):
        # saturated models can reach astronomically bad but finite losses;
        # the epoch summary must not overflow
        vocabs, corpus = tiny_data()
        cfg = tiny_config(max_epochs=2, lr=1e9, init_range=2.0)
        lines = []
        ckpt = train(cfg, vocabs, corpus, log_line=lines.append)
        assert len(lines) == 2
        assert isinstance(ckpt, Checkpoint)

    def test_checkpoint_roundtrip_preserves_evaluation(self, tmp_path):
        vocabs, corpus = tiny_data()
        cfg = tiny_config(max_epochs=2)
        ckpt = train(cfg, vocabs, corpus)
        sizes = ModelSizes.from_vocabs(vocabs)
        before, _ = model_from_checkpoint(ckpt, sizes)
        ref = perplexity(before, corpus.streams["valid"], corpus, steps=cfg.bptt)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        after, _ = model_from_checkpoint(Checkpoint.load(path), sizes)
        again = perplexity(after, corpus.streams["valid"], corpus, steps=cfg.bptt)
        assert again == ref  # bitwise identical arrays, identical evaluation

    def test_previous_window_released_before_next_forward(self, monkeypatch):
        vocabs, corpus = tiny_data()
        losses = []
        alive_at_start = []
        original = LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            alive_at_start.append(any(ref() is not None for ref in losses))
            loss, state = original(self, *args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss, state

        monkeypatch.setattr(LanguageModel, "window_nll", window_nll)
        train(tiny_config(max_epochs=1), vocabs, corpus)
        assert len(alive_at_start) > 1 and not any(alive_at_start)

    @pytest.mark.parametrize("variant", list(VARIANT_DIMS))
    def test_f32_train_window_stays_float32(self, variant):
        vocabs, corpus = tiny_data()
        sizes = ModelSizes.from_vocabs(vocabs)
        cfg = tiny_config(variant=variant, precision="f32", dropout=0.5,
                          **VARIANT_DIMS[variant])
        model = build_model(cfg, sizes, rng=np.random.default_rng(0))
        # the f32 build is the f64 build's draws, rounded once
        wide = build_model(dataclasses.replace(cfg, precision="f64"), sizes,
                           rng=np.random.default_rng(0))
        for name, p in model.params.items():
            assert p.data.dtype == np.float32, name
            assert (p.data.tobytes()
                    == wide.params[name].data.astype(np.float32).tobytes()), name
        inputs, targets, _ = next(batch_stream(corpus.streams["train"], 4, 6))
        rng = np.random.default_rng(1)
        loss, state = model.window_nll(inputs, targets, corpus, model.zero_state(4),
                                       mode="train", rng=rng)
        T.backward(loss)
        assert loss.data.dtype == np.float32
        for name, p in model.params.items():
            assert p.grad is not None and p.grad.dtype == np.float32, name
        assert all(a.dtype == np.float32 for layer in state for a in layer)

    def test_checkpoint_that_does_not_fit_the_model_is_a_config_error(self):
        vocabs, corpus = tiny_data()
        sizes = ModelSizes.from_vocabs(vocabs)
        ckpt = train(tiny_config(max_epochs=1), vocabs, corpus)
        name = next(iter(ckpt.arrays))
        ckpt.arrays[name] = np.zeros((1,) + ckpt.arrays[name].shape)
        with pytest.raises(ConfigError, match="shape"):
            model_from_checkpoint(ckpt, sizes)
        del ckpt.arrays[name]
        with pytest.raises(ConfigError, match="do not match"):
            model_from_checkpoint(ckpt, sizes)

    @pytest.mark.parametrize("valid_tokens", [0, 1])
    def test_unusable_valid_stream_fails_before_any_window(self, valid_tokens, monkeypatch):
        vocabs, corpus = tiny_data()
        corpus.streams["valid"] = corpus.streams["valid"][:valid_tokens]
        windows = []
        original = LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            windows.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LanguageModel, "window_nll", window_nll)
        with pytest.raises(ConfigError, match="two tokens"):
            train(tiny_config(max_epochs=1), vocabs, corpus)
        assert windows == []

    def test_unusable_test_stream_fails_before_any_window(self, monkeypatch):
        vocabs, corpus = tiny_data()
        corpus.streams["test"] = corpus.streams["valid"][:1]
        windows = []
        original = LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            windows.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LanguageModel, "window_nll", window_nll)
        with pytest.raises(ConfigError, match="two tokens"):
            train(tiny_config(max_epochs=1), vocabs, corpus)
        assert windows == []

    def test_sampled_softmax_training_runs(self):
        vocabs, corpus = tiny_data()
        cfg = tiny_config(max_epochs=2, softmax="sampled", sample_fraction=0.5)
        ckpt = train(cfg, vocabs, corpus)
        assert math.isfinite(ckpt.best_val_ppl)


def test_window_hooks_run_once_per_window(monkeypatch):
    """``embed_window(word_ids, corpus)`` starts every training and scoring
    window, called positionally, and scoring calls the module's
    ``full_softmax_nll`` once per window: per-window timing and loss
    observers wrap exactly these."""
    vocabs, corpus = tiny_data()
    embedded, scored = [], []
    embed_window, full_softmax_nll = LanguageModel.embed_window, lm_module.full_softmax_nll

    def observed_embed_window(model, word_ids, corpus_):
        embedded.append(np.size(word_ids))
        return embed_window(model, word_ids, corpus_)

    def observed_full_softmax_nll(logits, targets):
        scored.append(np.size(targets))
        return full_softmax_nll(logits, targets)

    monkeypatch.setattr(LanguageModel, "embed_window", observed_embed_window)
    monkeypatch.setattr(lm_module, "full_softmax_nll", observed_full_softmax_nll)
    cfg = tiny_config(max_epochs=1, softmax="sampled", sample_fraction=0.5)
    ckpt = train(cfg, vocabs, corpus)
    train_sizes = [x.size for x, _, _ in batch_stream(corpus.streams["train"], 4, 6)]
    valid_sizes = [x.size for x, _, _ in eval_windows(corpus.streams["valid"], 6)]
    assert embedded == train_sizes + valid_sizes
    assert scored == valid_sizes

    embedded.clear()
    scored.clear()
    model, _ = model_from_checkpoint(ckpt, ModelSizes.from_vocabs(vocabs))
    evaluate_stream(model, corpus.streams["valid"], corpus, steps=7)
    sizes = [x.size for x, _, _ in eval_windows(corpus.streams["valid"], 7)]
    assert embedded == sizes and scored == sizes


@pytest.mark.parametrize("softmax", ["full", "sampled"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("variant", list(VARIANT_DIMS))
def test_f32_window_keeps_parameter_dtype(variant, mode, softmax):
    """The loss, every recorded node behind it and every gradient are f32."""
    vocabs, corpus = tiny_data()
    cfg = tiny_config(variant=variant, precision="f32", dropout=0.5,
                      **VARIANT_DIMS[variant])
    model = build_model(cfg, ModelSizes.from_vocabs(vocabs),
                        rng=np.random.default_rng(0))
    sampled = dict(sampler=LogUniformSampler(vocabs.word_freq),
                   sample_count=sample_count_for(vocabs.word_count, 0.5))
    inputs, targets, _ = next(batch_stream(corpus.streams["train"], 4, 6))
    rng = np.random.default_rng(1)
    loss, _ = model.window_nll(inputs, targets, corpus, model.zero_state(4),
                               mode=mode, rng=rng,
                               **(sampled if softmax == "sampled" else {}))
    T.backward(loss)
    for node in T.recorded(loss):
        assert node.data.dtype == np.float32, node.op
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.dtype == np.float32, name


class TestRandomSearch:
    def test_marginal_bounds_and_restriction(self):
        rng = np.random.default_rng(0)
        draws = [sample_dims(rng) for _ in range(1000)]
        for d_s, d_hw, d_lm in draws:
            assert D_S_RANGE[0] <= d_s <= D_S_RANGE[1]
            assert D_HW_RANGE[0] <= d_hw <= D_HW_RANGE[1]
            assert D_LM_RANGE[0] <= d_lm <= D_LM_RANGE[1]

    def test_log_uniform_midpoint(self):
        rng = np.random.default_rng(1)
        mid = math.sqrt(D_HW_RANGE[0] * D_HW_RANGE[1])
        below = sum(sample_dims(rng)[1] < mid for _ in range(10_000)) / 10_000
        assert abs(below - 0.5) < 0.05

    def test_accepted_trials_fit_budget_band(self):
        base = TrainConfig(variant="syl-concat", d_s=50, d_hw=300, d_lm=300,
                           budget=20_000_000, budget_tolerance=0.05)
        trials = propose_trials(base, trials=5, sizes=PAPER_SIZES, seed=0)
        assert len(trials) == 5
        for t in trials:
            assert 19_000_000 <= t.param_count <= 21_000_000
            assert t.config.d_s < t.config.d_lm

    BANDS = [(5_000_000, 0.10), (20_000_000, 0.05)]

    @pytest.mark.parametrize("budget,tol", BANDS)
    def test_d_lm_above_the_cap_cannot_fit(self, budget, tol):
        # word-direct with d_w = 1 is the smallest composer a model can have
        cap = d_lm_cap(TrainConfig(budget=budget, budget_tolerance=tol),
                       PAPER_SIZES.vocab_size)
        cfg = TrainConfig(variant="word-direct", d_w=1, d_lm=math.floor(cap) + 1)
        assert count_parameters(build_model(cfg, PAPER_SIZES)) > budget * (1 + tol)

    @pytest.mark.parametrize("budget,tol", BANDS)
    @pytest.mark.parametrize("variant", ["word-direct", "syl-sum"])
    def test_uncapped_search_accepts_nothing_above_the_cap(self, monkeypatch,
                                                           budget, tol, variant):
        import sublm.training as training_mod
        monkeypatch.setattr(training_mod, "sample_dims", lambda rng, cap: sample_dims(rng))
        base = TrainConfig(variant=variant, d_s=50, d_w=108, d_lm=300,
                           budget=budget, budget_tolerance=tol)
        cap = d_lm_cap(base, PAPER_SIZES.vocab_size)
        trials = propose_trials(base, trials=3, sizes=PAPER_SIZES, seed=0)
        assert len(trials) == 3
        assert all(t.config.d_lm <= cap for t in trials)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_syl_cnn_fills_the_small_budget(self, seed):
        base = TrainConfig(variant="syl-cnn", d_s=50, cnn_max_width=6, d_lm=300,
                           budget=5_000_000, budget_tolerance=0.10)
        assert len(propose_trials(base, trials=3, sizes=PAPER_SIZES, seed=seed)) == 3

    def test_budget_below_the_d_lm_range_raises_before_drawing(self):
        base = TrainConfig(variant="syl-sum", d_s=50, d_lm=300,
                           budget=1_000_000, budget_tolerance=0.10)
        with pytest.raises(ConfigError, match="d_lm"):
            propose_trials(base, trials=2, sizes=PAPER_SIZES, seed=0)

    def test_impossible_budget_raises(self):
        # d_lm up to 309 passes the cap, but no syl-concat composer fits beside it
        base = TrainConfig(variant="syl-concat", d_s=50, d_hw=300, d_lm=300,
                           budget=4_200_000, budget_tolerance=0.01)
        with pytest.raises(ConfigError, match="no configuration"):
            propose_trials(base, trials=2, sizes=PAPER_SIZES, seed=0, max_draws=200)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_raises(self, monkeypatch, trials):
        # every toy draw fits the wide band, so only the trial count can raise
        import sublm.training as training_mod
        monkeypatch.setattr(training_mod, "sample_dims", lambda rng, cap: (4, 8, 10))
        sizes = ModelSizes(vocab_size=20, subword_vocab_size=15, max_subwords=4)
        with pytest.raises(ConfigError):
            propose_trials(tiny_config(budget=5_000, budget_tolerance=0.99),
                           trials=trials, sizes=sizes, seed=0, max_draws=5)

    def test_end_to_end_tiny_search(self, monkeypatch):
        # isolates the train-and-rank wiring from the paper-scale marginals
        # (those are covered above) by sampling toy dimensions instead
        import sublm.training as training_mod

        def toy_dims(rng, cap):
            return (int(rng.integers(4, 10)), int(rng.integers(8, 16)),
                    int(rng.integers(10, 20)))

        monkeypatch.setattr(training_mod, "sample_dims", toy_dims)
        vocabs, corpus = tiny_data()
        base = tiny_config(max_epochs=1, budget=40_000, budget_tolerance=0.9)
        ranked = random_search(base, trials=3, vocabs=vocabs, corpus=corpus, seed=3)
        assert len(ranked) == 3
        assert ranked[0].val_ppl <= ranked[1].val_ppl <= ranked[2].val_ppl
        assert all(math.isfinite(t.val_ppl) for t in ranked)
        assert len({t.config.seed for t in ranked}) == 3  # independent derived seeds


def run_now(fn, *args):
    """``tensor.later`` run inline: the walk adds its value at once, like any array
    or callable, so the walk keeps no contribution waiting."""
    return fn(*args)


class TestBackwardHelper:
    """The backward walk's weight-gradient GEMMs on ``tensor.later``'s thread."""

    @staticmethod
    def window(variant, precision, softmax):
        """One seeded train-mode window's loss, and its seeded model."""
        vocabs, corpus = tiny_data()
        cfg = tiny_config(variant=variant, precision=precision, dropout=0.5,
                          **VARIANT_DIMS[variant])
        model = build_model(cfg, ModelSizes.from_vocabs(vocabs),
                            rng=np.random.default_rng(0))
        sampled = dict(sampler=LogUniformSampler(vocabs.word_freq),
                       sample_count=sample_count_for(vocabs.word_count, 0.5))
        inputs, targets, _ = next(batch_stream(corpus.streams["train"], 4, 6))
        loss, _ = model.window_nll(inputs, targets, corpus, model.zero_state(4),
                                   mode="train", rng=np.random.default_rng(1),
                                   **(sampled if softmax == "sampled" else {}))
        return loss, model

    def two_passes(self, *args):
        """Every gradient after one backward of the window, and after a second."""
        loss, model = self.window(*args)
        T.backward(loss)
        once = {name: p.grad.copy() for name, p in model.params.items()}
        T.backward(loss)
        return once, {name: p.grad for name, p in model.params.items()}

    @pytest.mark.parametrize("softmax", ["full", "sampled"])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", list(VARIANT_DIMS))
    def test_gradients_are_bitwise_those_of_the_inline_walk(self, monkeypatch, variant,
                                                            precision, softmax):
        threads = set()
        helper = T.later

        def on_helper(fn, *args):
            def task():
                threads.add(threading.get_ident())
                return fn(*args)
            return helper(task)

        monkeypatch.setattr(T, "later", on_helper)
        once, twice = self.two_passes(variant, precision, softmax)
        assert threads and threading.get_ident() not in threads
        monkeypatch.setattr(T, "later", run_now)
        inline_once, inline_twice = self.two_passes(variant, precision, softmax)
        for name in once:
            assert once[name].tobytes() == inline_once[name].tobytes(), name
            assert twice[name].tobytes() == inline_twice[name].tobytes(), name
            # a second pass adds the same gradients again
            assert twice[name].tobytes() == (once[name] + once[name]).tobytes(), name

    def test_windows_leave_at_most_one_extra_thread(self):
        before = threading.active_count()
        vocabs, corpus = tiny_data()
        model = build_model(tiny_config(), ModelSizes.from_vocabs(vocabs),
                            rng=np.random.default_rng(0))
        windows = list(batch_stream(corpus.streams["train"], 4, 6))
        for k in range(50):
            inputs, targets, _ = windows[k % len(windows)]
            loss, _ = model.window_nll(inputs, targets, corpus, model.zero_state(4),
                                       mode="train", rng=np.random.default_rng(k))
            T.backward(loss)
            for p in model.params.values():
                p.grad = None
        assert threading.active_count() <= before + 1

    def test_no_grad_paths_submit_nothing(self, monkeypatch):
        vocabs, corpus = tiny_data()
        model = build_model(tiny_config(), ModelSizes.from_vocabs(vocabs),
                            rng=np.random.default_rng(0))
        inputs, targets, _ = next(batch_stream(corpus.streams["train"], 4, 6))

        def refuse(fn, *args):
            raise AssertionError("a task was submitted to the backward helper")

        monkeypatch.setattr(T, "later", refuse)
        valid = corpus.streams["valid"]
        evaluate_stream(model, valid, corpus, steps=6, collect_records=True)
        perplexity(model, valid, corpus, steps=6)
        vocabulary_embeddings(model, corpus)
        with T.no_grad():
            model.window_nll(inputs, targets, corpus, model.zero_state(4), mode="eval")
        # the patch is live: a recorded window's backward does submit
        loss, _ = model.window_nll(inputs, targets, corpus, model.zero_state(4),
                                   mode="train", rng=np.random.default_rng(0))
        with pytest.raises(AssertionError, match="submitted"):
            T.backward(loss)
