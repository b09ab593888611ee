import collections
import io
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from sublm import analysis, cli, lm
from sublm import tensor as T
from sublm.checkpoint import Checkpoint
from sublm.cli import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_demo_corpus(tmp_path, rng, sentences=80):
    words = ["paper", "model", "window", "little", "mountain", "river",
             "reading", "table", "garden", "yellow"]
    lines = [" ".join(rng.choice(words, size=6)) for _ in range(sentences)]
    text = "\n".join(lines) + "\n"
    train = tmp_path / "train.txt"
    valid = tmp_path / "valid.txt"
    train.write_text(text)
    valid.write_text(text)
    return train, valid


def write_demo_config(tmp_path, train, valid, **overrides):
    values = dict(variant="syl-sum", d_s=8, d_lm=10, batch_size=4, bptt=5,
                  max_epochs=2, dropout=0.0, seed=1, mode="chars",
                  train=str(train), valid=str(valid))
    values.update(overrides)
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return cfg


class TestSyllabify:
    def test_paper_example(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("unconstitutional\n"))
        assert run(["syllabify"]) == 0
        assert capsys.readouterr().out == "un-con-sti-tu-tional\n"

    def test_char_mode(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("cat dog\n"))
        assert run(["syllabify", "--mode", "chars"]) == 0
        assert capsys.readouterr().out == "c-a-t d-o-g\n"

    def test_external_mode(self, capsys, monkeypatch, tmp_path):
        overrides = tmp_path / "seg.tsv"
        overrides.write_text("unconstitutional\tun constitution al\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("unconstitutional\n"))
        assert run(["syllabify", "--mode", "external",
                    "--overrides", str(overrides)]) == 0
        assert capsys.readouterr().out == "un-constitution-al\n"

    def test_missing_pattern_file(self, capsys):
        assert run(["syllabify", "--patterns", "/does/not/exist.pat"]) == 3


class TestUnusedSegmentationFlags:
    """A segmentation path the mode would ignore exits 4 before any file is read."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        calls = []
        read = cli.read_text
        monkeypatch.setattr(cli, "read_text", lambda path: calls.append(path) or read(path))
        return calls

    @pytest.mark.parametrize("flags,key", [
        (["--mode", "liang", "--overrides", "OVERRIDES"], "overrides"),
        (["--mode", "chars", "--overrides", "OVERRIDES"], "overrides"),
        (["--mode", "chars", "--patterns", "/does/not/exist.pat"], "patterns"),
        (["--mode", "chars", "--exceptions", "/does/not/exist.exc"], "exceptions"),
        (["--mode", "liang", "--exceptions", "/does/not/exist.exc"], "exceptions"),
        (["--mode", "external", "--overrides", "OVERRIDES",
          "--exceptions", "/does/not/exist.exc"], "exceptions"),
    ], ids=["overrides-in-liang", "overrides-in-chars", "patterns-in-chars",
            "exceptions-in-chars", "exceptions-without-patterns",
            "exceptions-without-patterns-external"])
    def test_syllabify_exits_4(self, tmp_path, capsys, monkeypatch, reads, flags, key):
        overrides = tmp_path / "seg.tsv"
        overrides.write_text("table\tt able\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("table\n"))
        argv = ["syllabify"] + [str(overrides) if f == "OVERRIDES" else f for f in flags]
        assert run(argv) == 4
        errors = error_lines(capsys)
        assert errors and f"--{key}" in errors[0] and f"'{key}'" in errors[0]
        assert not reads

    def test_build_vocab_exits_4(self, tmp_path, rng, capsys, reads):
        train_f, _ = write_demo_corpus(tmp_path, rng)
        assert run(["build-vocab", "--corpus", str(train_f), "--mode", "chars",
                    "--patterns", "/does/not/exist.pat", "--out", str(tmp_path / "v")]) == 4
        assert "--patterns" in error_lines(capsys)[0]
        assert not reads and not (tmp_path / "v").exists()

    def test_config_key_exits_4(self, tmp_path, rng, capsys, reads):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, exceptions="/does/not/exist.exc")
        assert run(["params", "--config", str(cfg)]) == 4
        assert "'exceptions'" in error_lines(capsys)[0]
        assert reads == [str(cfg)]  # the config file alone


class TestParams:
    def test_shipped_5m_config(self, capsys):
        cfg = os.path.join(REPO, "configs", "syl-concat-5m.cfg")
        assert run(["params", "--config", cfg]) == 0
        count = int(capsys.readouterr().out.split("\t")[1])
        assert abs(count - 5e6) < 0.1 * 5e6

    def test_shipped_13m_config(self, capsys):
        cfg = os.path.join(REPO, "configs", "syl-concat-13m.cfg")
        assert run(["params", "--config", cfg]) == 0
        count = int(capsys.readouterr().out.split("\t")[1])
        assert abs(count - 13e6) < 0.1 * 13e6

    @pytest.mark.parametrize("name, count", [("lstm-word-5m", 5302000),
                                             ("syl-concat-13m", 13323893),
                                             ("syl-concat-5m", 5233900)])
    def test_shipped_config_counts_are_pinned(self, capsys, name, count):
        # a change to any model build that moves a bundled config's size shows here
        cfg = os.path.join(REPO, "configs", f"{name}.cfg")
        assert run(["params", "--config", cfg]) == 0
        assert capsys.readouterr().out == f"params\t{count}\n"

    @pytest.mark.parametrize("variant, code", [("syl-concat", 4), ("word-direct", 0)])
    def test_without_max_subwords(self, tmp_path, capsys, variant, code):
        cfg = tmp_path / "no-n.cfg"
        cfg.write_text(f"variant = {variant}\nd_s = 50\nd_w = 50\nd_hw = 300\n"
                       "d_lm = 300\nvocab_size = 10000\nsubword_vocab_size = 6000\n")
        assert run(["params", "--config", str(cfg)]) == code
        if code:
            assert "max_subwords" in error_lines(capsys)[0]

    def test_data_outranks_the_size_keys(self, tmp_path, rng, capsys):
        # params counts the model train builds from the corpus vocabulary
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        assert run(["params", "--config", str(cfg)]) == 0
        count = int(capsys.readouterr().out.split("\t")[1])
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1,
                                vocab_size=10000, subword_vocab_size=6000, max_subwords=8,
                                budget=count, budget_tolerance=0.001)
        assert run(["params", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == f"params\t{count}\n"
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 0

    @pytest.mark.parametrize("key, value", [("d_lm", "1e30"), ("d_hw", "99999999999")])
    def test_oversized_dimension_exits_4(self, tmp_path, capsys, key, value):
        # numpy cannot index such a parameter, not even as a zero-stride view
        with open(os.path.join(REPO, "configs", "syl-concat-5m.cfg")) as f:
            text = f.read()
        assert f"\n{key} = 300\n" in text
        cfg = tmp_path / "oversized.cfg"
        cfg.write_text(text.replace(f"\n{key} = 300\n", f"\n{key} = {value}\n"))
        assert run(["params", "--config", str(cfg)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "parameter of shape" in lines[0] and "Traceback" not in lines[0]

    def test_size_keys_without_data_need_both_vocabulary_sizes(self, tmp_path, capsys):
        cfg = tmp_path / "no-subwords.cfg"
        cfg.write_text("variant = word-direct\nd_w = 50\nd_lm = 300\nvocab_size = 10000\n")
        assert run(["params", "--config", str(cfg)]) == 4
        errors = error_lines(capsys)
        assert errors and "subword_vocab_size" in errors[0]

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("variant = syl-sum\nwhat = ever\n")
        assert run(["params", "--config", str(bad)]) == 4

    def test_unknown_variant_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "bpe.cfg"
        cfg.write_text("variant = syl-bpe\nd_s = 50\nd_lm = 300\nvocab_size = 10000\n"
                       "subword_vocab_size = 6000\nmax_subwords = 8\n")
        assert run(["params", "--config", str(cfg)]) == 4
        errors = error_lines(capsys)
        assert errors and "unknown composition variant 'syl-bpe'" in errors[0]


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["syllabify", "--frob"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["train"]) == 2


class TestPipeline:
    @pytest.fixture()
    def trained(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 2  # one line per epoch
        for line in out.strip().split("\n"):
            fields = line.split("\t")
            assert len(fields) == 4
        return tmp_path, cfg, ckpt, train_f, valid_f

    def test_build_vocab(self, tmp_path, rng, capsys):
        train_f, _ = write_demo_corpus(tmp_path, rng)
        out_dir = tmp_path / "vocab"
        assert run(["build-vocab", "--corpus", str(train_f), "--mode", "chars",
                    "--out", str(out_dir)]) == 0
        summary = dict(line.split("\t") for line in
                       capsys.readouterr().out.strip().split("\n"))
        assert int(summary["words"]) == 12  # 10 words + <eos> + <unk>
        assert (out_dir / "words.tsv").exists()
        assert (out_dir / "subwords.tsv").exists()

    def test_train_eval_roundtrip(self, trained, capsys):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        assert run(["eval", "--checkpoint", str(ckpt),
                    "--corpus", str(valid_f)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ppl\t")
        assert float(out.split("\t")[1]) > 1.0

    def test_eval_determinism(self, trained, capsys):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        outs = []
        for _ in range(2):
            assert run(["eval", "--checkpoint", str(ckpt),
                        "--corpus", str(valid_f)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_eval_with_wrong_vocab_fails(self, trained, rng, capsys):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        # retrain the vocabulary on a different corpus into the config's path
        other = tmp_path / "other.txt"
        other.write_text("completely different words here\n" * 30)
        train_f.write_text(other.read_text())
        assert run(["eval", "--checkpoint", str(ckpt),
                    "--corpus", str(valid_f)]) == 5

    def test_missing_corpus_file(self, trained, capsys):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        assert run(["eval", "--checkpoint", str(ckpt),
                    "--corpus", str(tmp_path / "nope.txt")]) == 3

    def test_directory_as_corpus_exits_3(self, trained, capsys):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(ckpt), "--corpus", str(tmp_path)]) == 3
        assert error_lines(capsys)

    def test_analyze_two_models(self, trained, capsys):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        ckpt2 = tmp_path / "model2.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt2),
                    "--seed", "9"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--checkpoint",
                    str(ckpt2), "--corpus", str(valid_f),
                    "--out", str(out_dir)]) == 0
        produced = sorted(os.listdir(out_dir))
        assert "report.tsv" in produced
        assert "shared_errors.tsv" in produced
        assert "freq_ppl.tsv" in produced
        assert "pca.tsv" in produced
        assert "records_model.tsv" in produced and "records_model2.tsv" in produced
        shared = (out_dir / "shared_errors.tsv").read_text().strip().split("\n")
        assert shared[0].startswith("p_star\t")
        assert len(shared) == 7  # header + default 6-point grid

    def test_analyze_scores_each_model_once(self, trained, capsys, monkeypatch):
        tmp_path, cfg, ckpt, train_f, valid_f = trained
        ckpt2 = tmp_path / "copy.ckpt"
        shutil.copy(ckpt, ckpt2)
        original = lm.evaluate_stream
        calls = collections.Counter()

        def counting(model, *args, **kwargs):
            calls[id(model)] += 1
            return original(model, *args, **kwargs)

        # under every name the analyze verb could call it by
        monkeypatch.setattr(lm, "evaluate_stream", counting)
        monkeypatch.setattr(cli, "evaluate_stream", counting, raising=False)
        monkeypatch.setattr(analysis, "evaluate_stream", counting, raising=False)
        assert run(["analyze", "--checkpoint", str(ckpt), "--checkpoint", str(ckpt2),
                    "--corpus", str(valid_f), "--out", str(tmp_path / "reports")]) == 0
        assert sorted(calls.values()) == [1, 1]

    def test_tune_emits_ranked_table(self, tmp_path, rng, capsys, monkeypatch):
        import sublm.training as training_mod
        monkeypatch.setattr(training_mod, "sample_dims",
                            lambda r, cap: (int(r.integers(4, 8)), int(r.integers(8, 12)),
                                       int(r.integers(9, 14))))
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1)
        assert run(["tune", "--config", str(cfg), "--budget", "30000",
                    "--tolerance", "0.9", "--trials", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "rank\td_s\td_hw\tout_dim\td_lm\tparams\tval_ppl\tseed"
        assert len(out) == 3
        ppls = [float(line.split("\t")[6]) for line in out[1:]]
        assert ppls == sorted(ppls)


@pytest.fixture()
def one_epoch(tmp_path, rng, capsys):
    """A checkpoint trained for one epoch on the demo corpus, and its valid file."""
    train_f, valid_f = write_demo_corpus(tmp_path, rng)
    cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1)
    ckpt = tmp_path / "model.ckpt"
    assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    return ckpt, valid_f


class TestWindowSizes:
    """Window sizes and streams no window fits: exit 4 with an error line."""

    def test_eval_nonpositive_steps(self, one_epoch, capsys):
        ckpt, valid_f = one_epoch
        assert run(["eval", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                    "--steps", "-3"]) == 4
        assert error_lines(capsys)

    def test_analyze_nonpositive_steps(self, one_epoch, tmp_path, capsys):
        ckpt, valid_f = one_epoch
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                    "--out", str(out_dir), "--steps", "-2"]) == 4
        assert error_lines(capsys)
        assert not out_dir.exists()

    def test_eval_blank_corpus(self, one_epoch, tmp_path, capsys):
        ckpt, _ = one_epoch
        blank = tmp_path / "blank.txt"
        blank.write_text("\n\n")
        assert run(["eval", "--checkpoint", str(ckpt), "--corpus", str(blank)]) == 4
        assert error_lines(capsys)

    def test_train_empty_valid(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        valid_f.write_text("")
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        assert error_lines(capsys)
        assert not ckpt.exists()

    def test_train_empty_valid_fails_before_training(self, tmp_path, rng, capsys,
                                                      monkeypatch):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        valid_f.write_text("")
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1)
        windows = []
        original = lm.LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            windows.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(lm.LanguageModel, "window_nll", window_nll)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        assert error_lines(capsys)
        assert windows == [] and not ckpt.exists()

    def test_train_corpus_shorter_than_one_batch(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        train_f.write_text("paper model\n")  # 3 tokens, batch 4 x (bptt 5 + 1) needed
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        assert error_lines(capsys)
        assert not ckpt.exists()


class TestTestSplit:
    """The config's ``test`` corpus: checked before training, scored after it."""

    def test_train_prints_the_best_checkpoints_test_ppl(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        test_f = tmp_path / "test.txt"
        test_f.write_text("paper model window\nriver garden yellow table\n")
        cfg = write_demo_config(tmp_path, train_f, valid_f, test=str(test_f))
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) == 2  # epoch lines only
        (line,) = [l for l in captured.err.splitlines() if l.startswith("test_ppl\t")]
        # the same figure `sublm eval` gives on the test corpus at the bptt window
        assert run(["eval", "--checkpoint", str(ckpt), "--corpus", str(test_f)]) == 0
        assert line.split("\t")[1] == capsys.readouterr().out.strip().split("\t")[1]

    @pytest.mark.parametrize("test_text,code", [(None, 3), ("", 4)],
                             ids=["missing", "empty"])
    def test_unusable_test_corpus_fails_before_training(self, tmp_path, rng, capsys,
                                                        monkeypatch, test_text, code):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        test_f = tmp_path / "test.txt"
        if test_text is not None:
            test_f.write_text(test_text)
        cfg = write_demo_config(tmp_path, train_f, valid_f, test=str(test_f))
        windows = []
        original = lm.LanguageModel.window_nll

        def window_nll(self, *args, **kwargs):
            windows.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(lm.LanguageModel, "window_nll", window_nll)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == code
        assert error_lines(capsys)
        assert windows == [] and not ckpt.exists()


class TestAnalyzeFlags:
    """Flags are checked before any checkpoint loads or output is written."""

    @pytest.mark.parametrize("flag,value", [
        ("--pca-thresholds", "0.8,abc"), ("--pca-thresholds", "1.5"),
        ("--freq-bins", "5,1"), ("--freq-bins", "5"), ("--freq-bins", "1,x"),
        ("--p-star-grid", "0.1,abc"),
    ], ids=["pca-not-a-number", "pca-above-one", "bins-decreasing", "bins-single-edge",
            "bins-not-an-int", "p-star-not-a-number"])
    def test_malformed_value_exits_2(self, one_epoch, tmp_path, capsys, flag, value):
        ckpt, valid_f = one_epoch
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                    "--out", str(out_dir), flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_value_exits_2_before_loading(self, tmp_path, capsys):
        # the checkpoint does not exist, so loading it would exit 3
        assert run(["analyze", "--checkpoint", str(tmp_path / "none.ckpt"),
                    "--corpus", str(tmp_path / "none.txt"), "--out", str(tmp_path),
                    "--pca-thresholds", "1.5"]) == 2

    @pytest.mark.parametrize("second", ["other/model.ckpt", "model.ckpt"],
                             ids=["same-file-name", "same-path"])
    def test_checkpoints_sharing_a_model_name_exit_4(self, one_epoch, tmp_path, capsys,
                                                      monkeypatch, second):
        # reports are named after each checkpoint's file name without extension
        ckpt, valid_f = one_epoch
        (tmp_path / "other").mkdir()
        shutil.copy(ckpt, tmp_path / "other" / "model.ckpt")
        loads = []
        monkeypatch.setattr(cli, "_load_model", lambda path: loads.append(path))
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--checkpoint",
                    str(tmp_path / second), "--corpus", str(valid_f),
                    "--out", str(out_dir)]) == 4
        errors = error_lines(capsys)
        assert errors and "'model'" in errors[0]
        assert loads == [] and not out_dir.exists()

    def test_bins_missing_a_token_frequency_exit_4(self, one_epoch, tmp_path, capsys):
        # every demo word occurs far more than 10 times in training
        ckpt, valid_f = one_epoch
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                    "--out", str(out_dir), "--freq-bins", "5,10"]) == 4
        errors = error_lines(capsys)
        assert errors and "--freq-bins" in errors[0]
        assert not out_dir.exists()


class TestAnalyzeDegenerateModels:
    """Reports of models at numeric edge cases: written, or exit 4."""

    @staticmethod
    def rewrite(ckpt, suffix, change):
        loaded = Checkpoint.load(ckpt)
        (name,) = [n for n in loaded.arrays if n.endswith(suffix)]
        loaded.arrays[name] = change(loaded.arrays[name])
        loaded.save(ckpt)

    def test_zero_target_probability_reads_inf(self, one_epoch, tmp_path, capsys):
        # output weights this large underflow some target probabilities to 0
        ckpt, valid_f = one_epoch
        self.rewrite(ckpt, "w_out", lambda w: w * 1e6)
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                    "--out", str(out_dir)]) == 0
        probs = [float(line.split("\t")[2]) for line in
                 (out_dir / "records_model.tsv").read_text().splitlines()[1:]]
        assert min(probs) == 0.0
        rows = (out_dir / "freq_ppl.tsv").read_text().splitlines()[1:]
        assert any(row.endswith("\tinf") for row in rows)

    def test_one_dimensional_embeddings(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, variant="word-direct",
                                d_s=0, d_w=1, max_epochs=1)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        out_dir = tmp_path / "reports"
        analyze = ["analyze", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                   "--out", str(out_dir)]
        assert run(analyze) == 0
        assert (out_dir / "pca.tsv").read_text().splitlines()[1] == "model\t1\t1\t1\t1"
        capsys.readouterr()
        self.rewrite(ckpt, "e_w", lambda e: np.full_like(e, 0.25))
        assert run(analyze) == 4
        errors = error_lines(capsys)
        assert errors and "varies" in errors[0]

    def test_failed_pca_writes_no_report(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, variant="word-direct",
                                d_s=0, d_w=2, max_epochs=1)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        self.rewrite(ckpt, "e_w", lambda e: np.full_like(e, 0.25))
        capsys.readouterr()
        out_dir = tmp_path / "reports"
        assert run(["analyze", "--checkpoint", str(ckpt), "--corpus", str(valid_f),
                    "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert "varies" in captured.err and captured.out == ""
        assert not out_dir.exists()


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error: ")]


class TestInputErrors:
    def test_directory_as_checkpoint_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "eval.txt"
        corpus.write_text("a b\n")
        assert run(["eval", "--checkpoint", str(tmp_path), "--corpus", str(corpus)]) == 3
        assert error_lines(capsys)

    @pytest.mark.parametrize("argv", [
        ["build-vocab", "--mode", "chars", "--out", "OUT", "--corpus"],
        ["params", "--config"],
        ["syllabify", "--patterns"],
    ], ids=["corpus", "config", "patterns"])
    def test_text_file_that_is_not_utf8_exits_3(self, tmp_path, capsys, argv):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("caf\u00e9 = 1\n".encode("latin-1"))
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
        assert run(argv + [str(latin1)]) == 3
        errors = error_lines(capsys)
        assert len(errors) == 1 and "UTF-8" in errors[0] and str(latin1) in errors[0]

    @pytest.mark.parametrize("field", [0, 2], ids=["id", "freq"])
    def test_malformed_vocab_field_exits_4(self, tmp_path, rng, capsys, field):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        vocab_dir = tmp_path / "vocab"
        assert run(["build-vocab", "--corpus", str(train_f), "--mode", "chars",
                    "--out", str(vocab_dir)]) == 0
        words = vocab_dir / "words.tsv"
        lines = words.read_text().splitlines()
        fields = lines[2].split("\t")
        fields[field] = "x"
        lines[2] = "\t".join(fields)
        words.write_text("\n".join(lines) + "\n")
        cfg = write_demo_config(tmp_path, train_f, valid_f, vocab_dir=str(vocab_dir))
        capsys.readouterr()
        assert run(["params", "--config", str(cfg)]) == 4
        errors = error_lines(capsys)
        assert errors and "line 3" in errors[0]

    def test_word_listed_twice_exits_4(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        vocab_dir = tmp_path / "vocab"
        assert run(["build-vocab", "--corpus", str(train_f), "--mode", "chars",
                    "--out", str(vocab_dir)]) == 0
        words = vocab_dir / "words.tsv"
        lines = words.read_text().splitlines()
        token = lines[2].split("\t")[1]
        lines[3] = "\t".join(["3", token, "1"])
        words.write_text("\n".join(lines) + "\n")
        cfg = write_demo_config(tmp_path, train_f, valid_f, vocab_dir=str(vocab_dir))
        capsys.readouterr()
        assert run(["params", "--config", str(cfg)]) == 4
        errors = error_lines(capsys)
        assert errors and f"line 4: token {token!r}" in errors[0]


class TestOutOfRangeKeys:
    @pytest.mark.parametrize("key,value", [
        ("highway_layers", -1), ("sample_fraction", -0.5), ("sample_fraction", 0),
    ], ids=["negative-highway-layers", "negative-sample-fraction", "zero-sample-fraction"])
    def test_params_exits_4(self, tmp_path, rng, capsys, key, value):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, **{key: value})
        assert run(["params", "--config", str(cfg)]) == 4
        errors = error_lines(capsys)
        assert errors and key in errors[0]


    @pytest.mark.parametrize("key,value", [("lr", "nan"), ("clip_norm", "inf")])
    def test_train_non_finite_float_exits_4(self, tmp_path, rng, capsys, key, value):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, **{key: value})
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        errors = error_lines(capsys)
        assert errors and key in errors[0]
        assert not ckpt.exists()

    def test_train_negative_budget_exits_4(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, budget=-5)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        errors = error_lines(capsys)
        assert errors and "budget must be non-negative" in errors[0]
        assert not ckpt.exists()

    def test_train_sampling_the_whole_vocabulary_exits_4(self, tmp_path, rng, capsys):
        # the demo vocabulary has 12 words, and a sampled softmax needs fewer
        # negatives than that
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f, softmax="sampled",
                                sample_fraction=1.0)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        errors = error_lines(capsys)
        assert errors and "sample_fraction" in errors[0]
        assert not ckpt.exists()


class TestBudgetMiss:
    def test_train_over_budget_exits_6(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        assert run(["params", "--config", str(cfg)]) == 0
        count = int(capsys.readouterr().out.split("\t")[1])
        cfg = write_demo_config(tmp_path, train_f, valid_f, budget=100, budget_tolerance=0.05)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 6
        errors = error_lines(capsys)
        assert errors and f"model has {count} parameters" in errors[0]
        assert "[95, 105]" in errors[0]
        assert not ckpt.exists()


class TestTuneBudget:
    """tune searches under the config's budget; --budget only overrides it."""

    @pytest.fixture()
    def draws(self, monkeypatch):
        import sublm.training as training_mod
        calls = []

        def toy_dims(r, cap):
            calls.append(1)
            return int(r.integers(4, 8)), int(r.integers(8, 12)), int(r.integers(9, 14))

        monkeypatch.setattr(training_mod, "sample_dims", toy_dims)
        return calls

    def test_budget_comes_from_the_config(self, tmp_path, rng, capsys, draws):
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1,
                                budget=2500, budget_tolerance=0.3)
        assert run(["tune", "--config", str(cfg), "--trials", "2"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(1750 <= int(row.split("\t")[5]) <= 3250 for row in rows)

    def test_zero_budget_exits_4_before_any_draw(self, tmp_path, rng, capsys, draws):
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1,
                                budget=2500, budget_tolerance=0.3)
        assert run(["tune", "--config", str(cfg), "--budget", "0", "--trials", "2"]) == 4
        errors = error_lines(capsys)
        assert errors and "budget" in errors[0]
        assert not draws

    def test_negative_seed_exits_4_before_any_draw(self, tmp_path, rng, capsys, draws):
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1,
                                budget=2500, budget_tolerance=0.3)
        assert run(["tune", "--config", str(cfg), "--seed", "-1", "--trials", "2"]) == 4
        errors = error_lines(capsys)
        assert errors and "seed" in errors[0]
        assert not draws

    def test_base_config_error_is_reported_as_itself(self, tmp_path, rng, capsys):
        # syl-lstm needs d_w, which the search does not draw
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f, max_epochs=1,
                                variant="syl-lstm")
        assert run(["tune", "--config", str(cfg), "--budget", "5000000",
                    "--trials", "2"]) == 4
        errors = error_lines(capsys)
        assert errors and "d_w" in errors[0]


class TestNegativeSeed:
    def test_train_flag_exits_4(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt), "--seed", "-1"]) == 4
        errors = error_lines(capsys)
        assert errors and "seed" in errors[0]
        assert not ckpt.exists()

    def test_config_key_exits_4(self, tmp_path, rng, capsys):
        train_f, valid_f = write_demo_corpus(tmp_path, rng, sentences=40)
        cfg = write_demo_config(tmp_path, train_f, valid_f, seed=-2)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        errors = error_lines(capsys)
        assert errors and "seed" in errors[0]
        assert not ckpt.exists()


class TestDivergence:
    def test_nan_from_the_first_window_exits_7(self, tmp_path, rng, capsys,
                                                monkeypatch):
        original = lm.LanguageModel.window_nll

        def nan_window_nll(self, *args, **kwargs):
            loss, state = original(self, *args, **kwargs)
            return T.mul_scalar(loss, float("nan")), state

        monkeypatch.setattr(lm.LanguageModel, "window_nll", nan_window_nll)
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 7
        assert error_lines(capsys)
        assert not ckpt.exists()


OUT_OF_MEMORY = MemoryError("Unable to allocate 3.00 GiB for an array with shape "
                            "(20, 10, 2013265920) and data type float64")


def _raise_out_of_memory(*args, **kwargs):
    raise OUT_OF_MEMORY


class TestOutOfMemory:
    """A MemoryError exits 4 with one error line; each op is patched to raise
    it, so nothing large is allocated."""

    def assert_one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            f"error: out of memory: {OUT_OF_MEMORY}"]
        assert "Traceback" not in err

    def test_train_window(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.setattr(T, "output_nll", _raise_out_of_memory)
        train_f, valid_f = write_demo_corpus(tmp_path, rng)
        cfg = write_demo_config(tmp_path, train_f, valid_f)
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--config", str(cfg), "--out", str(ckpt)]) == 4
        self.assert_one_error_line(capsys)
        assert not ckpt.exists()

    def test_params_build(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_model", _raise_out_of_memory)
        cfg = os.path.join(REPO, "configs", "syl-concat-5m.cfg")
        assert run(["params", "--config", cfg]) == 4
        self.assert_one_error_line(capsys)


def _cut_header(data):
    (header_len,) = struct.unpack("<I", data[4:8])
    return data[:8 + header_len // 2]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", [
        lambda data: b"NOPE" + data[4:],
        _cut_header,
        lambda data: data[:-8],  # the last array's data ends the file
    ], ids=["bad-magic", "header-cut", "array-cut"])
    def test_eval_exits_4_with_error_line(self, tmp_path, capsys, corrupt):
        path = tmp_path / "m.ckpt"
        Checkpoint(config={}, vocab_hashes={}, epoch=0, best_val_ppl=1.0,
                   arrays={"w": np.zeros((3, 4))}).save(path)
        path.write_bytes(corrupt(path.read_bytes()))
        corpus = tmp_path / "eval.txt"
        corpus.write_text("a b\n")
        assert run(["eval", "--checkpoint", str(path), "--corpus", str(corpus)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: ") for line in err)

    def test_shape_numpy_cannot_make_exits_4(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        Checkpoint(config={}, vocab_hashes={}, epoch=0, best_val_ppl=1.0,
                   arrays={"w": np.zeros((0, 4))}).save(path)
        # the file ends in the dims of its one zero-size array: make the last one huge
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<Q", 2 ** 64 - 1))
        corpus = tmp_path / "eval.txt"
        corpus.write_text("a b\n")
        assert run(["eval", "--checkpoint", str(path), "--corpus", str(corpus)]) == 4
        assert error_lines(capsys) == [f"error: {path}: malformed checkpoint "
                                       "(ValueError('Maximum allowed dimension exceeded'))"]

    @pytest.mark.parametrize("config, key", [
        (["variant"], "mapping"), ({"lr": "fast"}, "'lr'"), ({"seed": None}, "'seed'"),
    ], ids=["not-a-mapping", "str-for-float", "null-for-int"])
    def test_malformed_config_exits_4(self, tmp_path, capsys, config, key):
        path = tmp_path / "m.ckpt"
        Checkpoint(config=config, vocab_hashes={}, epoch=1, best_val_ppl=1.0,
                   arrays={"w": np.zeros((3, 4))}).save(path)
        corpus = tmp_path / "eval.txt"
        corpus.write_text("a b\n")
        assert run(["eval", "--checkpoint", str(path), "--corpus", str(corpus)]) == 4
        errors = error_lines(capsys)
        assert len(errors) == 1 and key in errors[0]


class TestSubprocess:
    def test_console_entry_point(self):
        # the child imports sublm from this checkout, as pytest itself does
        path = os.pathsep.join(filter(None, [os.path.join(REPO, "src"),
                                             os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "sublm.cli", "syllabify"],
            input="unconstitutional conditions\n",
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0
        assert result.stdout == "un-con-sti-tu-tional con-di-tions\n"
