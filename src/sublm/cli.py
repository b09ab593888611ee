"""Batch command line front end.

Verbs: syllabify, build-vocab, train, eval, tune, analyze, params.  Stdout
carries data (tables, metrics, segmentations); diagnostics go to stderr.
Relative data paths inside a config file resolve against the config file's
directory.  Exit codes: 0 success, 2 usage, 3 missing or unreadable file,
4 malformed config, pattern or checkpoint file, 5 vocabulary mismatch,
6 budget violation, 7 numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .analysis import (default_freq_bins, dump_records, eval_report,
                       pca_component_counts, ppl_by_frequency,
                       records_from_eval, shared_errors_table,
                       vocabulary_embeddings)
from .checkpoint import Checkpoint
from .config import TrainConfig, load_config
from .corpus import (build_vocabs, encode_corpus, load_vocabs, save_vocabs)
from .errors import (BudgetError, ConfigError, NonFiniteGradientError,
                     PatternParseError, VocabMismatchError)
from .lm import perplexity
from .syllabify import Segmenter, load_default_patterns, load_patterns, \
    load_segmentation_overrides
from .training import (ModelSizes, build_model, count_parameters,
                       model_from_checkpoint, random_search, train)

log = logging.getLogger("sublm")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4
EXIT_VOCAB_MISMATCH = 5
EXIT_BUDGET = 6
EXIT_DIVERGED = 7


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def make_segmenter(mode: str, patterns_path: str = "", exceptions_path: str = "",
                   overrides_path: str = "") -> Segmenter:
    patterns = None
    overrides = None
    if mode in ("liang", "external"):
        if patterns_path:
            patterns = load_patterns(_read(patterns_path),
                                     _read(exceptions_path) if exceptions_path else "")
        else:
            patterns = load_default_patterns()
    if overrides_path:
        overrides, rejected = load_segmentation_overrides(_read(overrides_path))
        for lineno, reason in rejected:
            log.warning("%s line %d rejected: %s", overrides_path, lineno, reason)
    if mode == "external" and overrides is None:
        raise ConfigError("external mode needs --overrides (or the overrides config key)")
    return Segmenter(mode, patterns=patterns, overrides=overrides)


def _resolve_config_paths(config: TrainConfig, config_path: str) -> TrainConfig:
    base = os.path.dirname(os.path.abspath(config_path))
    updates = {}
    for key in ("patterns", "exceptions", "overrides", "train", "valid",
                "test", "vocab_dir"):
        value = getattr(config, key)
        if value and not os.path.isabs(value):
            updates[key] = os.path.join(base, value)
    return dataclasses.replace(config, **updates) if updates else config


def _vocabs_for(config: TrainConfig):
    """Config -> vocabularies, loaded from vocab_dir or built from train."""
    seg = make_segmenter(config.mode, config.patterns, config.exceptions,
                         config.overrides)
    if config.vocab_dir:
        return load_vocabs(os.path.join(config.vocab_dir, "words.tsv"),
                           os.path.join(config.vocab_dir, "subwords.tsv"), seg)
    if config.train:
        return build_vocabs(_read(config.train), seg,
                            word_cap=config.word_cap or None)
    raise ConfigError("config needs either vocab_dir or a train corpus")


def _training_data(config: TrainConfig):
    """Config -> (vocabs, corpus with the encoded train and valid streams)."""
    if not config.train:
        raise ConfigError("config key 'train' (training corpus path) is required")
    vocabs = _vocabs_for(config)
    texts = {"train": _read(config.train)}
    if config.valid:
        texts["valid"] = _read(config.valid)
    return vocabs, encode_corpus(texts, vocabs)


def cmd_syllabify(args) -> int:
    seg = make_segmenter(args.mode, args.patterns, args.exceptions, args.overrides)
    for line in sys.stdin:
        tokens = line.split()
        print(" ".join("-".join(seg.segment(tok)) for tok in tokens))
    return EXIT_OK


def cmd_build_vocab(args) -> int:
    seg = make_segmenter(args.mode, args.patterns, args.exceptions, args.overrides)
    vocabs = build_vocabs(_read(args.corpus), seg, word_cap=args.word_cap)
    os.makedirs(args.out, exist_ok=True)
    save_vocabs(vocabs, os.path.join(args.out, "words.tsv"),
                os.path.join(args.out, "subwords.tsv"))
    print(f"words\t{vocabs.word_count}")
    print(f"subwords\t{vocabs.subword_count}")
    print(f"max_subwords\t{vocabs.n}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config_paths(load_config(args.config), args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    vocabs, corpus = _training_data(config)

    log_file = open(args.log, "w", encoding="utf-8") if args.log else None

    def log_line(line: str) -> None:
        print(line, flush=True)
        if log_file:
            log_file.write(line + "\n")

    try:
        ckpt = train(config, vocabs, corpus, log_line=log_line)
    finally:
        if log_file:
            log_file.close()
    if ckpt.epoch == 0:
        print("error: training diverged before any epoch reached a finite "
              "validation perplexity; no checkpoint written", file=sys.stderr)
        return EXIT_DIVERGED
    ckpt.save(args.out)
    print(f"checkpoint\t{args.out}", file=sys.stderr)
    return EXIT_OK


def _load_model(checkpoint_path: str):
    """Checkpoint -> (model, config, vocabs) with hash check."""
    ckpt = Checkpoint.load(checkpoint_path)
    config = TrainConfig.from_dict(ckpt.config)
    vocabs = _vocabs_for(config)
    ckpt.verify_vocabs(vocabs.hashes())
    model, _ = model_from_checkpoint(ckpt, ModelSizes.from_vocabs(vocabs))
    return model, config, vocabs


def cmd_eval(args) -> int:
    model, config, vocabs = _load_model(args.checkpoint)
    corpus = encode_corpus({"eval": _read(args.corpus)}, vocabs)
    steps = args.steps or config.bptt
    ppl = perplexity(model, corpus.streams["eval"], corpus, steps=steps)
    print(f"ppl\t{ppl:.4f}")
    return EXIT_OK


def cmd_params(args) -> int:
    config = _resolve_config_paths(load_config(args.config), args.config)
    if config.vocab_size and config.subword_vocab_size:
        sizes = ModelSizes.from_config(config)
    else:
        sizes = ModelSizes.from_vocabs(_vocabs_for(config))
    count = count_parameters(build_model(config, sizes))
    print(f"params\t{count}")
    return EXIT_OK


def cmd_tune(args) -> int:
    config = _resolve_config_paths(load_config(args.config), args.config)
    vocabs, corpus = _training_data(config)
    ranked = random_search(config, budget=args.budget, trials=args.trials,
                           vocabs=vocabs, corpus=corpus, seed=args.seed,
                           tolerance=args.tolerance,
                           log_line=lambda s: print(s, file=sys.stderr))
    header = "rank\td_s\td_hw\td_lm\tparams\tval_ppl\tseed"
    lines = [header]
    for rank, trial in enumerate(ranked, start=1):
        lines.append(f"{rank}\t{trial.d_s}\t{trial.d_hw}\t{trial.d_lm}"
                     f"\t{trial.param_count}\t{trial.val_ppl:.4f}\t{trial.seed}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table)
    return EXIT_OK


def _list_flag(kind, expected: str, valid=lambda values: True):
    """An argparse type for a comma-separated list; a bad value is a usage error."""
    def parse(text: str) -> list:
        try:
            values = [kind(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = None
        if values is None or not valid(values):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values
    return parse


def cmd_analyze(args) -> int:
    if not args.checkpoint:
        raise ConfigError("analyze needs at least one --checkpoint")
    # each model's reports are named after its file name without extension
    paths = {}
    for path in args.checkpoint:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in paths:
            raise ConfigError(f"--checkpoint {paths[name]} and {path} "
                              f"share the model name {name!r}")
        paths[name] = path
    models = []
    shared_vocabs = None
    corpus = None
    steps = args.steps
    for name, path in paths.items():
        model, config, vocabs = _load_model(path)
        if shared_vocabs is None:
            shared_vocabs = vocabs
            corpus = encode_corpus({"eval": _read(args.corpus)}, vocabs)
            steps = steps or config.bptt
        elif vocabs.hashes() != shared_vocabs.hashes():
            raise VocabMismatchError(
                "checkpoints being compared use different vocabularies")
        models.append((name, model))

    freq_bins = args.freq_bins or default_freq_bins(int(shared_vocabs.word_freq.max()))
    target_freqs = shared_vocabs.word_freq[corpus.streams["eval"][1:]]
    missed = target_freqs[(target_freqs < freq_bins[0]) | (target_freqs >= freq_bins[-1])]
    if missed.size:
        raise ConfigError(f"--freq-bins {freq_bins} miss the training frequency "
                          f"{missed[0]} of an evaluation token")

    rows, text, raw = eval_report(models, [("eval", corpus.streams["eval"])],
                                  corpus, steps=steps)
    all_records = {name: records_from_eval(raw[name, "eval"], shared_vocabs)
                   for name, _ in models}
    os.makedirs(args.out, exist_ok=True)
    for name, records in all_records.items():
        with open(os.path.join(args.out, f"records_{name}.tsv"), "w",
                  encoding="utf-8") as f:
            f.write(dump_records(records))

    with open(os.path.join(args.out, "report.tsv"), "w", encoding="utf-8") as f:
        f.write("model\tsplit\tppl\tparams\ttokens_per_sec\n")
        for row in rows:
            f.write("\t".join(str(v) for v in row) + "\n")
    print(text, end="")

    with open(os.path.join(args.out, "freq_ppl.tsv"), "w", encoding="utf-8") as f:
        f.write("model\tfreq_lo\tfreq_hi\tcount\tppl\n")
        for name, records in all_records.items():
            bins, _ = ppl_by_frequency(records, freq_bins)
            for lo, hi, count, ppl in bins:
                f.write(f"{name}\t{lo}\t{hi}\t{count}\t"
                        f"{'' if ppl is None else f'{ppl:.4f}'}\n")

    with open(os.path.join(args.out, "pca.tsv"), "w", encoding="utf-8") as f:
        f.write("model\t" + "\t".join(f"{t:g}" for t in args.pca_thresholds) + "\n")
        for name, model in models:
            emb = vocabulary_embeddings(model, corpus)
            counts = pca_component_counts(emb, args.pca_thresholds)
            f.write(name + "\t" + "\t".join(str(c) for c in counts) + "\n")

    if len(models) == 2:
        (name_a, _), (name_b, _) = models
        table = shared_errors_table(all_records[name_a], all_records[name_b],
                                    args.p_star_grid)
        with open(os.path.join(args.out, "shared_errors.tsv"), "w",
                  encoding="utf-8") as f:
            f.write("p_star\terr_%s\terr_%s\tfrac_shared\n" % (name_a, name_b))
            for p_star, err_a, err_b, frac in table:
                f.write(f"{p_star:g}\t{err_a:.6f}\t{err_b:.6f}\t{frac:.6f}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublm",
        description="Subword-aware neural language modeling toolkit.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_segmentation_flags(p):
        p.add_argument("--mode", choices=["liang", "chars", "external"],
                       default="liang")
        p.add_argument("--patterns", default="", help="TeX-style pattern file "
                       "(default: bundled English patterns)")
        p.add_argument("--exceptions", default="", help="hyphenation exceptions file")
        p.add_argument("--overrides", default="", help="word<TAB>parts segmentation file")

    p = sub.add_parser("syllabify", help="segment words from stdin to stdout")
    add_segmentation_flags(p)
    p.set_defaults(func=cmd_syllabify)

    p = sub.add_parser("build-vocab", help="build word and subword vocabularies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--word-cap", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    add_segmentation_flags(p)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default="", help="also write epoch lines here")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="perplexity of a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=int, default=0, help="evaluation window")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("params", help="parameter count of a config, no training")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("tune", help="random hyperparameter search under a budget")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="also write the ranked table here")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("analyze", help="model-comparison reports")
    p.add_argument("--checkpoint", action="append", default=[],
                   help="repeat for pairwise comparisons")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--p-star-grid", default="0.001,0.01,0.05,0.1,0.2,0.5",
                   type=_list_flag(float, "comma-separated numbers"))
    p.add_argument("--freq-bins", default="", help="comma-separated bin edges",
                   type=_list_flag(int, "two or more increasing integer bin edges",
                                   lambda v: not v or (len(v) > 1 and sorted(v) == v)))
    p.add_argument("--pca-thresholds", default="0.8,0.9,0.95,0.99",
                   type=_list_flag(float, "comma-separated fractions in (0, 1)",
                                   lambda v: all(0.0 < t < 1.0 for t in v)))
    p.set_defaults(func=cmd_analyze)
    return parser


def run(argv) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as err:
        reason = ("missing file" if isinstance(err, FileNotFoundError)
                  else err.strerror or "unreadable file")
        print(f"error: {reason}: {err.filename or err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ConfigError, PatternParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(err, BudgetError) else EXIT_BAD_CONFIG
    except VocabMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VOCAB_MISMATCH
    except NonFiniteGradientError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
