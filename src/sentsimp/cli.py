"""Command-line entry point: train, simplify, evaluate, kb-check.

Exit codes: 0 success, 1 usage, 2 data error (corpus/KB/config, or an output
path that cannot be written), 3 model error (shapes, checkpoints,
constraints, training).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .corpus import (
    SentencePair,
    build_vocab,
    read_parallel_tokens,
    split_corpus,
    tokenize,
)
from .errors import DATA_ERRORS, ConfigError, IngestionError, SentsimpError
from .lexsub import FrequencyTable, identify_and_substitute, load_kb
from .metrics import EvalTriple, evaluate_corpus, render_csv, render_text
from .model import Seq2SeqModel
from .pipeline import (
    RANGE_CHECKS,
    PipelineConfig,
    SimplifyPipeline,
    echo_config,
    ensure_out_dir,
    parse_config,
)
from .training import train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sentsimp", description="Two-step sentence simplification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train encoder and both decoders")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--source", help="normal sentences, one per line (or a TSV when --target is omitted)")
    p.add_argument("--target", help="simple sentences, one per line")
    p.add_argument("--kb", help="paraphrase rules used for constraint selection")
    p.add_argument("--out-dir", help="directory for checkpoints and logs")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("simplify", help="simplify sentences from a file")
    p.add_argument("--config", help="key = value configuration file; the flags below override it")
    p.add_argument("--model", dest="checkpoint", help="checkpoint path")
    p.add_argument("--kb", help="paraphrase rule TSV")
    p.add_argument("--input", required=True, help="sentences to simplify, one per line")
    p.add_argument("--output", help="write results here instead of stdout")
    p.add_argument("--beam", type=int, help="beam width")
    p.add_argument("--max-constraints", type=int, help="most constraints applied per sentence")
    p.add_argument("--trace", help="write a JSON-lines trace of per-pass outputs here")
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("evaluate", help="score outputs against inputs and references")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--report", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("kb-check", help="validate a KB file and report corpus coverage")
    p.add_argument("--kb", required=True)
    p.add_argument("--source", help="corpus to compute rule coverage over")
    p.set_defaults(func=_cmd_kb_check)
    return parser


def _load_config(args) -> PipelineConfig:
    """The config file (or the defaults) with the given flags applied. A
    flag's dest is its config key, and its value must pass that key's range
    check."""
    config = parse_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        check = RANGE_CHECKS.get(f.name)
        if check is not None and not check(value):
            # every range-checked flag is spelt as its key
            raise ConfigError(f"--{f.name.replace('_', '-')} has out-of-range value {value}")
        overrides[f.name] = value
    return dataclasses.replace(config, **overrides)


def _cmd_train(args) -> int:
    config = _load_config(args)
    if not config.source:
        raise UsageError("train needs --source (or a config with source =)")

    token_pairs, skipped = read_parallel_tokens(config.source, config.target or None)
    for lineno, reason in skipped:
        print(f"skipping line {lineno}: {reason}", file=sys.stderr)
    if not token_pairs:
        raise IngestionError("no usable sentence pairs")

    vocab = build_vocab((s + t for s, t in token_pairs), config.vocab_size)
    pairs = [
        SentencePair(tuple(vocab.encode(s)), tuple(vocab.encode(t))) for s, t in token_pairs
    ]
    if config.valid_size >= len(pairs):
        raise ConfigError(
            f"valid_size {config.valid_size} leaves no training pair: "
            f"the corpus has {len(pairs)} usable pairs"
        )
    split = split_corpus(pairs, config.valid_size, config.seed)

    freq_table = FrequencyTable.from_sequences(
        (s for s, _ in token_pairs), config.complexity_percentile
    )
    kb = load_kb(config.kb) if config.kb else None

    # only once every input has been read, so a data error leaves no out_dir
    out_dir = ensure_out_dir(config)
    echo_config(config, os.path.join(out_dir, "config.echo"))

    # size the output layer to the vocabulary actually built: with a small
    # corpus the configured cap would leave trainable ids no token can render
    model_config = dataclasses.replace(config.model_config(), vocab_size=len(vocab))
    model = Seq2SeqModel.create(model_config, seed=config.seed)
    result = train(split, model, config, vocab, kb=kb, freq_table=freq_table)
    last = result.history[-1]
    print(
        f"trained {config.epochs} epochs on {len(split.train)} pairs: "
        f"train {last.train_loss:.4f}, valid {last.valid_loss:.4f} per token"
    )
    print(f"checkpoints and logs under {out_dir}")
    return 0


def _cmd_simplify(args) -> int:
    config = _load_config(args)
    if not config.checkpoint:
        raise UsageError("simplify needs --model (or a config with checkpoint =)")
    pipeline = SimplifyPipeline.from_config(config)
    try:
        with open(args.input, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestionError(f"cannot read {args.input}: {exc}") from None

    # both sinks open before the first line is decoded, so a path that
    # cannot be written fails at once
    with contextlib.ExitStack() as files:
        sink = files.enter_context(_open_for_writing(args.output)) if args.output else sys.stdout
        trace_sink = files.enter_context(_open_for_writing(args.trace)) if args.trace else None
        results = [pipeline.simplify(line) for line in lines]
        try:
            for text, _ in results:
                sink.write(text + "\n")
            sink.flush()
        except BrokenPipeError:  # the reader stopped early, as `| head -3` does
            _discard_stdout()
        if trace_sink is not None:
            for _, trace in results:
                trace_sink.write(json.dumps(trace) + "\n")
    return 0


def _open_for_writing(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot write {path}: {exc.strerror}") from None


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device, so that flushing
    what is still buffered at exit cannot raise a second BrokenPipeError."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _read_token_lines(path: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [tokenize(line) for line in fh.read().splitlines()]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from None


def _cmd_evaluate(args) -> int:
    inputs = _read_token_lines(args.input)
    outputs = _read_token_lines(args.output)
    references = _read_token_lines(args.reference)
    if not len(inputs) == len(outputs) == len(references):
        raise IngestionError(
            f"row counts differ: {len(inputs)} inputs, {len(outputs)} outputs, "
            f"{len(references)} references"
        )
    triples = []
    for lineno, (i, o, r) in enumerate(zip(inputs, outputs, references), start=1):
        if not (i and o and r):
            raise IngestionError(f"line {lineno}: blank sentence")
        triples.append(EvalTriple(tuple(i), tuple(o), tuple(r)))
    if not triples:
        raise IngestionError("nothing to evaluate")
    report = evaluate_corpus(triples)
    renderer = render_csv if args.report == "csv" else render_text
    sys.stdout.write(renderer(report))
    return 0


def _cmd_kb_check(args) -> int:
    kb = load_kb(args.kb)
    print(f"{len(kb)} rules loaded, {len(kb.rejected)} rows rejected")
    for lineno, reason in kb.rejected:
        print(f"  rejected: {reason}")

    if args.source:
        sentences = [s for s in _read_token_lines(args.source) if s]
        everything_complex = FrequencyTable({}, threshold=float("inf"))
        covered = 0
        matches = 0
        rules_fired = set()
        for sentence in sentences:
            constraints, _ = identify_and_substitute(
                sentence, kb, everything_complex, max_constraints=len(sentence)
            )
            if len(constraints):
                covered += 1
                matches += len(constraints)
                rules_fired.update(c.simple for c in constraints)
        total = max(len(sentences), 1)
        print(
            f"coverage: {covered}/{len(sentences)} sentences "
            f"({100.0 * covered / total:.1f}%), {matches} matches, "
            f"{len(rules_fired)} distinct simple phrases fired"
        )
    return 0 if not kb.rejected else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SentsimpError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
