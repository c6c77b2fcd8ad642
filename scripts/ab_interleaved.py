#!/usr/bin/env python3
"""Interleaved A/B timing of two checkouts' packages in one process.

    python3 scripts/ab_interleaved.py OLD NEW --workload score --seed 1 --units 400
    python3 scripts/ab_interleaved.py OLD NEW --workload simplify --seed 1 --units 300 \\
        --checkpoint path/to/epoch0003.ckpt
    python3 scripts/ab_interleaved.py OLD NEW --workload train --seed 1 --units 480 [--grad-rtol R]

OLD and NEW are checkout roots. Each one's src/sentsimp is copied into a
temporary directory under its own package name, so both load side by side.
The units are built by OLD's perfbench/inputs.py (read as a file, its
sentsimp imports bound to OLD's copy), so a change in NEW cannot change the
work. A unit is a block of score rows (lexical substitution over a large KB,
then evaluate_corpus, as in perfbench's score workload), one held-out line
simplified at beam 5 with up to 3 constraints (simplify needs a checkpoint
that both trees can load, such as the one perfbench's simplify-beam5
preparation caches: `python3 perfbench/run.py --workload simplify-beam5
--seed 1 --seconds 5` leaves it at
`.perfbench_work/cache/simplify-1-<key>/epoch0003.ckpt`), or one taped
training pair: `training_loss` and `Tape.backward` on perfbench's
train-desk pairs, each side with a model made as `sentsimp train` makes it
from OLD's configs/desk.cfg (E64/H128, its seed), whose parameters never
change. Each unit runs on both sides in turn, the side that goes first
flipping every unit, and the two outputs must be equal: a train unit's loss
and every gradient byte for byte; a simplify unit's output text, each
pass's output ids, block position and stop reasons, and its constraint
accounting (its trace but for the log-probs). A change
that only rounds apart can still be timed on train: with --grad-rtol R > 0,
a unit passes when its loss and each gradient lie within R times that
array's largest |entry| on OLD's side of OLD's array, and the script prints
the largest such relative deviation it saw.

Prints the total-time ratio NEW / OLD and the median per-unit ratio, and for
simplify the largest |log-prob difference| of any pass's stage, which a
change in summation order can move in the last bits. Both sides share the
process and its phases of host speed, which a comparison of separate
processes does not. BLAS runs on one thread, as in perfbench, whatever the
caller's environment says; the script prints that setting on a line of its
own.
"""

import os

# Set before numpy is imported, as perfbench/run.py does: the matrices are
# small, and more BLAS threads only add noise.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

SCORE_ROWS, KB_RULES, BLOCK_ROWS = 2000, 4000, 50  # perfbench's score sizes
BEAM, MAX_CONSTRAINTS = 5, 3  # perfbench's simplify-beam5 settings
TRAIN_PAIRS = 48  # perfbench's train-desk corpus


def load_package(root: Path, name: str, into: Path) -> dict:
    """`root`'s src/sentsimp copied under `name` and imported; its modules by short name."""
    shutil.copytree(root / "src" / "sentsimp", into / name)
    modules = ("corpus", "lexsub", "metrics", "model", "pipeline", "training")
    return {m: importlib.import_module(f"{name}.{m}") for m in modules}


def load_inputs(root: Path, package: str) -> types.ModuleType:
    """`root`'s perfbench/inputs.py as a module whose sentsimp imports read `package`."""
    source = (root / "perfbench" / "inputs.py").read_text(encoding="utf-8")
    module = sys.modules["ab_inputs"] = types.ModuleType("ab_inputs")  # dataclasses look it up
    exec(compile(source.replace("from sentsimp.", f"from {package}."), "inputs.py", "exec"),
         module.__dict__)
    return module


def score_side(pkg: dict, paths: dict):
    """Set-up on the written files, then a unit function: block index -> outputs."""
    lexsub, metrics = pkg["lexsub"], pkg["metrics"]
    kb = lexsub.load_kb(paths["rules.tsv"])
    pairs, _ = pkg["corpus"].read_parallel_tokens(paths["normal.txt"], paths["simple.txt"])
    everything_complex = lexsub.FrequencyTable({}, threshold=float("inf"))

    def unit(n: int):
        triples = []
        for j in range(BLOCK_ROWS):
            src, ref = pairs[(n * BLOCK_ROWS + j) % len(pairs)]
            _, out = lexsub.identify_and_substitute(src, kb, everything_complex, len(src))
            triples.append(metrics.EvalTriple(tuple(src), tuple(out), tuple(ref)))
        return [t.output for t in triples], metrics.evaluate_corpus(triples).values()

    return unit


def simplify_side(pkg: dict, checkpoint: str, kb_path: str, lines):
    """Set-up, then a unit function: line index -> the output text, the
    trace and each pass's output ids."""
    pipeline = pkg["pipeline"]
    config = dataclasses.replace(pipeline.PipelineConfig(), checkpoint=checkpoint, kb=kb_path,
                                 beam=BEAM, max_constraints=MAX_CONSTRAINTS)
    pipe = pipeline.SimplifyPipeline.from_config(config)
    results = []
    decode_multi = pipeline.decode_multi

    def recorded(*args, **kwargs):
        results.append(decode_multi(*args, **kwargs))
        return results[-1]

    pipeline.decode_multi = recorded  # this copy of the package only

    def unit(n: int):
        results.clear()
        text, trace = pipe.simplify(lines[n % len(lines)].normal)
        return text, trace, [p.output for result in results for p in result.passes]

    return unit


def train_side(pkg: dict, paths: dict, config_path: str):
    """Set-up as `sentsimp train` does it, then a unit function: pair index
    -> the loss and every parameter's gradient of one taped pair."""
    corpus, lexsub, training = pkg["corpus"], pkg["lexsub"], pkg["training"]
    config = pkg["pipeline"].parse_config(config_path)
    token_pairs, _ = corpus.read_parallel_tokens(paths["normal.txt"], paths["simple.txt"])
    vocab = corpus.build_vocab((s + t for s, t in token_pairs), config.vocab_size)
    pairs = [corpus.SentencePair(tuple(vocab.encode(s)), tuple(vocab.encode(t))) for s, t in token_pairs]
    train = corpus.split_corpus(pairs, config.valid_size, config.seed).train
    freq_table = lexsub.FrequencyTable.from_sequences((s for s, _ in token_pairs), config.complexity_percentile)
    kb = lexsub.load_kb(paths["rules.tsv"])
    positions = [training.select_training_constraint(p, kb, freq_table, vocab) for p in train]
    model_config = dataclasses.replace(config.model_config(), vocab_size=len(vocab))
    net = pkg["model"].Seq2SeqModel.create(model_config, seed=config.seed)
    named = list(net.named_parameters())

    def unit(n: int):
        k = n % len(train)
        net.zero_grad()
        with training.Tape() as tape:
            loss = training.training_loss([train[k]], [positions[k]], net)
            tape.backward(loss)
        return [("loss", loss.data)] + [(name, t.grad) for name, t in named]

    return unit


def gradient_deviation(old, new) -> float:
    """The largest |new - old| over a train unit's loss and gradients, each
    relative to its array's largest |entry| in old (inf where the names,
    shapes or missing gradients disagree, or an array of zeros moved)."""
    worst = 0.0
    for (name, a), (new_name, b) in zip(old, new, strict=True):
        if name != new_name or (a is None) != (b is None) or a is not None and a.shape != b.shape:
            return float("inf")
        if a is None:
            continue
        scale, moved = float(np.max(np.abs(a))), float(np.max(np.abs(b - a)))
        worst = max(worst, moved / scale if scale else (0.0 if moved == 0.0 else float("inf")))
    return worst


def digests(named_arrays) -> list:
    """A train unit's output as the SHA-256 of each array's bytes."""
    return [(name, None if a is None else hashlib.sha256(a.tobytes()).hexdigest()) for name, a in named_arrays]


LOG_PROBS = ("backward_log_prob", "forward_log_prob")


def without_log_probs(output) -> tuple:
    """A simplify unit's output with its passes' log-probs left out."""
    text, trace, ids = output
    passes = [{k: v for k, v in p.items() if k not in LOG_PROBS} for p in trace["passes"]]
    return text, {**trace, "passes": passes}, ids


def log_probs(output) -> list:
    return [p[k] for p in output[1]["passes"] for k in LOG_PROBS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", choices=("score", "simplify", "train"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=200)
    parser.add_argument("--checkpoint", help="checkpoint for --workload simplify")
    parser.add_argument("--grad-rtol", type=float, default=0.0,
                        help="for --workload train: accept a loss and gradients within this share of each"
                             " array's largest |entry| (default 0: byte equality)")
    args = parser.parse_args(argv)
    if args.workload == "simplify" and not args.checkpoint:
        parser.error("--workload simplify needs --checkpoint")
    if not args.grad_rtol >= 0.0 or args.grad_rtol and args.workload != "train":
        parser.error("--grad-rtol takes a share of at least 0, and only with --workload train")
    rounding = args.grad_rtol > 0.0

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        old, new = load_package(args.old, "ab_old", tmp), load_package(args.new, "ab_new", tmp)
        inputs = load_inputs(args.old, "ab_old")
        comparable = {"train": digests, "simplify": without_log_probs}.get(args.workload, lambda output: output)
        if args.workload == "score":
            rows = inputs.make_lines(args.seed, "score", SCORE_ROWS)
            paths = {name: str(tmp / name) for name in ("normal.txt", "simple.txt", "rules.tsv")}
            inputs.write_lines(paths["normal.txt"], (r.normal for r in rows))
            inputs.write_lines(paths["simple.txt"], (r.simple for r in rows))
            inputs.write_kb(paths["rules.tsv"], inputs.large_kb_rows(args.seed, rows, KB_RULES))
            sides = [score_side(pkg, paths) for pkg in (old, new)]
        elif args.workload == "train":
            lines = inputs.make_lines(args.seed, "train", TRAIN_PAIRS)
            paths = {name: str(tmp / name) for name in ("normal.txt", "simple.txt", "rules.tsv")}
            inputs.write_lines(paths["normal.txt"], (line.normal for line in lines))
            inputs.write_lines(paths["simple.txt"], (line.simple for line in lines))
            inputs.write_kb(paths["rules.tsv"], inputs.toy_kb_rows())
            config_path = str(args.old / "configs" / "desk.cfg")
            sides = [train_side(pkg, paths, config_path) for pkg in (old, new)]
        else:
            lines = inputs.make_lines(args.seed, "heldout", args.units)
            kb_path = str(tmp / "rules.tsv")
            inputs.write_kb(kb_path, inputs.toy_kb_rows())
            sides = [simplify_side(pkg, args.checkpoint, kb_path, lines) for pkg in (old, new)]

        seconds = ([], [])
        log_prob_delta = deviation = 0.0
        for n in range(args.units):
            outputs = [None, None]
            for side in ((0, 1) if n % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                outputs[side] = sides[side](n)
                seconds[side].append(time.perf_counter() - t0)
            if rounding:
                unit_deviation = gradient_deviation(outputs[0], outputs[1])
                if unit_deviation > args.grad_rtol:
                    raise SystemExit(f"unit {n}: outputs differ by {unit_deviation:.3g}, above --grad-rtol")
                deviation = max(deviation, unit_deviation)
                continue
            old_output, new_output = comparable(outputs[0]), comparable(outputs[1])
            if old_output != new_output:
                raise SystemExit(f"unit {n}: outputs differ\nold: {old_output}\nnew: {new_output}")
            if args.workload == "simplify":
                pairs = zip(log_probs(outputs[0]), log_probs(outputs[1]))
                log_prob_delta = max([log_prob_delta, *(abs(a - b) for a, b in pairs)])

    total_old, total_new = sum(seconds[0]), sum(seconds[1])
    per_unit = statistics.median(b / a for a, b in zip(*seconds))
    agreement = f"outputs within --grad-rtol {args.grad_rtol:g}" if rounding else "equal outputs"
    print(f"{args.workload}, seed {args.seed}, {args.units} units, {agreement}")
    print("BLAS threads " + " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREADS))
    print(f"old {1e3 * total_old / args.units:.3f} ms/unit, new {1e3 * total_new / args.units:.3f} ms/unit")
    print(f"total-time ratio new/old {total_new / total_old:.4f}")
    print(f"median per-unit ratio new/old {per_unit:.4f}")
    if args.workload == "simplify":
        print(f"largest |log-prob difference| {log_prob_delta:.3g}")
    if rounding:
        print(f"largest deviation of a loss or gradient, relative to its largest |entry|, {deviation:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
