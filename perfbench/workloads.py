"""The three benchmark workloads: train-desk, simplify-beam5 and score.

Each workload is one process with one caller in a closed loop: the next
unit of work starts when the previous one has returned. A unit is a
training pair (train-desk), an input line (simplify-beam5) or a block of
rows (score). The untraced run times only unit boundaries and the set-up;
the traced run wraps every public function of the package (see tracer.py)
and runs the same work without, with and again without the tracer, so that
the difference is the tracing overhead.

The program gets only the generated inputs: `sentsimp train` keeps the
seed of configs/desk.cfg, so the workload seed changes words, not shapes
or random streams of the program.

Every call into sentsimp goes through a module attribute (``cli.main``,
``lexsub.load_kb``), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sentsimp import cli, corpus, lexsub, metrics, model, pipeline, training

import inputs
from tracer import LAYERS, Tracer

clock = time.perf_counter

WORKLOADS = ("train-desk", "simplify-beam5", "score")

# toy-dims checkpoint for simplify-beam5, trained by `sentsimp train`
TOY_DIMS = {"embed_dim": 16, "hidden_dim": 32}
SIMPLIFY_BEAM = 5
SIMPLIFY_MAX_CONSTRAINTS = 3


@dataclass(frozen=True)
class Sizes:
    """Work per run. The defaults are the benchmark; tests shrink them."""

    setup_repeats: int = 9
    # train-desk: epochs = ceil(seconds / seconds_per_epoch), at least 2
    train_pairs: int = 48
    seconds_per_epoch: float = 4.0
    trace_epochs: int = 2
    # simplify-beam5: checkpoint preparation, then lines
    prep_pairs: int = 128
    prep_epochs: int = 3
    prep_batch: int = 2
    prep_max_decode_len: int = 60
    prep_complexity_percentile: float = 90.0
    heldout: int = 1200
    min_lines: int = 200  # at least ten samples beyond p95
    trace_lines: int = 100
    # score
    score_rows: int = 2000
    kb_rules: int = 4000
    block_rows: int = 50
    min_blocks: int = 200
    trace_blocks: int = 60


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    work: Path  # this run's files, emptied first
    cache: Path  # kept between runs


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


class _SetupDone(Exception):
    """Raised in place of training to end a set-up probe of `sentsimp train`."""


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), work_root: Path | None = None) -> Outcome:
    work_root = work_root or root / ".perfbench_work"
    work = work_root / f"{workload}-{seed}{'-trace' if trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache = work_root / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    ctx = Context(root, seed, seconds, trace, sizes, work, cache)
    body = {"train-desk": train_desk, "simplify-beam5": simplify_beam5, "score": score}[workload]
    outcome = body(ctx)
    outcome.record = {"workload": workload, "seed": seed, "trace": trace,
                      **environment(root), **outcome.record}
    return outcome


# -- shared pieces ------------------------------------------------------------


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k)
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup: list[float], attempted: int, failed: int, marks: list[float],
               units: list[float], latencies: list[float], rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and, for the record, the figures around them.

    marks[0] is the start of the measured work and marks[i + 1] the end of
    item i, which did units[i] units. On a shared host the speed of the
    machine shifts by up to twice over seconds to minutes, so a run's median
    latency and mean rate move with the share of the run spent in the slow
    phase. The metrics are therefore the latency tail (p90, p95) and the rate
    sustained in nine of ten windows of the run, which hold still while the
    slow phase covers more than a tenth of the run. The median latency and
    the mean rate go to the record.
    """
    cuts = statistics.quantiles(latencies, n=20)
    windows = min(20, len(units))
    edges = [round(i * len(units) / windows) for i in range(windows + 1)]
    rates = sorted(sum(units[a:b]) / (marks[b] - marks[a]) for a, b in zip(edges, edges[1:]))
    metrics_out = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "throughput_per_s": (rates[len(rates) // 10], "1/s"),
        "latency_ms_p90": (1000.0 * cuts[17], "ms"),
        "latency_ms_p95": (1000.0 * cuts[18], "ms"),
    }
    record = {
        "setup_s": setup,
        "latency_samples": len(latencies),
        "samples_beyond_p95": len(latencies) // 20,
        "latency_ms_p50": 1000.0 * statistics.median(latencies),
        "throughput_mean_per_s": sum(units) / (marks[-1] - marks[0]),
        "window_rates_per_s": rates,
    }
    return metrics_out, record


def desk_config_text(root: Path, **overrides) -> str:
    """configs/desk.cfg with later keys overriding earlier ones."""
    text = (root / "configs" / "desk.cfg").read_text(encoding="utf-8")
    return text + "".join(f"{k} = {v}\n" for k, v in overrides.items())


@contextlib.contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def traced_pass(ctx: Context, work):
    """Runs work() untraced, traced, and untraced again, so that a drift in
    machine speed is not read as tracing overhead. Returns (tracer, mean
    untraced wall, traced wall, result of the traced run)."""

    def timed():
        started = clock()
        result = work()
        return clock() - started, result

    before, _ = timed()
    tracer = Tracer()
    with tracer:
        traced_wall, traced = timed()
    after, _ = timed()
    tracer.write_spans(str(ctx.work / "spans.json"))
    return tracer, (before + after) / 2, traced_wall, traced


def per_layer(t: Tracer, units: int, traced_wall: float, plain_wall: float) -> dict:
    calls, incl, self_time = t.calls, t.incl, t.self_time
    ops = [n for n in calls if t.layer_of.get(n) == "autodiff" and n != "autodiff.Tape.backward"]
    op_calls = sum(calls[n] for n in ops)
    steps = calls["model.decode_step"]
    identify = calls["lexsub.identify_and_substitute"]
    tokenize = calls["corpus.tokenize"]

    def per_unit(n):
        return n / units if units else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "autodiff.ops": (per_unit(op_calls), "1/unit"),
        "autodiff.op_us": (1e6 * ratio(sum(self_time[n] for n in ops), op_calls), "us"),
        "autodiff.matmul_calls": (per_unit(calls["autodiff.matmul"]), "1/unit"),
        "autodiff.matmul_s": (incl["autodiff.matmul"], "s"),
        "autodiff.transpose_calls": (per_unit(calls["autodiff.transpose"]), "1/unit"),
        "autodiff.backward_s": (self_time["autodiff.Tape.backward"], "s"),
        "autodiff.tape_records": (ratio(t.tape_records, calls["autodiff.Tape.backward"]), "1/backward"),
        "model.encode_calls": (per_unit(calls["model.encode"]), "1/unit"),
        "model.encode_s": (incl["model.encode"], "s"),
        "model.decode_step_calls": (per_unit(steps), "1/unit"),
        "model.decode_step_s": (incl["model.decode_step"], "s"),
        "model.attend_s": (incl["model.attend"], "s"),
        "model.save_checkpoint_s": (incl["model.save_checkpoint"], "s"),
        "model.checkpoint_bytes": (statistics.fmean(t.checkpoint_bytes) if t.checkpoint_bytes else 0.0, "B"),
        "model.load_checkpoint_s": (incl["model.load_checkpoint"], "s"),
        "decoding.beam_search_self_s": (self_time["decoding.beam_search"], "s"),
        "decoding.steps_per_output_token": (ratio(steps, t.output_tokens) if t.decodes else 0.0, "1/token"),
        "decoding.encodes_per_pass": (ratio(calls["model.encode"], t.passes) if t.decodes else 0.0, "1/pass"),
        "decoding.greedy_seed_step_share": (ratio(t.greedy_steps, steps) if t.decodes else 0.0, "share"),
        "decoding.passes_per_sentence": (ratio(t.passes, t.decodes), "1/sentence"),
        "decoding.length_cap_share": (ratio(t.capped_searches, t.outer_searches), "share"),
        "training.loss_forward_s": (incl["training.training_loss"], "s"),
        "training.adadelta_step_s": (incl["training.adadelta_step"], "s"),
        "training.clip_gradients_s": (incl["training.clip_gradients"], "s"),
        "training.valid_loss_share": (ratio(t.valid_loss_s, incl["training.train"]), "share"),
        "lexsub.identify_calls": (per_unit(identify), "1/unit"),
        "lexsub.identify_us": (1e6 * ratio(incl["lexsub.identify_and_substitute"], identify), "us"),
        "lexsub.constraints_per_sentence": (ratio(t.constraints_found, identify), "1/sentence"),
        "lexsub.load_kb_s": (incl["lexsub.load_kb"], "s"),
        "metrics.sari_s": (incl["metrics.sari"], "s"),
        "metrics.bleu_s": (incl["metrics.bleu"], "s"),
        "metrics.evaluate_corpus_s": (incl["metrics.evaluate_corpus"], "s"),
        "corpus.ingest_s": (incl["corpus.read_parallel_tokens"] + incl["corpus.build_vocab"], "s"),
        "corpus.tokenize_us": (1e6 * ratio(incl["corpus.tokenize"], tokenize), "us"),
        "pipeline.simplify_self_s": (self_time["pipeline.SimplifyPipeline.simplify"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (t.layer_self(layer) / traced_wall, "share")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "share")
    out["trace.spans"] = (float(t.span_count), "count")
    return out


def control_problems(t: Tracer, silent_layers: tuple[str, ...], silent_names: tuple[str, ...]) -> list[str]:
    """Layers and functions the workload must not reach, with their call counts."""
    found = [f"{layer} layer called {t.layer_calls(layer)} times"
             for layer in silent_layers if t.layer_calls(layer)]
    found += [f"{name} called {t.calls[name]} times" for name in silent_names if t.calls[name]]
    return found


def trace_record(t: Tracer, plain_wall: float, traced_wall: float) -> dict:
    return {
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans_total": t.span_count,
        "spans_written": len(t.spans),
        "layer_self_s": {layer: t.layer_self(layer) for layer in LAYERS},
        "calls": dict(sorted(t.calls.items())),
    }


# -- train-desk -------------------------------------------------------------------


def train_desk(ctx: Context) -> Outcome:
    s = ctx.sizes
    epochs = s.trace_epochs if ctx.trace else max(2, math.ceil(ctx.seconds / s.seconds_per_epoch))
    lines = inputs.make_lines(ctx.seed, "train", s.train_pairs)
    data = ctx.work / "data"
    data.mkdir()
    inputs.write_lines(str(data / "normal.txt"), (line.normal for line in lines))
    inputs.write_lines(str(data / "simple.txt"), (line.simple for line in lines))
    inputs.write_kb(str(data / "rules.tsv"), inputs.toy_kb_rows())
    (data / "desk.cfg").write_text(desk_config_text(ctx.root, epochs=epochs), encoding="utf-8")
    out_dir = ctx.work / "run"
    argv = ["train", "--config", str(data / "desk.cfg"), "--source", str(data / "normal.txt"),
            "--target", str(data / "simple.txt"), "--kb", str(data / "rules.tsv"),
            "--out-dir", str(out_dir)]
    record = {"corpus": inputs.describe(lines), "epochs": epochs}

    def train_once():
        """`sentsimp train` with the call to training.train observed: its
        model, result and wall time, and the time of each pair's tape."""
        shutil.rmtree(out_dir, ignore_errors=True)
        seen: dict = {"pair_s": [], "pair_starts": []}
        real_train = cli.train

        def observed_train(split, net, *args, **kwargs):
            started = clock()
            result = real_train(split, net, *args, **kwargs)
            seen.update(model=net, result=result, started=started, ended=clock(),
                        pairs=len(split.train),
                        tokens=sum(training.loss_token_count(p) for p in split.train))
            return result

        class TimedTape(training.Tape):
            def __enter__(self):
                self._started = clock()
                seen["pair_starts"].append(self._started)
                return super().__enter__()

            def __exit__(self, *exc):
                super().__exit__(*exc)
                seen["pair_s"].append(clock() - self._started)

        stdout = io.StringIO()
        with patched(cli, "train", observed_train), patched(training, "Tape", TimedTape), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
            seen["rc"] = cli.main(argv)
        seen["log"] = stdout.getvalue()[-2000:]
        return seen

    if ctx.trace:
        tracer, plain_wall, traced_wall, seen = traced_pass(ctx, train_once)
    else:
        setup = [train_setup_probe(argv, out_dir) for _ in range(s.setup_repeats)]
        seen = train_once()
        rss = peak_rss_mb()
    if seen["rc"] != 0 or "result" not in seen:
        raise RuntimeError(f"sentsimp train exited with {seen['rc']}: {seen['log']}")

    units = seen["pairs"] * epochs
    if ctx.trace:
        metrics_out = per_layer(tracer, units, traced_wall, plain_wall)
        problems = control_problems(tracer, ("decoding", "metrics"), ("lexsub.identify_and_substitute",))
        record["traced_run"] = trace_record(tracer, plain_wall, traced_wall)
    else:
        # an epoch runs from its first pair's tape to the next epoch's, so it
        # holds its validation pass and checkpoint write
        pairs, starts = seen["pairs"], seen["pair_starts"]
        marks = [seen["started"], *starts[pairs::pairs][:epochs - 1], seen["ended"]]
        metrics_out, figures = end_to_end(setup, units, 0, marks, [seen["tokens"]] * epochs,
                                          seen["pair_s"], rss)
        problems = []
        record.update(figures)

    problems += check_training(seen, epochs)
    history = seen["result"].history
    dims = seen["model"].config
    record.update(
        model={"vocab": dims.vocab_size, "embed_dim": dims.embed_dim, "hidden_dim": dims.hidden_dim},
        train_tok_per_epoch=seen["tokens"],
        train_seconds=seen["ended"] - seen["started"],
        epoch_s=statistics.median(h.seconds for h in history),
        train_losses=[h.train_loss for h in history],
        train_final_loss=history[-1].train_loss,
        checkpoint_bytes=os.path.getsize(seen["result"].checkpoint_paths[-1]),
        problems=problems,
    )
    return Outcome(not problems, units, 0, metrics_out, record)


def train_setup_probe(argv: list[str], out_dir: Path) -> float:
    """Wall time of `sentsimp train` up to the call that starts training."""

    def stop(*args, **kwargs):
        raise _SetupDone

    shutil.rmtree(out_dir, ignore_errors=True)
    started = clock()
    with patched(cli, "train", stop), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except _SetupDone:
            return clock() - started
    raise RuntimeError(f"sentsimp train stopped before training (exit code {rc})")


def check_training(seen: dict, epochs: int) -> list[str]:
    problems = []
    history = seen["result"].history
    losses = [h.train_loss for h in history] + [h.valid_loss for h in history]
    if len(history) != epochs:
        problems.append(f"{len(history)} epochs trained, {epochs} asked")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite loss in {losses}")
    elif not history[-1].train_loss < history[0].train_loss:
        problems.append(f"final loss {history[-1].train_loss} not below first {history[0].train_loss}")
    if len(seen["pair_s"]) != seen["pairs"] * epochs:
        problems.append(f"{len(seen['pair_s'])} taped pairs, expected {seen['pairs'] * epochs}")
    reloaded = model.load_checkpoint(seen["result"].checkpoint_paths[-1]).model
    trained = dict(seen["model"].named_parameters())
    for name, tensor in reloaded.named_parameters():
        if not np.array_equal(tensor.data, trained[name].data):
            problems.append(f"reloaded parameter {name} differs from the trained one")
    return problems


# -- simplify-beam5 ---------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def toy_checkpoint(ctx: Context) -> tuple[Path, dict]:
    """A toy-dims checkpoint trained by `sentsimp train` from the seed.

    Preparation, outside every timed metric. It is cached under a key made
    of the src/ contents, the training inputs and settings, and the seed.
    """
    s = ctx.sizes
    overrides = {
        **TOY_DIMS,
        "epochs": s.prep_epochs,
        "batch_size": s.prep_batch,
        "checkpoint_every": s.prep_epochs,
        "max_decode_len": s.prep_max_decode_len,
        "complexity_percentile": s.prep_complexity_percentile,
    }
    lines = inputs.make_lines(ctx.seed, "simplify-train", s.prep_pairs)
    key = hashlib.sha256(json.dumps(
        [source_digest(ctx.root), [(x.normal, x.simple) for x in lines], inputs.toy_kb_rows(),
         overrides, ctx.seed]).encode()).hexdigest()[:16]
    final = ctx.cache / f"simplify-{ctx.seed}-{key}"
    ckpt = final / f"epoch{s.prep_epochs:04d}.ckpt"
    info = {"checkpoint_key": key, "prep_overrides": overrides, "prep_pairs": s.prep_pairs}
    if ckpt.is_file():
        return ckpt, {**info, "prep_cached": True}

    tmp = ctx.cache / f"tmp-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    inputs.write_lines(str(tmp / "normal.txt"), (line.normal for line in lines))
    inputs.write_lines(str(tmp / "simple.txt"), (line.simple for line in lines))
    inputs.write_kb(str(tmp / "rules.tsv"), inputs.toy_kb_rows())
    (tmp / "toy.cfg").write_text(desk_config_text(ctx.root, **overrides), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    started = clock()
    proc = subprocess.run(
        [sys.executable, "-m", "sentsimp.cli", "train", "--config", str(tmp / "toy.cfg"),
         "--source", str(tmp / "normal.txt"), "--target", str(tmp / "simple.txt"),
         "--kb", str(tmp / "rules.tsv"), "--out-dir", str(tmp)],
        cwd=ctx.root, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0 or not (tmp / ckpt.name).is_file():
        raise RuntimeError(f"checkpoint preparation failed ({proc.returncode}): {proc.stderr[-2000:]}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return ckpt, {**info, "prep_cached": False, "prep_s": clock() - started}


class LineResult(NamedTuple):
    line: inputs.Line
    text: str | None  # None when simplify raised
    trace: dict | None
    error: str | None
    ids: tuple[int, ...]  # decoded ids of the final output
    seconds: float


def simplify_beam5(ctx: Context) -> Outcome:
    s = ctx.sizes
    ckpt, prep = toy_checkpoint(ctx)
    heldout = inputs.make_lines(ctx.seed, "heldout", s.heldout)
    kb_path = ctx.work / "rules.tsv"
    inputs.write_kb(str(kb_path), inputs.toy_kb_rows())
    config = dataclasses.replace(
        pipeline.PipelineConfig(), checkpoint=str(ckpt), kb=str(kb_path),
        beam=SIMPLIFY_BEAM, max_constraints=SIMPLIFY_MAX_CONSTRAINTS,
    )
    record = {"heldout": inputs.describe(heldout), **prep,
              "beam": SIMPLIFY_BEAM, "max_constraints": SIMPLIFY_MAX_CONSTRAINTS}

    def simplify_lines(pipe, count: int | None):
        """Lines in order until `count` are done, or, with count None, until
        the run's seconds are up and at least min_lines are done."""
        done = []
        decoded: list = []
        marks = [clock()]
        real_decode = pipeline.decode_multi

        def observed_decode(*args, **kwargs):
            result = real_decode(*args, **kwargs)
            decoded.append(tuple(result.tokens))
            return result

        with patched(pipeline, "decode_multi", observed_decode):
            while True:
                n = len(done)
                if count is not None and n >= count:
                    break
                if count is None and n >= s.min_lines and clock() - marks[0] >= ctx.seconds:
                    break
                line = heldout[n % len(heldout)]
                decoded.clear()
                t0 = clock()
                try:
                    text, trace = pipe.simplify(line.normal)
                except Exception as exc:  # a bad line is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                    done.append(LineResult(line, None, None, error, (), clock() - t0))
                else:
                    ids = decoded[-1] if decoded else ()
                    done.append(LineResult(line, text, trace, None, ids, clock() - t0))
                marks.append(clock())
        return done, marks

    if ctx.trace:
        def work():
            pipe = pipeline.SimplifyPipeline.from_config(config)
            return pipe, simplify_lines(pipe, s.trace_lines)

        tracer, plain_wall, traced_wall, (pipe, (done, _)) = traced_pass(ctx, work)
        metrics_out = per_layer(tracer, len(done), traced_wall, plain_wall)
        record["traced_run"] = trace_record(tracer, plain_wall, traced_wall)
    else:
        setup = []
        for _ in range(s.setup_repeats):
            t0 = clock()
            pipe = pipeline.SimplifyPipeline.from_config(config)
            setup.append(clock() - t0)
        done, marks = simplify_lines(pipe, None)
        rss = peak_rss_mb()
        latencies = [d.seconds for d in done]
        metrics_out, figures = end_to_end(setup, len(done), failed_lines(done), marks,
                                          [1] * len(done), latencies, rss)
        record.update(figures)

    problems, quality = check_simplify(done, pipe.vocab, s.min_lines if not ctx.trace else len(done))
    dims = pipe.model.config
    record.update(quality, problems=problems, model={
        "vocab": dims.vocab_size, "embed_dim": dims.embed_dim, "hidden_dim": dims.hidden_dim})
    return Outcome(not problems, len(done), failed_lines(done), metrics_out, record)


def failed_lines(done: list[LineResult]) -> int:
    return sum(1 for d in done if d.text is None)


def check_simplify(done: list[LineResult], vocab, digest_lines: int) -> tuple[list[str], dict]:
    """Every applied constraint is accounted for; SARI of the outputs; a
    digest of the decoded ids of the first digest_lines lines."""
    problems = []
    applied = kept = 0
    per_line = Counter()
    errors = Counter()
    triples = []
    for index, (line, text, trace, error, ids, _) in enumerate(done):
        if text is None:
            errors[error.split(":")[0]] += 1
            continue
        passes = trace["passes"]
        constraints = trace["constraints"]
        per_line[min(len(constraints), 3)] += 1
        used = [c for c in constraints if not c["skipped"]]
        if len(used) != len(passes):
            problems.append(f"line {index}: {len(used)} applied constraints, {len(passes)} passes")
        for c in constraints:
            block = vocab.encode(c["simple"])
            if c["skipped"]:
                if c["pass"] is not None:
                    problems.append(f"line {index}: skipped constraint with pass {c['pass']}")
                continue
            applied += 1
            p = passes[c["pass"] - 1] if 1 <= (c["pass"] or 0) <= len(passes) else None
            start = p["position"] - 1 if p else -1
            if p is None or p["constraint"] != c["simple"] or \
                    corpus.tokenize(p["output"])[start:start + len(block)] != c["simple"]:
                problems.append(f"line {index}: constraint {c['simple']} not in its pass output")
            fp = c["final_position"]
            if fp is not None:
                kept += 1
                if list(ids[fp - 1:fp - 1 + len(block)]) != block:
                    problems.append(f"line {index}: constraint {c['simple']} not at final position {fp}")
        out_tokens = tuple(corpus.tokenize(text))
        if out_tokens:
            triples.append(metrics.EvalTriple(tuple(corpus.tokenize(line.normal)), out_tokens,
                                              tuple(corpus.tokenize(line.simple))))
        if len(problems) > 20:
            break
    sari = metrics.evaluate_corpus(triples).sari if triples else float("nan")
    if not 0.0 <= sari <= 100.0:
        problems.append(f"SARI {sari} outside [0, 100]")
    digest = hashlib.sha256(json.dumps([list(d.ids) for d in done[:digest_lines]]).encode()).hexdigest()
    return problems, {
        "lines_done": len(done),
        "lines_failed_by_error": dict(errors),
        "constraints_per_line": {("3+" if k == 3 else str(k)): per_line[k] for k in range(4)},
        "constraints_applied": applied,
        "constraint_kept_share": kept / applied if applied else None,
        "simplify_sari": sari,
        "empty_outputs": sum(1 for d in done if d.text == ""),
        "output_digest_lines": min(digest_lines, len(done)),
        "output_digest": digest,
    }


# -- score ------------------------------------------------------------------------


def score(ctx: Context) -> Outcome:
    s = ctx.sizes
    rows = inputs.make_lines(ctx.seed, "score", s.score_rows)
    kb_rows = inputs.large_kb_rows(ctx.seed, rows, s.kb_rules)
    paths = {name: str(ctx.work / name) for name in ("normal.txt", "simple.txt", "rules.tsv")}
    inputs.write_lines(paths["normal.txt"], (r.normal for r in rows))
    inputs.write_lines(paths["simple.txt"], (r.simple for r in rows))
    inputs.write_kb(paths["rules.tsv"], kb_rows)
    record = {"rows": inputs.describe(rows), "kb_rules": len(kb_rows),
              "kb_heads": len({complex_side.split()[0] for complex_side, _, _ in kb_rows}),
              "block_rows": s.block_rows}
    # kb-check's coverage mode: every rule whose complex side occurs fires
    everything_complex = lexsub.FrequencyTable({}, threshold=float("inf"))

    def set_up():
        kb = lexsub.load_kb(paths["rules.tsv"])
        pairs, skipped = corpus.read_parallel_tokens(paths["normal.txt"], paths["simple.txt"])
        return kb, pairs, skipped

    def score_blocks(kb, pairs, count: int | None):
        """Blocks of rows, cycling through the rows, until `count` are done,
        or, with count None, until the run's seconds are up and at least
        min_blocks are done. Each row is substituted, then the block scored."""
        reports, latencies = [], []
        failed = 0
        lexsub_s = 0.0
        marks = [clock()]
        while True:
            n = len(latencies)
            if count is not None and n >= count:
                break
            if count is None and n >= s.min_blocks and clock() - marks[0] >= ctx.seconds:
                break
            block = [pairs[(n * s.block_rows + j) % len(pairs)] for j in range(s.block_rows)]
            t0 = clock()
            triples = []
            for src, ref in block:
                try:
                    _, out = lexsub.identify_and_substitute(src, kb, everything_complex, len(src))
                    triples.append(metrics.EvalTriple(tuple(src), tuple(out), tuple(ref)))
                except Exception:  # a bad row is counted, not fatal
                    failed += 1
            t1 = clock()
            try:
                reports.append(metrics.evaluate_corpus(triples))
            except Exception:
                failed += len(triples)
                reports.append(None)
            marks.append(clock())
            latencies.append(marks[-1] - t0)
            lexsub_s += t1 - t0
        return reports, latencies, failed, lexsub_s, marks

    if ctx.trace:
        def work():
            kb, pairs, skipped = set_up()
            return kb, pairs, skipped, score_blocks(kb, pairs, s.trace_blocks)

        tracer, plain_wall, traced_wall, traced = traced_pass(ctx, work)
        kb, pairs, skipped, (reports, latencies, failed, lexsub_s, marks) = traced
        attempted = len(latencies) * s.block_rows
        metrics_out = per_layer(tracer, attempted, traced_wall, plain_wall)
        problems = control_problems(tracer, ("autodiff", "model", "decoding", "training"), ())
        record["traced_run"] = trace_record(tracer, plain_wall, traced_wall)
    else:
        setup = []
        for _ in range(s.setup_repeats):
            t0 = clock()
            kb, pairs, skipped = set_up()
            setup.append(clock() - t0)
        reports, latencies, failed, lexsub_s, marks = score_blocks(kb, pairs, None)
        rss = peak_rss_mb()
        attempted = len(latencies) * s.block_rows
        metrics_out, figures = end_to_end(setup, attempted, failed, marks,
                                          [s.block_rows] * len(latencies), latencies, rss)
        problems = []
        record.update(figures)
        record["lexsub_share"] = lexsub_s / (marks[-1] - marks[0])

    problems += check_scores(kb, pairs, skipped, reports)
    record["problems"] = problems
    return Outcome(not problems, attempted, failed, metrics_out, record)


def check_scores(kb, pairs, skipped, reports) -> list[str]:
    problems = []
    if kb.rejected or skipped:
        problems.append(f"{len(kb.rejected)} KB rows rejected, {len(skipped)} corpus lines skipped")
    for i, report in enumerate(reports):
        if report is None:
            continue
        values = report.values()
        if not all(math.isfinite(v) for v in values):
            problems.append(f"block {i}: non-finite metric in {values}")
        elif not all(0.0 <= v <= 100.0 for v in
                     (report.bleu_output_reference, report.bleu_output_input, report.sari)):
            problems.append(f"block {i}: BLEU or SARI outside [0, 100] in {values}")
        if len(problems) > 20:
            break
    sources = [src for src, _ in pairs]
    identity = metrics.bleu(sources, sources)
    if identity != 100.0:
        problems.append(f"BLEU of the inputs against themselves is {identity}, not 100")
    return problems
