"""Spans and counters around the public functions of every sentsimp module.

The tracer replaces a function under every name a caller looks it up by:
for each module of the package, each attribute that is the original
function object. So ``decode_step`` is wrapped as
``sentsimp.model.decode_step``, ``sentsimp.decoding.decode_step`` and
``sentsimp.training.decode_step`` alike. Methods are wrapped on their class.
Nothing under ``src/`` changes; ``restore`` puts every original back.

Each call becomes a span (name, start, end, parent span). Spans are kept in
memory, up to a cap, and written out at the end; calls, inclusive time and
self time (duration minus the time covered by child spans) are kept for
every call, also past the cap.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

import sentsimp.autodiff

LAYERS = ("autodiff", "model", "decoding", "training", "lexsub", "metrics", "corpus", "pipeline")

# public names of sentsimp.autodiff that build tensors without dispatching an op
NOT_OPS = frozenset({"active_tape", "tensor", "zeros"})

# methods that callers reach through an instance, so the module scan misses them
METHODS = (
    ("autodiff", "Tape", "backward"),
    ("pipeline", "SimplifyPipeline", "simplify"),
)

SPAN_CAP = 200_000


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Wraps every public function of the layer modules while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.span_count = 0
        # per-function observations made from arguments and results
        self.tape_records = 0
        self.checkpoint_bytes: list[int] = []
        self.output_tokens = 0
        self.passes = 0
        self.decodes = 0
        self.greedy_steps = 0
        self.outer_searches = 0
        self.capped_searches = 0
        self.constraints_found = 0
        self.valid_loss_s = 0.0
        self._stack: list[list] = []  # [child_time, span_id] per open span
        self._greedy_depth = 0
        self._search_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sentsimp" or name.startswith("sentsimp.")}
        for layer in LAYERS:
            module = modules[f"sentsimp.{layer}"]
            for name, fn in _public_functions(module):
                if module is sentsimp.autodiff and name in NOT_OPS:
                    continue
                qualified = f"{layer}.{name}"
                wrapper = self._wrap(fn, qualified, layer)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[f"sentsimp.{layer}"], cls_name)
            fn = cls.__dict__[method]
            self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}", layer))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        self.layer_of[name] = layer
        observe = self._observer(fn, name)
        stack = self._stack
        spans = self.spans
        calls, incl, self_time = self.calls, self.incl, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = observe.enter(args, kwargs) if observe else None
            self.span_count += 1
            span_id = self.span_count
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                calls[name] += 1
                incl[name] += duration
                self_time[name] += duration - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent[1] if parent else 0, name, start, end))
                if observe:
                    observe.leave(token, duration)
            if observe:
                observe.result(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observer(self, fn, name: str):
        factory = {
            "autodiff.Tape.backward": _BackwardObserver,
            "model.save_checkpoint": _CheckpointObserver,
            "model.decode_step": _StepObserver,
            "decoding.decode_multi": _DecodeObserver,
            "decoding.beam_search": _SearchObserver,
            "lexsub.identify_and_substitute": _IdentifyObserver,
            "training.training_loss": _LossObserver,
        }.get(name)
        return factory(self, fn) if factory else None

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["span", "parent", "name", "start", "end"],
                    "recorded": len(self.spans),
                    "total": self.span_count,
                    "calls": dict(self.calls),
                    "spans": self.spans,
                },
                fh,
            )

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if self.layer_of.get(name) == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if self.layer_of.get(name) == layer)


class _Observer:
    def __init__(self, tracer: Tracer, fn):
        self.tracer = tracer
        self.signature = inspect.signature(fn)

    def arg(self, args, kwargs, name, default=None):
        try:
            bound = self.signature.bind_partial(*args, **kwargs)
        except TypeError:
            return default
        return bound.arguments.get(name, default)

    def enter(self, args, kwargs):
        return None

    def leave(self, token, duration) -> None:
        pass

    def result(self, token, args, kwargs, result) -> None:
        pass


class _BackwardObserver(_Observer):
    def enter(self, args, kwargs):
        self.tracer.tape_records += len(args[0])


class _CheckpointObserver(_Observer):
    def result(self, token, args, kwargs, result):
        path = self.arg(args, kwargs, "path")
        if path and os.path.exists(path):
            self.tracer.checkpoint_bytes.append(os.path.getsize(path))


class _DecodeObserver(_Observer):
    def result(self, token, args, kwargs, result):
        t = self.tracer
        t.decodes += 1
        t.output_tokens += len(result.tokens)
        t.passes += max(1, len(result.passes))


class _SearchObserver(_Observer):
    """Tells the outer search apart from the beam-1 rollout that seeds it."""

    def enter(self, args, kwargs):
        t = self.tracer
        greedy_seed = t._search_depth > 0 and self.arg(args, kwargs, "beam_size") == 1
        t._search_depth += 1
        t._greedy_depth += greedy_seed
        return greedy_seed

    def leave(self, token, duration):
        t = self.tracer
        t._search_depth -= 1
        t._greedy_depth -= token

    def result(self, token, args, kwargs, result):
        t = self.tracer
        if t._search_depth == 0:
            t.outer_searches += 1
            max_new = self.arg(args, kwargs, "max_new", 0)
            t.capped_searches += len(result.tokens) >= max_new


class _StepObserver(_Observer):
    def enter(self, args, kwargs):
        if self.tracer._greedy_depth:
            self.tracer.greedy_steps += 1


class _IdentifyObserver(_Observer):
    def result(self, token, args, kwargs, result):
        self.tracer.constraints_found += len(result[0])


class _LossObserver(_Observer):
    """Validation loss runs training_loss with no tape recording."""

    def enter(self, args, kwargs):
        return sentsimp.autodiff.active_tape() is None

    def leave(self, token, duration):
        if token:
            self.tracer.valid_loss_s += duration
