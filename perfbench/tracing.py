"""In-memory span tracer built from wrappers around aspectcrf's public functions.

The tracer replaces every module-level binding of a traced function inside the
loaded ``aspectcrf`` modules, not just the defining one: ``training`` imports
``evaluate`` and ``instance_loss`` by name, so patching ``model.evaluate``
alone would miss the dev evaluation inside ``training.train``. Each call
records one span (name, start, end, parent span, growth of the active tape's
length). Spans stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from aspectcrf import autodiff

# (module, attribute path) of every traced function, reported as
# "<module>.<attribute path>.*"
TRACED = (
    ("data", "parse_corpus"),
    ("data", "load_embeddings"),
    ("encoder", "embed_input"),
    ("encoder", "bigru_encode"),
    ("encoder", "apply_decay"),
    ("crf", "multi_head"),
    ("classifier", "logits"),
    ("classifier", "nll_loss"),
    ("model", "forward"),
    ("model", "evaluate"),
    ("model", "predict_instance"),
    ("autodiff", "Tape.backward"),
    ("training", "clip_global_norm"),
    ("training", "adam_step"),
    ("checkpoint", "serialize"),
    ("checkpoint", "deserialize"),
)


def traced_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    tape_growth: int = 0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def bindings_of(obj) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded aspectcrf modules bound to ``obj``."""
    return [(module, name)
            for mod_name, module in sorted(sys.modules.items())
            if mod_name.startswith("aspectcrf") and module is not None
            for name, value in list(vars(module).items()) if value is obj]


class Tracer:
    """Spans plus the counters measured at the same boundaries.

    Use as a context manager; it may be entered several times and keeps
    accumulating. ``taped_instances`` counts ``model.forward`` calls made
    while a tape is recording, which is the denominator of every
    per-instance tape count.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.taped_instances = 0
        self.backward_tape_entries = 0
        self.nonfinite_errors = 0
        self.batch_row_ratios: list[float] = []
        self._open: list[int] = []
        self._tapes: list[autodiff.Tape] = []
        self._batch_ids: set[int] = set()
        self._vocab_size = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._patch_tape_stack()
        for module, attr in TRACED:
            self._patch_function(module, attr)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_tape_stack(self) -> None:
        tape_cls = autodiff.Tape
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        tapes = self._tapes

        def traced_enter(tape):
            tapes.append(tape)
            return enter(tape)

        def traced_exit(tape, *exc_info):
            tapes.pop()
            return exit_(tape, *exc_info)

        self._set(tape_cls, "__enter__", traced_enter)
        self._set(tape_cls, "__exit__", traced_exit)

    def _patch_function(self, module: str, attr: str) -> None:
        owner = sys.modules[f"aspectcrf.{module}"]
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = self._wrap(traced_name(module, attr), original)
        if owner_path:
            self._set(owner, leaf, wrapper)
            return
        for mod, name in bindings_of(original):
            self._set(mod, name, wrapper)

    # -- recording ----------------------------------------------------------

    def _before(self, name: str, args) -> None:
        tape = self._tapes[-1] if self._tapes else None
        if tape is None:
            return
        if name == "model.forward":
            params, instance = args[0], args[1]
            self.taped_instances += 1
            self._vocab_size = params.embedding.shape[0]
            self._batch_ids.update(instance.token_ids)
        elif name == "autodiff.Tape.backward":
            self.backward_tape_entries += len(args[0])
            if self._batch_ids:
                self.batch_row_ratios.append(len(self._batch_ids) / self._vocab_size)
                self._batch_ids.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._before(name, args)
            tape = tracer._tapes[-1] if tracer._tapes else None
            before = len(tape) if tape is not None else 0
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = Span(name, tracer.clock(), 0.0, parent)
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                return fn(*args, **kwargs)
            except autodiff.NonFiniteError as exc:
                if not getattr(exc, "counted_by_tracer", False):
                    exc.counted_by_tracer = True
                    tracer.nonfinite_errors += 1
                raise
            finally:
                span.end = tracer.clock()
                if tape is not None:
                    span.tape_growth = len(tape) - before
                tracer._open.pop()

        return wrapper

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self seconds and tape entries per taped instance, per traced function."""
        out = {traced_name(m, a): {"calls": 0, "self_s": 0.0, "tape_entries": 0} for m, a in TRACED}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += own
            row["tape_entries"] += span.tape_growth
        for row in out.values():
            row["tape_entries"] = row["tape_entries"] / self.taped_instances if self.taped_instances else 0.0
        return out

    def write(self, path: Path) -> None:
        names = sorted({s.name for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        rows = [[code[s.name], s.start, s.end, s.parent, s.tape_growth] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "columns": ["name", "start", "end", "parent", "tape_growth"],
                                    "spans": rows}))
