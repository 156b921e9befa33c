"""Span recorder that times geoball's public functions from outside.

Tracing patches the module attributes through which geoball's own modules
call each other (``geoball.pipeline.train_base``, ``geoball.harness.classify``
and so on), so a span sees a call exactly as its caller does. Nothing under
``src/`` knows about it. Spans stay in memory; ``Tracer.dump`` writes them
once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import NamedTuple

# span name -> the (module, attribute) pairs through which callers reach it;
# a layer's metric names are derived from the span name
TARGETS = {
    "cli.main": [("geoball.cli", "main")],
    "pipeline.run": [("geoball.cli", "run_pipeline")],
    "ontology.load": [("geoball.cli", "load_ontology"),
                      ("geoball.pipeline", "load_ontology")],
    "ontology.compute_ich": [("geoball.cli", "compute_ich"),
                             ("geoball.pipeline", "compute_ich")],
    "ontology.compute_stats": [("geoball.cli", "compute_stats"),
                               ("geoball.pipeline", "compute_stats")],
    "embedding.train": [("geoball.cli", "train_embeddings"),
                        ("geoball.pipeline", "train_embeddings")],
    "evaluation.score_space": [("geoball.cli", "score_space"),
                               ("geoball.pipeline", "score_space")],
    "negatives.build": [("geoball.cli", "build_negative_sets"),
                        ("geoball.pipeline", "build_negative_sets")],
    "harness.generate_features": [("geoball.pipeline",
                                   "generate_synthetic_features")],
    "harness.write_csv": [("geoball.pipeline", "write_features_csv")],
    "harness.read_csv": [("geoball.cli", "read_features_csv")],
    "harness.sample_episodes": [("geoball.cli", "sample_episodes"),
                                ("geoball.pipeline", "sample_episodes")],
    "harness.evaluate_episodes": [("geoball.cli", "evaluate_episodes"),
                                  ("geoball.pipeline", "evaluate_episodes")],
    "harness.nearest_centroid": [("geoball.cli", "nearest_centroid_accuracy"),
                                 ("geoball.pipeline",
                                  "nearest_centroid_accuracy")],
    "projector.train_base": [("geoball.cli", "train_base"),
                             ("geoball.pipeline", "train_base")],
    "projector.finetune": [("geoball.harness", "finetune_fewshot")],
    "projector.forward": [("geoball.harness", "mlp_forward")],
    "projector.classify": [("geoball.harness", "classify")],
    "projector.ancestor_report": [("geoball.harness", "ancestor_report")],
}


# calls whose arguments the per-layer report reads (steps, bytes, episodes,
# the reduction-fit probe); other calls keep no references
KEEP_CALLS = {"embedding.train", "harness.write_csv",
              "harness.evaluate_episodes", "projector.train_base"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: int


@contextlib.contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace module.attr by make_wrapper(original) for the with-block."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """In-memory span list; one run id per traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, list] = {}  # span name -> [(args, kwargs, result)]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.run_id = 0

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so children point here
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)
            if name in KEEP_CALLS:
                self.calls.setdefault(name, []).append((args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def active(self, run_id: int):
        """Trace every target for the with-block under the given run id."""
        self.run_id = run_id
        self.calls = {}
        with contextlib.ExitStack() as stack:
            for name, sites in TARGETS.items():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    if not hasattr(module, attr):
                        # a refactor moved the call site; report, do not fail
                        if f"{module_name}.{attr}" not in self.missing:
                            self.missing.append(f"{module_name}.{attr}")
                        continue
                    stack.enter_context(patched(
                        module_name, attr,
                        lambda fn, name=name: self._wrap(name, fn)))
            yield self

    def self_times(self, run_id: int) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time, call count) for one run id.

        Self time is a span's duration minus the union of its children's
        intervals, clipped to the span.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.run_id == run_id and span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, tuple[float, int]] = {}
        for index, span in enumerate(self.spans):
            if span.run_id != run_id:
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(index, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total, count = out.get(span.name, (0.0, 0))
            out[span.name] = (total + span.end - span.start - covered, count + 1)
        return out

    def total_time(self, name: str, run_id: int) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and s.run_id == run_id)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing_call_sites": self.missing,
                       "spans": [s._asdict() for s in self.spans]}, fh)
