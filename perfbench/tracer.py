"""Per-layer wall-clock tracing from outside the program.

:class:`LayerTracer` wraps the public functions each layer exposes (the
table in :data:`LAYERS`) for the traced run only, and restores them
afterwards.  Every wrapped call is one span: its layer, function, start,
duration, parent span, and the request id it serves when the call takes
a request (or its nearest ancestor does).  A layer's self time is its
spans' durations minus the time their child spans cover, computed on
the wrapper stack as calls return.

Module-level functions are patched wherever the program looks them up:
every loaded ``repro`` module that bound the original under that name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: layer -> [(module, attribute path, index of the request argument)].
#: The request argument (a ``ServeRequest`` or ``TimedRequest``) is
#: counted with ``self`` for methods; ``None`` means the call takes none.
LAYERS: dict[str, list[tuple[str, str, int | None]]] = {
    "engine.loop": [("repro.serve.engine", "ServingEngine.run", None)],
    "scheduler.batcher": [
        ("repro.serve.scheduler", "MicroBatcher.submit_at", 2),
        ("repro.serve.scheduler", "MicroBatcher.ready", None),
        ("repro.serve.scheduler", "MicroBatcher.take", None),
    ],
    "router.place": [
        ("repro.serve.router", "Router.admit", 1),
        ("repro.serve.router", "Router.route", 1),
        ("repro.serve.router", "Router.resolve", 1),
        ("repro.serve.router", "Router.release", None),
        ("repro.serve.router", "Router.hedge_candidate", 1),
        ("repro.serve.router", "Router.resolve_hedge", None),
        ("repro.serve.router", "Router.wfq_tags", None),
    ],
    "gateway.plan": [("repro.serve.gateway", "PasGateway.plan_batch", None)],
    "gateway.serve": [("repro.serve.gateway", "PasGateway.serve_planned", 1)],
    "gateway.latency": [
        ("repro.serve.gateway", "PasGateway.completion_latency", 1),
        ("repro.llm.api", "ChatClient.completion_latency", None),
    ],
    "cache.lru": [
        ("repro.serve.cache", "LruCache.get", None),
        ("repro.serve.cache", "LruCache.peek", None),
        ("repro.serve.cache", "LruCache.put", None),
    ],
    "pas.augment": [
        ("repro.core.pas", "PasModel.augment_with_embeddings", None),
        ("repro.core.pas", "PasModel.augment_batch", None),
        ("repro.core.pas", "PasModel.embed_prompts", None),
    ],
    "sft.predict": [
        ("repro.llm.sft", "SftDirectivePredictor.predict_aspects_batch", None),
        ("repro.llm.sft", "SftDirectivePredictor.predict_aspects_from_embedding", None),
    ],
    "embedding.embed": [
        ("repro.embedding.model", "EmbeddingModel.embed_batch", None),
        ("repro.embedding.model", "EmbeddingModel.embed", None),
        ("repro.embedding.model", "EmbeddingModel.embed_cached", None),
    ],
    "policy.select": [
        ("repro.policy.policy", "AugmentationPolicy.select", None),
        ("repro.policy.policy", "AugmentationPolicy.complement_for", None),
        ("repro.policy.policy", "AugmentationPolicy.candidates", None),
        ("repro.policy.policy", "AugmentationPolicy.observe", None),
    ],
    "llm.client": [("repro.llm.api", "ChatClient.complete", None)],
    "llm.respond": [("repro.llm.engine", "SimulatedLLM.respond", None)],
    "world.directives": [
        ("repro.world.aspects", "parse_directives", None),
        ("repro.world.aspects", "find_cues", None),
    ],
    "obs.metrics": [
        ("repro.obs.metrics", "Counter.inc", None),
        ("repro.obs.metrics", "Gauge.set", None),
        ("repro.obs.metrics", "Gauge.inc", None),
        ("repro.obs.metrics", "Gauge.dec", None),
        ("repro.obs.metrics", "Histogram.observe", None),
    ],
    "cluster.dedup": [("repro.cluster.dedup", "deduplicate", None)],
    "ann.insert": [
        ("repro.ann.hnsw", "HnswIndex.add", None),
        ("repro.ann.hnsw", "HnswIndex.add_batch", None),
    ],
    "ann.search": [
        ("repro.ann.hnsw", "HnswIndex.search_batch_arrays", None),
        ("repro.ann.hnsw", "HnswIndex.knn_graph", None),
        ("repro.ann.hnsw", "HnswIndex.search", None),
    ],
    "llm.grade": [
        ("repro.llm.engine", "SimulatedLLM.grade_prompt_quality", None),
        ("repro.llm.engine", "SimulatedLLM.grade_prompt_quality_batch", None),
    ],
    "classify.model": [
        ("repro.classify.model", "CategoryClassifier.fit", None),
        ("repro.classify.model", "CategoryClassifier.fit_synthetic", None),
        ("repro.classify.model", "CategoryClassifier.predict", None),
        ("repro.classify.model", "CategoryClassifier.predict_batch", None),
    ],
    "pipeline.generate": [
        ("repro.pipeline.generate", "FewShotGenerator.generate", None),
        ("repro.pipeline.generate", "PairGenerator.build_pair", None),
    ],
    "pipeline.critic": [
        ("repro.pipeline.generate", "PairCritic.critique", None),
        ("repro.pipeline.generate", "PairCritic.critique_batch", None),
    ],
    "pipeline.runner": [("repro.pipeline.runner", "PipelineRunner.run", None)],
}


def _request_id(arg) -> str | None:
    """The request id carried by a ``ServeRequest`` or ``TimedRequest``."""
    request = getattr(arg, "request", arg)
    return getattr(request, "request_id", None)


class LayerTracer:
    """Install, accumulate, and remove the layer wrappers.

    ``calls`` and ``self_s`` accumulate per layer over every traced call.
    Spans are kept only while :attr:`recording` is true, up to
    ``max_spans``; later spans are counted in :attr:`spans_dropped`.
    """

    def __init__(self, max_spans: int = 250_000):
        self.layers = list(LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.recording = False
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        # Wrapper stack frames: [child seconds, span id, request id].
        self._stack: list[list] = []
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- install / remove ------------------------------------------------ #

    def install(self) -> None:
        for index, layer in enumerate(self.layers):
            for module_name, path, rid_arg in LAYERS[layer]:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(index, path, original, rid_arg))
                else:
                    original = getattr(module, path)
                    wrapper = self._wrap(index, path, original, rid_arg)
                    for loaded in list(sys.modules.values()):
                        name = getattr(loaded, "__name__", "")
                        if name.startswith("repro") and loaded.__dict__.get(path) is original:
                            self._patch(loaded, path, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- the wrapper ------------------------------------------------------ #

    def _wrap(self, index: int, name: str, fn, rid_arg: int | None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rid = None
            if rid_arg is not None and len(args) > rid_arg:
                rid = _request_id(args[rid_arg])
            if rid is None and parent is not None:
                rid = parent[2]
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [0.0, span, rid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                self_s[index] += elapsed - frame[0]
                calls[index] += 1
                if tracer.recording:
                    if len(tracer.spans) < tracer.max_spans:
                        tracer.spans.append(
                            (span, parent[1] if parent else 0, index, name, start, elapsed, rid)
                        )
                    else:
                        tracer.spans_dropped += 1

        return traced

    # -- results ---------------------------------------------------------- #

    def reset(self) -> None:
        self.calls[:] = [0] * len(self.layers)
        self.self_s[:] = [0.0] * len(self.layers)

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as out:
            for span, parent, index, name, start, elapsed, rid in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span": span,
                            "parent": parent,
                            "layer": self.layers[index],
                            "fn": name,
                            "start_s": round(start - origin, 9),
                            "dur_s": round(elapsed, 9),
                            "request_id": rid,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
