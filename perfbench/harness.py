"""The timing loop: set-up, warm-up, kernel-bracketed passes, metrics.

One run of one workload, in one process:

1. set up ``SETUP_REPEATS`` times from the seed (``setup_s`` is the
   median, normalised like every wall time);
2. one untimed warm-up pass over segment 0;
3. timed passes cycling over the segments until ``seconds`` have passed
   and every segment has run at least once, each bracketed by reference
   kernel runs (see :mod:`refkernel`) and checked after the clock stops.

With ``trace`` on, each cycle runs every segment twice, untraced and
traced, and the run reports per-layer metrics instead: exact call
counts, normalised self time, share of the traced wall, the workload's
exact counts, and ``trace.overhead``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np
import refkernel
from tracer import LAYERS, LayerTracer
from workloads import DEFAULT_SEED, CheckFailed, build, digest

SETUP_REPEATS = 3

#: sha256 over the per-segment output digests at ``DEFAULT_SEED``.
FROZEN_DIGESTS = {
    ("chat_hot", "full"): "b468177626fe7d8a0215ea063ba1b2fb38e5dd2f84c0c979b67035016634810b",
    ("chat_hot", "tiny"): "c88aa81d3870ab99325d07d27bfedc2b2b2078c85b6f0bffc93dc16f6e9168be",
    ("fleet_cold", "full"): "b6d5c21aee21bd767a14a8934057bb71b02c66b3763683bc22029b795674a3bb",
    ("fleet_cold", "tiny"): "e7b0ca33e10876f2cd3f10451cc752af299b2ac2653951540db7ce74e3ecd2e7",
    ("curate", "full"): "9a1125146be76b8671ba5738bbeb6922cbc240a4d9562f94f500f7e5ff33aa64",
    ("curate", "tiny"): "9d860d7d538b33ec344bb3866aecd9ea77ecf164441dcb8ced1d8c73ef8e09d5",
}

END_TO_END_UNITS = {
    "throughput_per_s": "items/s",
    "setup_s": "s",
    "latency_p50_ticks": "ticks",
    "latency_p99_ticks": "ticks",
    "goodput_share": "share",
    "completed_share": "share",
    "augmented_share": "share",
    "peak_rss_mb": "MiB",
}

COUNT_UNITS = {
    "cache.complement_hit_rate": "share",
    "cache.embed_hit_rate": "share",
    "scheduler.batch_size_mean": "requests",
    "scheduler.queue_wait_p99_ticks": "ticks",
    "router.hedges_launched": "count",
    "router.hedge_win_share": "share",
    "router.load_max_over_mean": "ratio",
    "engine.shed_deadline": "count",
    "engine.shed_queue": "count",
    "resilience.retries": "count",
    "policy.none_share": "share",
    "pipeline.dedup_removed": "count",
    "pipeline.quality_pass_share": "share",
    "pipeline.critic_calls_per_pair": "calls/pair",
    "trace.overhead": "share",
}


def layer_units(layers: list[str]) -> dict[str, str]:
    units = {}
    for layer in layers:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "share"
    return units


def speed_factor(before_s: float, after_s: float) -> float:
    """What a wall time is multiplied by to normalise it: the nominal
    kernel time over the kernel's mean time around the measurement,
    raised to the kernel's elasticity (see :mod:`refkernel`)."""
    ratio = refkernel.NOMINAL_S / ((before_s + after_s) / 2.0)
    return ratio**refkernel.ELASTICITY


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads_active": threading.active_count(),
        "thread_env": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
            )
        },
        "nominal_kernel_s": refkernel.NOMINAL_S,
        "kernel_elasticity": refkernel.ELASTICITY,
    }


class Run:
    """One benchmark run; :meth:`execute` returns ``(result, audit)``."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 scale: str, out_dir: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.out_dir = out_dir
        self.workload = build(name, scale)
        self.segments = self.workload.shape.segments
        self.outcomes: list = [None] * self.segments
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes: list[dict] = []

    # -- pieces ----------------------------------------------------------- #

    def _setup(self, repeats: int):
        times = []
        prepared = None
        for _ in range(repeats):
            prepared = None  # let the previous set-up go before the next
            before = refkernel.time_kernel()
            start = time.perf_counter()
            prepared = self.workload.setup(self.seed)
            raw = time.perf_counter() - start
            after = refkernel.time_kernel()
            times.append(raw * speed_factor(before, after))
            self.passes.append(
                {"kind": "setup", "raw_s": raw, "ref_before_s": before,
                 "ref_after_s": after}
            )
        return prepared, times

    def _verify(self, k: int, kind: str, segment, result) -> None:
        """Check one pass's outputs; every pass over a segment must
        reproduce the outputs of its first pass."""
        try:
            outcome = segment.finish(result)
            first = self.outcomes[k]
            if first is None:
                self.outcomes[k] = outcome
            elif outcome.digest != first.digest:
                raise CheckFailed(f"segment {k} outputs changed between passes")
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{kind} pass on segment {k}: {exc}")
            print(f"perfbench: check failed: {self.errors[-1]}", file=sys.stderr)

    def _pass(self, prepared, k: int, kind: str, tracer: LayerTracer | None = None):
        """One kernel-bracketed pass over segment ``k``.

        Returns its normalised seconds and the normalising factor."""
        segment = self.workload.segment(prepared, k)
        gc.collect()  # every pass starts from the same heap state
        if tracer is not None:
            tracer.install()
        try:
            before = refkernel.time_kernel()
            start = time.perf_counter()
            result = segment.run()
            raw = time.perf_counter() - start
            after = refkernel.time_kernel()
        finally:
            if tracer is not None:
                tracer.remove()
        self.attempted += 1
        self._verify(k, kind, segment, result)
        factor = speed_factor(before, after)
        first = self.outcomes[k]
        self.passes.append(
            {"kind": kind, "segment": k, "items": first.items if first else None,
             "raw_s": raw, "ref_before_s": before, "ref_after_s": after,
             "normalised_s": raw * factor}
        )
        return raw * factor, factor

    def _checked_outcomes(self) -> list:
        if any(o is None for o in self.outcomes):
            raise SystemExit("perfbench: a segment produced no checked outputs")
        return self.outcomes

    def _frozen_digest_ok(self) -> bool:
        if self.seed != DEFAULT_SEED:
            return True
        combined = digest([o.digest for o in self.outcomes])
        expected = FROZEN_DIGESTS.get((self.name, self.scale))
        if combined != expected:
            self.errors.append(
                f"output digest {combined} != frozen {expected} at seed {self.seed}"
            )
            return False
        return True

    # -- the run ----------------------------------------------------------- #

    def execute(self) -> tuple[dict, dict]:
        prepared, setup_times = self._setup(1 if self.trace else SETUP_REPEATS)
        warm = self.workload.segment(prepared, 0)
        self._verify(0, "warm-up", warm, warm.run())

        if self.trace:
            metrics = self._traced(prepared)
        else:
            metrics = self._timed(prepared)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        digest_ok = self._frozen_digest_ok()
        units = self._units()
        result = {
            "correct": self.failed == 0 and digest_ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
        audit = {
            "workload": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "trace": int(self.trace),
            "environment": environment(),
            "errors": self.errors,
            "passes": self.passes,
        }
        return result, audit

    def _units(self) -> dict[str, str]:
        if not self.trace:
            return dict(END_TO_END_UNITS)
        units = layer_units(LAYERS)
        units.update(COUNT_UNITS)
        return units

    def _timed(self, prepared) -> dict:
        passes: list[tuple[int, float]] = []
        deadline = time.perf_counter() + self.seconds
        while len(passes) < self.segments or time.perf_counter() < deadline:
            k = len(passes) % self.segments
            norm, _ = self._pass(prepared, k, "timed")
            passes.append((k, norm))
        outcomes = self._checked_outcomes()
        metrics = self.workload.end_to_end(outcomes)
        # The median pass rate: a single kernel sample can misjudge the
        # machine's speed over one pass, and the median discards those.
        metrics["throughput_per_s"] = statistics.median(
            outcomes[k].items / norm for k, norm in passes
        )
        return metrics

    def _traced(self, prepared) -> dict:
        tracer = LayerTracer()
        untraced: list[list[float]] = [[] for _ in range(self.segments)]
        traced: list[list[float]] = [[] for _ in range(self.segments)]
        self_s: list[list[list[float]]] = [[] for _ in range(self.segments)]
        calls: list[list[int] | None] = [None] * self.segments
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < self.segments or time.perf_counter() < deadline:
            j = k % self.segments
            norm, _ = self._pass(prepared, j, "untraced")
            untraced[j].append(norm)
            tracer.reset()
            tracer.recording = k == 0
            norm, factor = self._pass(prepared, j, "traced", tracer)
            tracer.recording = False
            traced[j].append(norm)
            self_s[j].append([s * factor for s in tracer.self_s])
            if calls[j] is None:
                calls[j] = list(tracer.calls)
            k += 1

        written = tracer.write_spans(
            self.out_dir / f"spans-{self.name}-seed{self.seed}.jsonl"
        )
        self.passes.append(
            {"kind": "spans", "written": written, "dropped": tracer.spans_dropped}
        )
        wall = sum(statistics.fmean(t) for t in traced)
        metrics: dict[str, float] = {}
        for i, layer in enumerate(tracer.layers):
            layer_self = sum(
                statistics.fmean(pass_self[i] for pass_self in per_segment)
                for per_segment in self_s
            )
            metrics[f"{layer}.calls"] = sum(c[i] for c in calls)
            metrics[f"{layer}.self_s"] = layer_self
            metrics[f"{layer}.share"] = layer_self / wall
        metrics.update({name: 0.0 for name in COUNT_UNITS})
        metrics.update(self.workload.counts(self._checked_outcomes()))
        metrics["trace.overhead"] = (
            sum(statistics.median(t) for t in traced)
            / sum(statistics.median(t) for t in untraced)
            - 1.0
        )
        return metrics

