"""The three workloads: what each builds, runs, checks, and reports.

A workload is set up once per run from its seed, then split into a fixed
number of *segments*: independent slices of traffic (serve) or corpus
(curate), each run against freshly built program objects, so every pass
over a segment does identical work and yields identical outputs.  The
harness times only :attr:`Segment.run`; building the objects before it
and checking the outputs after it are untimed.

Tick-domain metrics are exact: they are pooled over every segment once,
on the program's logical clock, and do not depend on the machine.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from inputs import corpus, prompt_pool, rng_for, trace

from repro import PasModel, build_default_dataset
from repro.obs import EventLog, MetricsRegistry, Observability
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import PipelineRunner
from repro.policy import AugmentationPolicy, PolicyConfig
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.config import ServingConfig
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.router import FleetPlan, HedgePolicy, Router, RouterConfig
from repro.serve.traffic import TenantProfile

#: The seed whose outputs are pinned by a frozen digest.
DEFAULT_SEED = 0

#: The deployed PAS model is the same in every run: its training set is
#: built from this fixed seed, while the workload seed drives the traffic.
MODEL_SEED = 3


class CheckFailed(Exception):
    """An output or invariant check failed; the run is not correct."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tick_percentile(values: list[int], q: float) -> float:
    """The ``q``-th percentile of integer tick counts, interpolated within
    the tick: the nearest-rank value ``v`` is read as the interval
    ``[v - 0.5, v + 0.5)`` its ties fill evenly (the grouped-data
    percentile).  Whole-tick steps would otherwise dominate the seed-to-
    seed spread of a median near 20 ticks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q / 100.0 * len(ordered)
    value = ordered[max(1, math.ceil(rank)) - 1]
    below = bisect.bisect_left(ordered, value)
    ties = bisect.bisect_right(ordered, value) - below
    return value - 0.5 + (rank - below) / ties


def digest(rows) -> str:
    """sha256 over the canonical JSON of ``rows``."""
    material = json.dumps(rows, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class Outcome:
    """What one pass over one segment produced, checked and summarised."""

    items: int  #: work units for the throughput numerator
    digest: str
    data: dict = field(default_factory=dict)


@dataclass
class Segment:
    """One ready-to-run segment: ``run`` is timed, ``finish`` is not."""

    run: Callable[[], object]
    finish: Callable[[object], Outcome]


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServeShape:
    segments: int
    requests: int  #: per segment
    pool: int  #: distinct prompts per segment
    zipf: float
    rankings: int  #: popularity rankings per segment (drift)
    mean_gap: float
    diurnal: float  #: amplitude of the rate's swell over each segment
    limit_ticks: int  #: the goodput latency limit
    dataset_prompts: int  #: corpus size of the SFT training set
    fleet: bool  #: a 4-replica router (else a bare gateway)


class ServeWorkload:
    """``chat_hot`` and ``fleet_cold``: a trained PAS behind the engine."""

    def __init__(self, name: str, shape: ServeShape):
        self.name = name
        self.shape = shape
        self.config = self._config() if shape.fleet else None

    @staticmethod
    def _config() -> ServingConfig:
        config = ServingConfig(
            router=RouterConfig(
                n_replicas=4, policy="least_loaded", cache_scope="replica", seed=7
            ),
            gateway=GatewayConfig(
                seed=5,
                fault_plan=FaultPlan(seed=11, completion_failure_rate=0.02),
                retry_policy=RetryPolicy(max_retries=3, seed=11),
            ),
            engine=EngineConfig(max_inflight=8, max_queue=1024, shed_policy="reject"),
            policy=PolicyConfig(enabled=True, seed=13, judge_seed=13),
            fleet=FleetPlan(
                hedge=HedgePolicy(percentile=95.0),
                spike_rate=0.1,
                spike_ticks=64,
            ),
        )
        config.validate()
        return config

    def _tenants(self) -> tuple[TenantProfile, ...]:
        if not self.shape.fleet:
            return (TenantProfile("default"),)
        # Batch work yields to interactive traffic and is shed first: its
        # queueing budget is short, so overload turns into shed batch
        # requests instead of an ever-growing queue.
        return (
            TenantProfile("interactive", priority=1, deadline_ticks=256),
            TenantProfile("batch", priority=0, deadline_ticks=32),
        )

    def setup(self, seed: int) -> dict:
        """Dataset build + SFT + pools + traces + one deployment."""
        shape = self.shape
        dataset = build_default_dataset(
            n_prompts=shape.dataset_prompts, seed=MODEL_SEED, curate=True
        )
        pas = PasModel(base_model="qwen2-7b-chat", seed=MODEL_SEED).train(dataset)
        pools, traces = [], []
        for k in range(shape.segments):
            pool = prompt_pool(shape.pool, rng_for(seed, self.name, f"pool{k}"))
            pools.append(pool)
            traces.append(
                trace(
                    pool,
                    shape.requests,
                    rng_for(seed, self.name, f"trace{k}"),
                    label=f"s{k}",
                    mean_gap=shape.mean_gap,
                    zipf=shape.zipf,
                    tenants=self._tenants(),
                    diurnal_amplitude=shape.diurnal,
                    rankings=shape.rankings,
                )
            )
        prepared = {"pas": pas, "pools": pools, "traces": traces}
        self._deploy(prepared, 0)
        return prepared

    def _deploy(self, prepared: dict, k: int):
        """Fresh program objects for one pass: cold caches, new bandit."""
        pas = prepared["pas"]
        registry = MetricsRegistry()
        obs = Observability(metrics=registry)
        if not self.shape.fleet:
            gateway = PasGateway(pas, GatewayConfig(seed=5), obs=obs)
            engine = ServingEngine(gateway, EngineConfig(max_inflight=8))
            return engine, engine.router, registry, [0]
        policy = AugmentationPolicy.from_config(
            pas, self.config.policy, corpus=prepared["pools"][k]
        )
        router = Router(pas, self.config, obs=obs, policy=policy)
        # The one figure no public stat exposes: hedge legs actually
        # started, counted on this router instance only.
        launched = [0]
        take_hedge = router.take_hedge

        def counted(replica: int) -> None:
            launched[0] += 1
            take_hedge(replica)

        router.take_hedge = counted
        return ServingEngine(router, self.config), router, registry, launched

    def segment(self, prepared: dict, k: int) -> Segment:
        engine, router, registry, launched = self._deploy(prepared, k)
        timed = prepared["traces"][k]
        return Segment(
            run=lambda: engine.run(timed),
            finish=lambda result: self._finish(result, timed, router, registry, launched),
        )

    def _finish(self, result, timed, router, registry, launched) -> Outcome:
        stats = result.stats
        responses = result.responses
        require(len(responses) == len(timed), "one response per arrival")
        require(
            stats.arrived == stats.served + stats.failed == len(timed),
            f"arrived {stats.arrived} != served {stats.served} + failed {stats.failed}",
        )
        require(
            registry.gauge("pas_engine_inflight").value() == 0,
            "pas_engine_inflight gauge not back to zero",
        )
        require(
            all(load == 0 for load in router.stats.load),
            f"router loads not back to zero: {router.stats.load}",
        )
        hedges = router.stats.hedges
        started = hedges.get("win", 0) + hedges.get("loss", 0)
        require(
            started == launched[0],
            f"hedge outcomes {hedges} do not sum to {launched[0]} launched",
        )
        for request, response in zip(timed, responses, strict=True):
            require(
                response.request_id == request.request.request_id,
                "responses out of trace order",
            )

        served = [r for r in responses if not r.failed]
        # Shed requests never finish; a gateway failure finishes with a
        # latency, so it is taken back out of the within-limit count.
        finished_failed = sum(1 for r in responses if r.failed and r.attempts > 0)
        within = sum(1 for t in stats.latency_ticks if t <= self.shape.limit_ticks)
        gateways = router.replicas
        return Outcome(
            items=stats.served,
            digest=digest(
                [
                    [r.request_id, r.status, r.response, r.complement, r.strategy]
                    for r in responses
                ]
            ),
            data={
                "arrived": stats.arrived,
                "served": stats.served,
                "good": max(0, within - finished_failed),
                "augmented": sum(1 for r in served if r.complement),
                "latency": list(stats.latency_ticks),
                "queue_wait": list(stats.queue_wait_ticks),
                "batch_sizes": [record.size for record in result.batch_records],
                "shed": dict(stats.shed),
                "hedges": hedges,
                "routed": router.stats.routed,
                "complement_hit_rate": router.cache_hit_rate,
                "embed_hits": sum(g.stats.embed_cache_hits for g in gateways),
                "embed_misses": sum(g.stats.embed_cache_misses for g in gateways),
                "retries": sum(g.stats.retries for g in gateways),
                "strategies": Counter(r.strategy for r in served if r.strategy),
            },
        )

    def end_to_end(self, outcomes: list[Outcome]) -> dict[str, float]:
        data = [o.data for o in outcomes]
        arrived = sum(d["arrived"] for d in data)
        served = sum(d["served"] for d in data)
        latency = [t for d in data for t in d["latency"]]
        return {
            "latency_p50_ticks": tick_percentile(latency, 50.0),
            "latency_p99_ticks": tick_percentile(latency, 99.0),
            "goodput_share": sum(d["good"] for d in data) / arrived,
            "completed_share": served / arrived,
            "augmented_share": sum(d["augmented"] for d in data) / max(served, 1),
        }

    def counts(self, outcomes: list[Outcome]) -> dict[str, float]:
        data = [o.data for o in outcomes]
        hedges = Counter()
        strategies = Counter()
        shed = Counter()
        for d in data:
            hedges.update(d["hedges"])
            strategies.update(d["strategies"])
            shed.update(d["shed"])
        started = hedges["win"] + hedges["loss"]
        routed = [sum(col) for col in zip(*(d["routed"] for d in data))]
        mean_routed = sum(routed) / len(routed) if routed else 0.0
        embed = sum(d["embed_hits"] + d["embed_misses"] for d in data)
        sizes = [s for d in data for s in d["batch_sizes"]]
        return {
            "cache.complement_hit_rate": sum(d["complement_hit_rate"] for d in data)
            / len(data),
            "cache.embed_hit_rate": sum(d["embed_hits"] for d in data) / embed
            if embed
            else 0.0,
            "scheduler.batch_size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
            "scheduler.queue_wait_p99_ticks": tick_percentile(
                [w for d in data for w in d["queue_wait"]], 99.0
            ),
            "router.hedges_launched": started,
            "router.hedge_win_share": hedges["win"] / started if started else 0.0,
            "router.load_max_over_mean": max(routed) / mean_routed
            if mean_routed
            else 1.0,
            "engine.shed_deadline": shed["deadline"],
            "engine.shed_queue": shed["queue"],
            "resilience.retries": sum(d["retries"] for d in data),
            "policy.none_share": strategies["none"] / sum(strategies.values())
            if strategies
            else 0.0,
        }


# --------------------------------------------------------------------------- #
# curation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CurateShape:
    segments: int
    prompts: int  #: raw corpus size per segment


class CurateWorkload:
    """``curate``: the offline pipeline over a raw synthetic corpus.

    The runner's logical clock advances one tick per item a stage
    processes and one per critic call, and the whole corpus arrives at
    tick 0, so a selected prompt's latency is the tick at which its
    Algorithm-1 loop ends.  That tick is rebuilt from the dataset and
    checked against the runner's own checkpoint and drop events.
    """

    name = "curate"

    def __init__(self, shape: CurateShape):
        self.shape = shape
        self.config = PipelineConfig()

    def setup(self, seed: int) -> dict:
        return {
            "corpora": [
                corpus(self.shape.prompts, rng_for(seed, self.name, f"corpus{k}"))
                for k in range(self.shape.segments)
            ]
        }

    def segment(self, prepared: dict, k: int) -> Segment:
        events = EventLog()
        runner = PipelineRunner(self.config, obs=Observability(events=events))
        raw = prepared["corpora"][k]
        return Segment(
            run=lambda: runner.run(raw),
            finish=lambda result: self._finish(result, raw, events),
        )

    def _finish(self, result, raw, events: EventLog) -> Outcome:
        collection = result.collection
        selected = collection.selected
        pairs = {pair.prompt_uid: pair for pair in result.dataset.pairs}
        skipped = set(result.skipped_uids)
        max_rounds = self.config.generation.max_rounds
        require(collection.n_input == len(raw), "collection saw the whole corpus")
        require(
            len(pairs) + result.dataset.n_dropped + len(skipped) == len(selected),
            "every selected prompt ends as a pair, a drop, or a skip",
        )
        require(not skipped, "no critic faults are injected, so nothing is skipped")

        checkpoints = {e.attrs["stage"]: e.tick for e in events.by_kind("pipeline.checkpoint")}
        dropped_at = {e.attrs["uid"]: e.tick for e in events.by_kind("pipeline.pair_dropped")}
        tick = checkpoints["classify"]
        latency: list[int] = []
        critic_calls = 0
        for item in selected:
            pair = pairs.get(item.prompt.uid)
            calls = pair.regeneration_rounds + 1 if pair else max_rounds + 1
            critic_calls += calls
            tick += calls
            latency.append(tick)
            if pair is None:
                require(
                    dropped_at.get(item.prompt.uid) == tick,
                    f"prompt {item.prompt.uid} dropped off the rebuilt clock",
                )
        require(
            tick == checkpoints["generate"],
            f"rebuilt generate clock {tick} != runner's {checkpoints['generate']}",
        )
        return Outcome(
            items=len(raw),
            digest=digest(
                {"dataset": result.dataset.as_dict(), "skipped": sorted(skipped)}
            ),
            data={
                "prompts": len(raw),
                "selected": len(selected),
                "pairs": len(pairs),
                "skipped": len(skipped),
                "latency": latency,
                "critic_calls": critic_calls,
                "after_dedup": collection.n_after_dedup,
                "after_quality": collection.n_after_quality,
            },
        )

    def end_to_end(self, outcomes: list[Outcome]) -> dict[str, float]:
        data = [o.data for o in outcomes]
        selected = sum(d["selected"] for d in data)
        pairs = sum(d["pairs"] for d in data)
        latency = [t for d in data for t in d["latency"]]
        return {
            "latency_p50_ticks": tick_percentile(latency, 50.0),
            "latency_p99_ticks": tick_percentile(latency, 99.0),
            "goodput_share": pairs / sum(d["prompts"] for d in data),
            "completed_share": 1.0 - sum(d["skipped"] for d in data) / selected,
            "augmented_share": pairs / selected,
        }

    def counts(self, outcomes: list[Outcome]) -> dict[str, float]:
        data = [o.data for o in outcomes]
        after_dedup = sum(d["after_dedup"] for d in data)
        return {
            "pipeline.dedup_removed": sum(d["prompts"] - d["after_dedup"] for d in data),
            "pipeline.quality_pass_share": sum(d["after_quality"] for d in data)
            / after_dedup,
            "pipeline.critic_calls_per_pair": sum(d["critic_calls"] for d in data)
            / sum(d["selected"] for d in data),
        }


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #

def build(name: str, scale: str = "full"):
    """The named workload at ``full`` (benchmark) or ``tiny`` (smoke) size."""
    tiny = scale == "tiny"
    segments = 2 if tiny else 8
    if name == "chat_hot":
        return ServeWorkload(
            name,
            ServeShape(
                segments=segments,
                requests=150 if tiny else 1200,
                pool=16 if tiny else 64,
                zipf=1.1,
                rankings=4,
                mean_gap=3.0,
                diurnal=0.0,
                limit_ticks=64,
                dataset_prompts=60 if tiny else 150,
                fleet=False,
            ),
        )
    if name == "fleet_cold":
        return ServeWorkload(
            name,
            ServeShape(
                segments=segments,
                requests=150 if tiny else 800,
                pool=128 if tiny else 768,
                zipf=0.6,
                rankings=1,
                mean_gap=0.8,
                diurnal=0.8,
                limit_ticks=256,
                dataset_prompts=60 if tiny else 150,
                fleet=True,
            ),
        )
    if name == "curate":
        return CurateWorkload(CurateShape(segments=segments, prompts=60 if tiny else 200))
    raise KeyError(name)
