"""Seed-pure inputs: prompt pools, arrival traces, and curation corpora.

Everything here is a function of ``(seed, workload, stream)`` and nothing
else, and the program under test receives only what these functions
return.  Arrival traces are generated here rather than by the program's
own traffic generator, so a change to the program cannot change the
benchmark's inputs.  Traces are open loop and fully precomputed: every
arrival tick is fixed before the engine starts, so the generator can
never fall behind the system it drives.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.serve.traffic import TenantProfile, TimedRequest
from repro.serve.types import ServeRequest
from repro.world.prompts import CorpusConfig, PromptFactory, SyntheticPrompt

MODEL = "gpt-4-0613"


def rng_for(seed: int, workload: str, stream: str) -> np.random.Generator:
    """An independent random stream per ``(seed, workload, stream)``."""
    return np.random.default_rng([seed, zlib.crc32(f"{workload}/{stream}".encode())])


def prompt_pool(n: int, rng: np.random.Generator) -> list[SyntheticPrompt]:
    """``n`` synthetic prompts with pairwise distinct texts."""
    factory = PromptFactory(rng=rng)
    pool: list[SyntheticPrompt] = []
    seen: set[str] = set()
    while len(pool) < n:
        prompt = factory.make_prompt()
        if prompt.text not in seen:
            seen.add(prompt.text)
            pool.append(prompt)
    return pool


def corpus(n: int, rng: np.random.Generator) -> list[SyntheticPrompt]:
    """A raw curation corpus: clean prompts plus duplicates and junk."""
    return PromptFactory(rng=rng).make_corpus(CorpusConfig(n_prompts=n))


def trace(
    pool: list[SyntheticPrompt],
    n: int,
    rng: np.random.Generator,
    *,
    label: str,
    mean_gap: float,
    zipf: float,
    tenants: tuple[TenantProfile, ...] = (TenantProfile("default"),),
    diurnal_amplitude: float = 0.0,
    rankings: int = 1,
) -> list[TimedRequest]:
    """An open-loop trace of ``n`` requests over ``pool``.

    Gaps are exponential with mean ``mean_gap`` ticks; a non-zero
    ``diurnal_amplitude`` swells and ebbs the rate sinusoidally over one
    period spanning the whole trace.  Prompt popularity follows a Zipf
    law of exponent ``zipf`` over a random ranking of the pool, redrawn
    ``rankings - 1`` times at equal intervals (popularity drift).
    Tenants contribute their ``name``, ``weight``, ``priority`` and
    ``deadline_ticks``.
    """
    gaps = rng.exponential(mean_gap, n)
    if diurnal_amplitude:
        phase = 2.0 * np.pi * np.arange(n) / n
        gaps = gaps / (1.0 + diurnal_amplitude * np.sin(phase))
    ticks = np.floor(np.cumsum(gaps)).astype(np.int64) + 1

    weights = 1.0 / np.arange(1, len(pool) + 1, dtype=np.float64) ** zipf
    ranks = np.searchsorted(
        np.cumsum(weights / weights.sum()), rng.random(n), side="right"
    ).clip(0, len(pool) - 1)
    epoch = np.arange(n) * rankings // n
    orders = np.stack([rng.permutation(len(pool)) for _ in range(rankings)])
    picks = orders[epoch, ranks]
    shares = np.array([t.weight for t in tenants], dtype=np.float64)
    owners = np.searchsorted(
        np.cumsum(shares / shares.sum()), rng.random(n), side="right"
    ).clip(0, len(tenants) - 1)

    out: list[TimedRequest] = []
    for i in range(n):
        tenant = tenants[owners[i]]
        request = ServeRequest(
            prompt=pool[picks[i]].text,
            model=MODEL,
            request_id=f"{label}-{tenant.name}-{i:06d}",
            tenant=tenant.name,
        )
        out.append(
            TimedRequest(
                tick=int(ticks[i]),
                request=request,
                tenant=tenant.name,
                priority=tenant.priority,
                deadline_ticks=tenant.deadline_ticks,
            )
        )
    return out
