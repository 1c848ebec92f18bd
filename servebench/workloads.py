"""The serving benchmark's workloads; ``run.py`` runs one per child process.

    python3 servebench/workloads.py --workload lone --seed 1 --seconds 20 --trace 0

prints one JSON line with the run's outcome counts, its end-to-end
figures and, with ``--trace 1``, its per-layer figures.  Every input is
made from ``--seed``.  The program is driven only through
``ServeRuntime.submit`` / ``answer_batch`` and ``Gateway.submit``.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import ckpt  # noqa: E402
from repro.config import ModelConfig  # noqa: E402
from repro.core import HalkModel, topk_rows  # noqa: E402
from repro.gateway import Gateway, GatewayRejected  # noqa: E402
from repro.kg import KnowledgeGraph  # noqa: E402
from repro.kg.xl import fb15k_xl_config, stream_triples  # noqa: E402
from repro.nn import no_grad  # noqa: E402
from repro.queries import (Entity, Intersection, Projection,  # noqa: E402
                           execute, get_structure)
from repro.queries.sampler import (GroundedQuery, QuerySampler,  # noqa: E402
                                   SamplerConfig)
from repro.serve import ServeConfig, ServeError, ServeRuntime  # noqa: E402
from repro.serve.canonical import canonicalize  # noqa: E402

from layers import BLOCKING, CountPass, LayerProbe  # noqa: E402
from quality import (PAPER_STRUCTURES, fixed_test_workload,  # noqa: E402
                     ranked_list_quality, served_quality, test_quality)
from train_model import (MODEL_CONFIG, MODEL_EXPECT, MODEL_PATH,  # noqa: E402
                         load_splits)

#: closed-loop figures are medians over this many equal segments of a
#: run's requests, so one burst of host noise moves one segment only
SEGMENTS = 10
#: a request still unresolved this long after it was due has failed
REQUEST_BOUND_S = 10.0
#: the model's filtered MRR / Hits@3 on the fixed FB237 test queries may
#: drift this far (absolute) from the values recorded at training time
QUALITY_TOLERANCE = 0.005
#: answer sources that must equal the reference bitwise
EXACT_SOURCES = ("model", "answer_cache")
DEGRADED_SOURCES = ("exact", "lsh")


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Traffic of one offered load: what was sent and what came back."""

    name: str
    #: offered rate in requests/s (open loop); None for closed loop
    rate: float | None = None
    #: seconds spent driving traffic
    seconds: float = 0.0
    #: latency (ms, from when each answered request was due)
    latencies: list = field(default_factory=list)
    #: closed loop, in send order: (latency ms or None if failed,
    #: wall seconds and process CPU seconds the request accounts for)
    records: list = field(default_factory=list)
    #: open loop: process CPU seconds the phase used
    cpu_seconds: float = 0.0
    attempted: int = 0
    #: errored, shed or unresolved within REQUEST_BOUND_S
    failed: int = 0
    shed: int = 0
    #: open loop: how late the generator sent each request (ms)
    lateness_ms: list = field(default_factory=list)
    #: open loop: requests in flight when the last one was sent
    backlog: int = 0


@dataclass
class Env:
    """One set-up: graph, model and the serving front end on top."""

    workload: "Workload"
    model: object
    kg: KnowledgeGraph
    runtime: ServeRuntime
    gateway: Gateway | None = None
    #: workload-specific set-up products (dataset splits, ...)
    extra: dict = field(default_factory=dict)
    #: counters summed over every runtime retired so far
    counters: dict = field(default_factory=dict)
    #: (count, mean) of the shard workers' rank_block_ms histograms
    shard_blocks: list = field(default_factory=list)
    used: bool = False
    #: a request never came back: the runtime may hold stuck threads, so
    #: it is abandoned instead of closed and the process exits hard
    wedged: bool = False
    #: checks every answer as it arrives (set before traffic starts)
    check: "AnswerCheck | None" = None
    #: per-layer timers of a traced drive, cleared after its warm-up
    probe: LayerProbe | None = None

    def fresh(self) -> None:
        """Start serving on a cold runtime unless this one is unused."""
        if self.used:
            self.retire()
            self.runtime = ServeRuntime(self.model, kg=self.kg,
                                        config=self.workload.config())
            if self.workload.gateway:
                self.gateway = Gateway(self.runtime)
        self.used = True

    def restart(self) -> None:
        """A cold runtime and zeroed counters (before a traced drive)."""
        self.fresh()
        self.used = False
        self.counters.clear()
        self.shard_blocks.clear()

    def retire(self) -> None:
        snapshot = self.runtime.stats()
        for name, value in snapshot.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, hist in snapshot.histograms.items():
            if name.startswith("rank_block_ms"):
                self.shard_blocks.append((hist.count, hist.mean))
        self.close()

    def close(self) -> None:
        if self.wedged:
            return
        if self.gateway is not None:
            self.gateway.close()
        self.runtime.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus any shard workers, in MB."""
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for process in self.runtime.mem_payload()["processes"][1:]:
            peak_kb += _vm_hwm_kb(process["pid"])
        return peak_kb / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _cpu_steal(since=None):
    """``(steal, total)`` CPU jiffies of the machine, or, given an
    earlier reading, the share of CPU time the hypervisor took since."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    now = (fields[7], sum(fields))
    if since is None:
        return now
    return (now[0] - since[0]) / max(now[1] - since[1], 1)


def _canonical(grounded: GroundedQuery) -> GroundedQuery:
    # the runtime canonicalises every query; handing it canonical trees
    # lets the lone reference path see exactly the served tree
    return replace(grounded, query=canonicalize(grounded.query))


def _cycled(pools: dict[str, list], rows: range) -> list:
    return [pools[name][row] for row in rows for name in pools]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: requests answered within this many ms count towards goodput
    limit_ms = 0.0
    #: requests go through the admission gateway
    gateway = False
    #: answers can be scored against the paper's filtered protocol
    trained = False
    #: set-up is repeated this many times per run and the median reported
    setup_repeats = 50
    #: None: every query's reference is computed before traffic starts;
    #: N: only N queries spread evenly over the table are checked, their
    #: references computed after traffic (for graphs where one is costly)
    checked: int | None = None

    def config(self) -> ServeConfig:
        return ServeConfig()

    def count_config(self) -> ServeConfig:
        """Config of the count replay (batches independent of timing)."""
        return self.config()

    def build(self, seed: int):
        """Graph and model: ``(model, serving graph, extra)``."""
        raise NotImplementedError

    def setup(self, seed: int) -> Env:
        model, kg, extra = self.build(seed)
        runtime = ServeRuntime(model, kg=kg, config=self.config())
        gateway = Gateway(runtime) if self.gateway else None
        return Env(self, model, kg, runtime, gateway, extra)

    def top_k(self, env: Env) -> int:
        return 10

    def inputs(self, env: Env, seed: int, seconds: float):
        """``(table of GroundedQuery, traffic plan)`` for ``seconds``."""
        raise NotImplementedError

    def count_blocks(self, table, plan) -> list[list]:
        """Query blocks of the count replay, one submission each."""
        return [[table[i]] for i in range(len(PAPER_STRUCTURES))]

    def drive(self, env: Env, table, plan, seconds: float) -> list[Phase]:
        """Closed loop by default: one client sending blocks."""
        return [_closed_loop(env, table, plan, seconds, self.top_k(env),
                             Phase(self.name))]

    def summarize(self, phases: list[Phase]) -> dict:
        """Closed-loop figures: medians over the run's segments."""
        (phase,) = phases
        rows = []
        for chunk in np.array_split(np.arange(len(phase.records)),
                                    SEGMENTS):
            records = [phase.records[i] for i in chunk]
            answered = [v for v, _, _ in records if v is not None]
            if not answered:
                continue
            seconds = max(sum(s for _, s, _ in records), 1e-9)
            rows.append({**_latency_figures(answered),
                         "cpu_ms_per_query": 1000.0 * sum(
                             c for _, _, c in records) / len(answered),
                         "throughput_qps": len(answered) / seconds,
                         "goodput_qps": sum(1 for v in answered
                                            if v <= self.limit_ms)
                         / seconds})
        if not rows:
            return {"latency_samples": 0, "throughput_qps": 0.0,
                    "goodput_qps": 0.0}
        out = {key: float(np.median([row[key] for row in rows]))
               for key in ("p50_ms", "p99_ms", "throughput_qps",
                           "goodput_qps", "cpu_ms_per_query")}
        out["latency_samples"] = len(phase.latencies)
        out["segment_samples"] = min(r["latency_samples"] for r in rows)
        return out


def _latency_figures(latencies: list) -> dict:
    if not latencies:
        return {"latency_samples": 0}
    values = np.asarray(latencies)
    return {"p50_ms": float(np.percentile(values, 50)),
            "p99_ms": float(np.percentile(values, 99)),
            "latency_samples": int(values.size)}


class TrainedFb237(Workload):
    """Serves the benchmark's own trained FB237 HaLk checkpoint."""

    trained = True

    def build(self, seed: int):
        splits = load_splits()
        checkpoint = ckpt.load_checkpoint(MODEL_PATH, expect=MODEL_EXPECT)
        model = HalkModel(splits.train, MODEL_CONFIG)
        model.load_state_dict(checkpoint.state["model"])
        meta = checkpoint.manifest.meta
        return model, splits.train, {
            "splits": splits,
            "recorded_quality": (meta["test_mrr"], meta["test_hits3"])}

    def top_k(self, env: Env) -> int:
        # full rankings, so the filtered rank of every answer is known
        return env.model.num_entities


class Lone(TrainedFb237):
    """Closed loop, one client, one request in flight (README: lone)."""

    name = "lone"
    limit_ms = 25.0
    per_structure = 64

    def inputs(self, env, seed, seconds):
        splits = env.extra["splits"]
        sampler = QuerySampler(splits.valid, splits.test, seed=seed,
                               config=SamplerConfig(require_hard_answer=True))
        pools = {}
        for name in PAPER_STRUCTURES:
            # queries that differ only in operand order are one query to
            # the runtime (and its answer cache)
            unique = {}
            for grounded in sampler.sample_many(get_structure(name),
                                                self.per_structure + 8):
                grounded = _canonical(grounded)
                unique.setdefault(grounded.query, grounded)
            pools[name] = list(unique.values())[:self.per_structure]
        rows = min(len(pool) for pool in pools.values())
        # one request per block; row 0 (one query per structure) warms up
        return _cycled(pools, range(rows)), (1, len(PAPER_STRUCTURES))


class BatchPrefix(TrainedFb237):
    """Blocks of 64 tails fanned out of shared 2-hop prefixes."""

    name = "batch-prefix"
    limit_ms = 250.0
    block_size = 64
    fanout = 8
    blocks = 24

    def inputs(self, env, seed, seconds):
        splits = env.extra["splits"]
        rng = np.random.default_rng(seed)
        prefixes = QuerySampler(splits.valid, splits.test, seed=seed)
        cap = max(1, splits.test.num_entities // 2)
        seen: set = set()
        table: list[GroundedQuery] = []
        while len(table) < self.blocks * self.block_size:
            prefix = prefixes.sample(get_structure("2p")).query
            reach = sorted(execute(prefix, splits.test))
            tails = []
            for _ in range(16 * self.fanout):
                if len(tails) == self.fanout:
                    break
                target = int(reach[rng.integers(len(reach))])
                if len(tails) % 2 == 0:  # 3p tail: one more hop
                    relations = sorted(splits.test.out_relations(target))
                    if not relations:
                        continue
                    name = "3p"
                    query = Projection(
                        int(relations[rng.integers(len(relations))]), prefix)
                else:  # 2i tail: prefix ∩ a 1p branch reaching target
                    relations = sorted(splits.test.in_relations(target))
                    relation = int(relations[rng.integers(len(relations))])
                    anchors = sorted(splits.test.sources(target, relation))
                    anchor = int(anchors[rng.integers(len(anchors))])
                    name = "pi"
                    query = Intersection(
                        (prefix, Projection(relation, Entity(anchor))))
                query = canonicalize(query)
                if query in seen:
                    continue
                full = execute(query, splits.test)
                if not full or len(full) > cap:
                    continue
                easy = execute(query, splits.valid)
                seen.add(query)
                tails.append(GroundedQuery(name, query, frozenset(easy),
                                           frozenset(full - easy)))
            if len(tails) == self.fanout:
                table.extend(tails)
        # block 0 warms up
        return table, (self.block_size, self.block_size)

    def count_config(self):
        # a flush window far above the time it takes to submit a block,
        # so each structure of the block coalesces into one batch
        return replace(self.config(), flush_timeout=0.25)

    def count_blocks(self, table, plan):
        return [table[:plan[0]]]


def _closed_loop(env: Env, table, plan, seconds: float, top_k: int,
                 phase: Phase) -> Phase:
    """One client: send a block through ``answer_batch``, wait, repeat.

    ``plan`` is ``(block size, warm-up requests)``.  A pass that reaches
    the end of the table starts over on a cold runtime, so no answer
    comes from a cache filled by an earlier pass.  A block that is not
    back within REQUEST_BOUND_S fails whole (the caller gets nothing of
    it) and marks the runtime wedged.
    """
    block, warm_up = plan
    env.fresh()
    if warm_up:
        env.runtime.answer_batch([q.query for q in table[:warm_up]], top_k,
                                 timeout=REQUEST_BOUND_S)
        if env.probe is not None:
            env.probe.reset()
    starts = range(warm_up, len(table) - block + 1, block)
    stop_at = time.perf_counter() + seconds
    first = True
    while time.perf_counter() < stop_at:
        if not first:
            env.fresh()
        first = False
        for start in starts:
            if time.perf_counter() >= stop_at:
                break
            indices = range(start, start + block)
            sent = time.perf_counter()
            cpu = time.process_time()
            phase.attempted += block
            try:
                results = env.runtime.answer_batch(
                    [table[i].query for i in indices], top_k,
                    timeout=REQUEST_BOUND_S)
            except (ServeError, TimeoutError) as exc:
                phase.failed += block
                phase.records.extend(
                    [(None, (time.perf_counter() - sent) / block,
                      (time.process_time() - cpu) / block)] * block)
                env.wedged = env.wedged or isinstance(exc, TimeoutError)
                continue
            done = time.perf_counter()
            used = time.process_time() - cpu
            # the caller holds nothing until the whole block is back
            latency = 1000.0 * (done - sent)
            phase.records.extend([(latency, (done - sent) / block,
                                   used / block)] * block)
            phase.latencies.extend([latency] * block)
            for index, result in zip(indices, results):
                env.check.record(index, result.source, result.entity_ids)
    return phase


class Open10k(Workload):
    """Poisson arrivals through the gateway at three fixed rates."""

    name = "open-10k"
    gateway = True
    setup_repeats = 3
    checked = 200
    limit_ms = 250.0
    num_entities = 10_000
    #: burst capacity of the default runtime on this graph, measured at
    #: the commit that introduced the benchmark (2-core x86 VM, ~68 q/s)
    capacity_qps = 68.0
    #: (phase, share of capacity, share of the run's seconds)
    phases = (("quarter", 0.25, 0.5), ("half", 0.5, 0.25),
              ("three-quarters", 0.75, 0.25))
    #: the steadiest rate: at ½ unbatched arrivals already queue
    reference_phase = "quarter"
    #: share of arrivals that repeat a query sent earlier in the phase
    repeat_share = 0.2

    def build(self, seed):
        config = fb15k_xl_config(self.num_entities, seed=seed)
        triples = np.concatenate(list(stream_triples(config, exact=False)))
        kg = KnowledgeGraph(config.num_entities, len(config.relations),
                            map(tuple, triples.tolist()))
        model = HalkModel(kg, ModelConfig(embedding_dim=24, hidden_dim=48,
                                          seed=seed))
        return model, kg, {}

    def inputs(self, env, seed, seconds):
        seeds = np.random.SeedSequence(seed).spawn(2)
        arrivals_rng = np.random.default_rng(seeds[0])
        sampler = QuerySampler(env.kg, seed=int(seeds[1].generate_state(1)[0]))
        table: list[GroundedQuery] = []
        seen: set = set()
        plan = []
        for name, share, time_share in self.phases:
            rate = share * self.capacity_qps
            span = time_share * seconds
            sent: list[int] = []
            schedule = []
            # a Poisson process conditioned on its count: every seed
            # offers the same load
            count = int(round(rate * span))
            for offset in np.sort(arrivals_rng.uniform(0.0, span, count)):
                if sent and arrivals_rng.random() < self.repeat_share:
                    index = sent[arrivals_rng.integers(len(sent))]
                else:
                    structure = PAPER_STRUCTURES[len(table)
                                                 % len(PAPER_STRUCTURES)]
                    while True:
                        grounded = _canonical(
                            sampler.sample(get_structure(structure)))
                        if grounded.query not in seen:
                            break
                    seen.add(grounded.query)
                    table.append(grounded)
                    index = len(table) - 1
                sent.append(index)
                schedule.append((float(offset), index))
            plan.append((name, rate, schedule))
        return table, plan

    def drive(self, env, table, plan, seconds):
        phases = []
        for name, rate, schedule in plan:
            env.fresh()
            phases.append(_open_loop(env, table, schedule,
                                     Phase(name, rate=rate),
                                     self.top_k(env)))
        return phases

    def summarize(self, phases):
        by_name = {phase.name: phase for phase in phases}
        reference = by_name[self.reference_phase]
        out = _latency_figures(reference.latencies)
        out["reference_rate_qps"] = reference.rate
        out["cpu_ms_per_query"] = 1000.0 * reference.cpu_seconds \
            / max(len(reference.latencies), 1)
        answered = sum(len(p.latencies) for p in phases)
        out["throughput_qps"] = answered / sum(p.seconds for p in phases)
        top = max(phases, key=lambda p: p.rate)
        out["goodput_qps"] = sum(1 for v in top.latencies
                                 if v <= self.limit_ms) / top.seconds
        meeting = [p.rate for p in phases if _meets_limit(p, self.limit_ms)]
        out["max_rate_qps"] = max(meeting) if meeting else 0.0
        lateness = [v for p in phases for v in p.lateness_ms]
        out["generator_late_p99_ms"] = float(np.percentile(lateness, 99))
        out["rates"] = {p.name: {"rate_qps": p.rate,
                                 **_latency_figures(p.latencies),
                                 "failed": p.failed, "shed": p.shed,
                                 "backlog": p.backlog}
                        for p in phases}
        return out


def _meets_limit(phase: Phase, limit_ms: float) -> bool:
    """p99 within the limit, nothing lost, and no backlog building up:
    at the last send no more requests are in flight than would arrive
    within one latency limit."""
    if phase.failed or not phase.latencies:
        return False
    p99 = float(np.percentile(phase.latencies, 99))
    return p99 <= limit_ms \
        and phase.backlog <= max(1.0, phase.rate * limit_ms / 1000.0)


def _open_loop(env: Env, table, schedule, phase: Phase,
               top_k: int) -> Phase:
    """Send on the schedule whatever happens; time from each due instant."""
    gateway = env.gateway
    done_at: list = [None] * len(schedule)
    futures: list = [None] * len(schedule)
    cpu = time.process_time()
    start = time.perf_counter() + 0.05
    for slot, (offset, index) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.lateness_ms.append(1000.0 * (time.perf_counter() - due))
        phase.attempted += 1
        try:
            future = gateway.submit(table[index].query, top_k=top_k)
        except GatewayRejected:
            phase.failed += 1
            phase.shed += 1
            continue
        future.add_done_callback(
            lambda _f, slot=slot: done_at.__setitem__(
                slot, time.perf_counter()))
        futures[slot] = future
    phase.backlog = sum(1 for f in futures if f is not None and not f.done())
    last_done = start
    for slot, future in enumerate(futures):
        if future is None:
            continue
        due = start + schedule[slot][0]
        try:
            result = future.result(
                max(0.0, due + REQUEST_BOUND_S - time.perf_counter()))
        except GatewayRejected:
            phase.failed += 1
            phase.shed += 1
            continue
        except (ServeError, TimeoutError):
            phase.failed += 1
            continue
        finished = done_at[slot] or time.perf_counter()
        last_done = max(last_done, finished)
        phase.latencies.append(1000.0 * (finished - due))
        env.check.record(schedule[slot][1], result.source,
                         result.entity_ids)
    # measured: from the first due instant to the last answer
    first_due = start + schedule[0][0] if schedule else start
    phase.seconds = max(last_done - first_due, 1e-9)
    phase.cpu_seconds = time.process_time() - cpu
    return phase


class Sharded100k(Workload):
    """Blocks of mixed structures ranked by two shard workers."""

    name = "sharded-100k"
    limit_ms = 5000.0
    num_entities = 100_000
    num_relations = 8
    edges_per_entity = 3
    block_size = 64
    blocks = 4
    setup_repeats = 3
    checked = 64

    def config(self):
        return ServeConfig(num_shards=2)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        edges = self.edges_per_entity * self.num_entities
        triples = np.stack([rng.integers(self.num_entities, size=edges),
                            rng.integers(self.num_relations, size=edges),
                            rng.integers(self.num_entities, size=edges)],
                           axis=1)
        kg = KnowledgeGraph(self.num_entities, self.num_relations,
                            map(tuple, triples.tolist()))
        model = HalkModel(kg, ModelConfig(embedding_dim=24, hidden_dim=48,
                                          seed=seed))
        return model, kg, {}

    def inputs(self, env, seed, seconds):
        sampler = QuerySampler(env.kg, seed=seed)
        per_structure = self.blocks * self.block_size \
            // len(PAPER_STRUCTURES)
        pools = {name: [_canonical(sampler.sample(get_structure(name)))
                        for _ in range(per_structure)]
                 for name in PAPER_STRUCTURES}
        # no warm-up block: it would wedge outside the measured window
        return _cycled(pools, range(per_structure)), (self.block_size, 0)


WORKLOADS = {w.name: w for w in (Lone(), BatchPrefix(), Open10k(),
                                 Sharded100k())}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def reference_ids(model, query, top_k: int) -> list[int]:
    """The lone in-process answer: embed one query, rank every entity."""
    with no_grad():
        embedding = model.embed_batch([query])
        distances = model.distance_to_all(embedding).data
    return [int(e) for e in topk_rows(distances, top_k)[0]]


class AnswerCheck:
    """Checks each served answer as it arrives, keeping only counts.

    Model and answer-cache answers must equal the lone reference
    bitwise; a fallback (``exact``/``lsh``) answer is not the model's
    and fails.  Answers to the ``sampled`` queries missing from
    ``references`` are held until :meth:`finish` computes their
    references; answers to other queries are not compared.
    """

    def __init__(self, model, table, top_k: int, trained: bool,
                 references: dict, sampled=()):
        self.model = model
        self.table = table
        self.top_k = top_k
        self.trained = trained
        self.references = references
        self.sampled = frozenset(sampled)
        self.mismatched = 0
        self.degraded = 0
        self.compared = 0
        self._held: dict[int, list] = {}
        self._quality: dict[int, tuple[float, float]] = {}
        self._served: dict[str, list] = {}

    def record(self, index: int, source: str, ids: list[int]) -> None:
        if source in DEGRADED_SOURCES:
            self.degraded += 1
        elif source not in EXACT_SOURCES:
            self.mismatched += 1
        elif index in self.references:
            self._compare(index, ids)
        elif index in self.sampled:
            self._held.setdefault(index, []).append(ids)

    def _compare(self, index: int, ids: list[int]) -> None:
        self.compared += 1
        if ids != self.references[index]:
            self.mismatched += 1
        elif self.trained:
            if index not in self._quality:
                self._quality[index] = ranked_list_quality(
                    ids, self.table[index])
            self._served.setdefault(self.table[index].structure,
                                    []).append(self._quality[index])

    def finish(self) -> dict:
        for index, answers in self._held.items():
            self.references[index] = reference_ids(
                self.model, self.table[index].query, self.top_k)
            for ids in answers:
                self._compare(index, ids)
        self._held.clear()
        out = {"mismatched": self.mismatched, "degraded": self.degraded,
               "compared": self.compared}
        if self._served:
            out["mrr"], out["hits3"] = served_quality(self._served)
        return out


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def timed_setup(workload: Workload, seed: int) -> tuple[Env, float]:
    # every set-up starts from a heap without its predecessors' garbage
    gc.collect()
    started = time.perf_counter()
    env = workload.setup(seed)
    return env, time.perf_counter() - started


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    # half the set-ups run before the traffic and half after it, so one
    # stretch of host noise cannot move all of them
    before = (workload.setup_repeats + 1) // 2
    setup_times = []
    env = None
    for _ in range(before):
        if env is not None:
            env.close()
            env = None  # so the next set-up's collection can free it
        env, took = timed_setup(workload, seed)
        setup_times.append(took)
    span = seconds / 2.0 if trace else seconds
    clock = time.perf_counter()
    table, plan = workload.inputs(env, seed, span)
    notes = {"inputs_s": time.perf_counter() - clock}
    correct = True
    if workload.trained:
        quality = test_quality(env.model,
                               fixed_test_workload(env.extra["splits"]))
        notes["fixed_test_mrr"], notes["fixed_test_hits3"] = quality
        recorded = env.extra["recorded_quality"]
        if any(abs(a - b) > QUALITY_TOLERANCE
               for a, b in zip(quality, recorded)):
            correct = False
            notes["quality_regression"] = {"recorded": recorded,
                                           "measured": quality}
    clock = time.perf_counter()
    references: dict = {}
    sampled: list[int] = []
    if workload.checked is None:
        references = {i: reference_ids(env.model, q.query,
                                       workload.top_k(env))
                      for i, q in enumerate(table)}
    else:
        sampled = np.linspace(0, len(table) - 1,
                              workload.checked).astype(int).tolist()
    env.check = AnswerCheck(env.model, table, workload.top_k(env),
                            workload.trained, references, sampled)
    notes["reference_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    steal = _cpu_steal()

    layers = None
    if trace:
        counts = count_pass(env, workload, table, plan)
        untraced = workload.drive(env, table, plan, span)
        env.restart()
        probe = env.probe = LayerProbe()
        probe.install(env.model)
        try:
            phases = workload.drive(env, table, plan, span)
        finally:
            probe.uninstall()
            env.probe = None
        all_phases = untraced + phases
        layers = layer_figures(env, probe, phases, untraced, counts)
    else:
        phases = workload.drive(env, table, plan, span)
        all_phases = phases
    peak_rss_mb = env.peak_rss_mb()

    notes["traffic_s"] = time.perf_counter() - clock
    if steal is not None:
        notes["host_steal_share"] = _cpu_steal(steal)
    attempted = sum(p.attempted for p in all_phases)
    failed = sum(p.failed for p in all_phases)
    clock = time.perf_counter()
    checked = env.check.finish()
    notes["late_reference_s"] = time.perf_counter() - clock
    notes["answers_compared"] = checked["compared"]
    wrong = checked["mismatched"] + checked["degraded"]
    if wrong:
        correct = False
    figures = workload.summarize(phases)
    figures["peak_rss_mb"] = peak_rss_mb
    figures["failed_share"] = (failed + wrong) / max(attempted, 1)
    figures["degraded_share"] = checked["degraded"] / max(attempted, 1)
    for key in ("mrr", "hits3"):
        if key in checked:
            figures[key] = checked[key]
    result = {"workload": workload.name, "seed": seed, "correct": correct,
              "attempted": attempted,
              "failed": failed + wrong,
              "figures": figures, "notes": notes, "wedged": env.wedged}
    if layers is not None:
        result["layers"] = layers
    env.close()
    for _ in range(workload.setup_repeats - before):
        extra, took = timed_setup(workload, seed)
        setup_times.append(took)
        extra.close()
    figures["setup_s"] = float(np.median(setup_times))
    notes["setup_range_s"] = [min(setup_times), max(setup_times)]
    return result


def count_pass(env: Env, workload: Workload, table, plan) -> dict:
    """Tensor objects and distance bytes per query, from a replay whose
    batches do not depend on timing (a cold runtime of its own)."""
    runtime = ServeRuntime(env.model, kg=env.kg,
                           config=workload.count_config())
    blocks = workload.count_blocks(table, plan)
    queries = sum(len(block) for block in blocks)
    try:
        with CountPass(env.model) as counts:
            for block in blocks:
                runtime.answer_batch([q.query for q in block],
                                     workload.top_k(env),
                                     timeout=REQUEST_BOUND_S)
    finally:
        runtime.close()
    return {"nn.tensors_per_query": counts.tensors / queries,
            "core.distance.bytes_per_query":
                counts.distance_bytes / queries}


def layer_figures(env: Env, probe: LayerProbe, phases: list[Phase],
                  untraced: list[Phase], counts: dict) -> dict:
    answered = [v for p in phases for v in p.latencies]
    untraced_answered = [v for p in untraced for v in p.latencies]
    out = probe.per_request_ms(sum(p.attempted for p in phases))
    # with nothing answered there is no latency to split
    out["residual_ms"] = float(np.mean(answered)) \
        - sum(out[name] for name in BLOCKING) if answered else 0.0
    out["obs.trace_overhead_ratio"] = \
        float(np.mean(answered)) / float(np.mean(untraced_answered)) - 1.0 \
        if answered and untraced_answered else 0.0
    env.retire()
    c = env.counters
    submitted = c.get("requests", 0)
    misses = c.get("answer_cache_misses", 0)
    model_rows = probe.embed_rows()
    out["serve.batcher.batch_size"] = misses / max(c.get("batches", 0), 1)
    out["core.model.embed_rows_per_query"] = model_rows / max(probe.queued, 1)
    out.update(counts)
    out["plan.ops_per_query"] = c.get("plan_ops_executed", 0) \
        / max(probe.rows.get("plan.compile_ms", 0), 1)
    out["serve.cache.answer_hit_ratio"] = \
        c.get("answer_cache_hits", 0) / max(submitted, 1)
    emb_hits = c.get("embedding_cache_hits", 0)
    out["serve.cache.embedding_hit_ratio"] = \
        emb_hits / max(emb_hits + c.get("embedding_cache_misses", 0), 1)
    out["serve.fallback_share"] = (c.get("fallback_exact", 0)
                                   + c.get("fallback_lsh", 0)) \
        / max(submitted, 1)
    attempted = sum(p.attempted for p in phases)
    out["gateway.shed_share"] = sum(p.shed for p in phases) \
        / max(attempted, 1)
    blocks = sum(n for n, _ in env.shard_blocks)
    out["dist.shard_block_ms"] = sum(n * m for n, m in env.shard_blocks) \
        / max(blocks, 1)
    out["dist.respawns"] = sum(v for k, v in c.items()
                               if k.startswith("worker_respawns"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result-fd", type=int, default=1,
                        help="file descriptor the JSON result goes to")
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    with os.fdopen(args.result_fd, "w", closefd=args.result_fd > 2) as out:
        out.write(json.dumps(result) + "\n")
    if result["wedged"]:
        # threads stuck inside the wedged runtime would block interpreter
        # exit; the parent sweeps the shard workers and segments left
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
