"""Per-layer measurement from outside the program.

The traced run wraps the public functions each layer exposes and times
every call into them from the benchmark's own code; nothing under
``src/`` is edited.  A batched call blocks every request in its batch,
so a call's duration counts once per row it processed, and each layer's
figure is the mean blocking time per request.  The residual row is the
mean end-to-end latency minus the sum of those layers.

Counts that must repeat exactly (Tensor objects and bytes materialised
per query) come from :class:`CountPass`, a replay whose batch
composition does not depend on timing.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict, deque

import repro.dist.ranker as dist_ranker
import repro.plan as plan_pkg
import repro.serve.runtime as serve_runtime
from repro.dist import ShardedRanker
from repro.gateway import Gateway
from repro.nn import Tensor
from repro.plan import PlanCompiler
from repro.serve import ServeRuntime

#: (name, unit, better) of every per-layer metric, in table order; the
#: ``*_ms`` rows above ``residual_ms`` are the blocking layers it sums
PER_LAYER = (
    ("gateway.queue_ms", "ms", "lower"),
    ("serve.canonical.ms", "ms", "lower"),
    ("serve.batcher.wait_ms", "ms", "lower"),
    ("core.model.embed_ms", "ms", "lower"),
    ("plan.compile_ms", "ms", "lower"),
    ("plan.execute_ms", "ms", "lower"),
    ("core.distance.ms", "ms", "lower"),
    ("core.topk.ms", "ms", "lower"),
    ("dist.topk_ms", "ms", "lower"),
    ("residual_ms", "ms", "lower"),
    ("serve.batcher.batch_size", "count", "higher"),
    ("core.model.embed_rows_per_query", "count", "lower"),
    ("nn.tensors_per_query", "count", "lower"),
    ("core.distance.bytes_per_query", "bytes", "lower"),
    ("plan.ops_per_query", "count", "lower"),
    ("serve.cache.answer_hit_ratio", "ratio", "higher"),
    ("serve.cache.embedding_hit_ratio", "ratio", "higher"),
    ("serve.fallback_share", "ratio", "lower"),
    ("gateway.shed_share", "ratio", "lower"),
    ("dist.shard_block_ms", "ms", "lower"),
    ("dist.merge_ms", "ms", "lower"),
    ("dist.respawns", "count", "lower"),
    ("dist.leaked_segments", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
)

#: layers on a request's blocking path, disjoint in time (dist.merge_ms
#: runs inside dist.topk_ms and is shown, not summed)
BLOCKING = ("gateway.queue_ms", "serve.canonical.ms", "serve.batcher.wait_ms",
            "core.model.embed_ms", "plan.compile_ms", "plan.execute_ms",
            "core.distance.ms", "core.topk.ms", "dist.topk_ms")


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, bool]] = []

    def set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._saved.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def undo(self) -> None:
        for owner, name, old, had in reversed(self._saved):
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._saved.clear()


class LayerProbe:
    """Times every call into the layers' public functions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = _Patches()
        self.busy_ms: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        #: requests that went past the answer cache into the batcher
        self.queued = 0
        # id(query) -> FIFO of gateway admission instants
        self._admitted: dict[int, deque] = defaultdict(deque)
        # id(canonical query) -> (query, instant it left canonicalise)
        self._queued: dict[int, tuple[object, float]] = {}

    def reset(self) -> None:
        """Forget everything timed so far (e.g. a warm-up)."""
        with self._lock:
            self.busy_ms.clear()
            self.rows.clear()
            self.queued = 0
            self._admitted.clear()
            self._queued.clear()

    # ------------------------------------------------------------------
    def _add(self, layer: str, started: float, rows: int) -> None:
        elapsed = 1000.0 * (time.perf_counter() - started)
        with self._lock:
            self.busy_ms[layer] += elapsed * rows
            self.rows[layer] += rows

    def _batch_entered(self, queries, now: float) -> None:
        waited = 0.0
        found = 0
        with self._lock:
            for query in queries:
                entry = self._queued.pop(id(query), None)
                if entry is not None:
                    waited += 1000.0 * (now - entry[1])
                    found += 1
            self.busy_ms["serve.batcher.wait_ms"] += waited
            self.rows["serve.batcher.wait_ms"] += found

    # ------------------------------------------------------------------
    def install(self, model) -> None:
        """Wrap the layers; ``model`` is the served model instance."""
        probe = self
        local = self._local
        patches = self._patches

        gateway_submit = Gateway.submit

        def timed_gateway_submit(gateway, query, *args, **kwargs):
            with probe._lock:
                probe._admitted[id(query)].append(time.perf_counter())
            try:
                return gateway_submit(gateway, query, *args, **kwargs)
            except BaseException:  # shed at the door: it never queues
                with probe._lock:
                    admitted = probe._admitted[id(query)]
                    admitted.pop()
                    if not admitted:
                        del probe._admitted[id(query)]
                raise

        runtime_submit = ServeRuntime.submit

        def timed_runtime_submit(runtime, query, *args, **kwargs):
            now = time.perf_counter()
            with probe._lock:
                admitted = probe._admitted.get(id(query))
                if admitted:
                    probe.busy_ms["gateway.queue_ms"] += \
                        1000.0 * (now - admitted.popleft())
                    probe.rows["gateway.queue_ms"] += 1
                    if not admitted:
                        del probe._admitted[id(query)]
            local.canonical = None
            future = runtime_submit(runtime, query, *args, **kwargs)
            if future.done() and local.canonical is not None:
                # answered from the answer cache: it never queues
                with probe._lock:
                    if probe._queued.pop(id(local.canonical), None):
                        probe.queued -= 1
            return future

        canonicalize = serve_runtime.canonicalize
        serialize = serve_runtime.serialize

        def timed_canonicalize(query):
            started = time.perf_counter()
            out = canonicalize(query)
            probe._add("serve.canonical.ms", started, 1)
            return out

        def timed_serialize(query):
            started = time.perf_counter()
            out = serialize(query)
            probe._add("serve.canonical.ms", started, 1)
            local.canonical = query
            with probe._lock:
                probe._queued[id(query)] = (query, time.perf_counter())
                probe.queued += 1
            return out

        embed_batch = model.embed_batch

        def timed_embed_batch(queries):
            started = time.perf_counter()
            probe._batch_entered(queries, started)
            out = embed_batch(queries)
            probe._add("core.model.embed_ms", started, len(queries))
            return out

        distance_to_all = model.distance_to_all

        def timed_distance_to_all(embedding):
            started = time.perf_counter()
            out = distance_to_all(embedding)
            probe._add("core.distance.ms", started, _rows(out.data))
            return out

        topk_rows = serve_runtime.topk_rows

        def timed_topk_rows(distances, k):
            started = time.perf_counter()
            out = topk_rows(distances, k)
            probe._add("core.topk.ms", started, _rows(out))
            return out

        compile_queries = PlanCompiler.compile

        def timed_compile(compiler, queries, *args, **kwargs):
            started = time.perf_counter()
            probe._batch_entered(queries, started)
            out = compile_queries(compiler, queries, *args, **kwargs)
            probe._add("plan.compile_ms", started, len(queries))
            local.plan_rows = len(queries)
            return out

        execute_plan = plan_pkg.execute_plan

        def timed_execute_plan(*args, **kwargs):
            started = time.perf_counter()
            out = execute_plan(*args, **kwargs)
            probe._add("plan.execute_ms", started,
                       getattr(local, "plan_rows", 1))
            return out

        sharded_topk = ShardedRanker.topk

        def timed_sharded_topk(ranker, embedding, k, *args, **kwargs):
            started = time.perf_counter()
            out = sharded_topk(ranker, embedding, k, *args, **kwargs)
            probe._add("dist.topk_ms", started, _rows(out[0]))
            return out

        merge_topk = dist_ranker.merge_topk

        def timed_merge_topk(ids, vals, k):
            started = time.perf_counter()
            out = merge_topk(ids, vals, k)
            probe._add("dist.merge_ms", started, _rows(out[0]))
            return out

        patches.set(Gateway, "submit", timed_gateway_submit)
        patches.set(ServeRuntime, "submit", timed_runtime_submit)
        patches.set(serve_runtime, "canonicalize", timed_canonicalize)
        patches.set(serve_runtime, "serialize", timed_serialize)
        patches.set(serve_runtime, "topk_rows", timed_topk_rows)
        patches.set(model, "embed_batch", timed_embed_batch)
        patches.set(model, "distance_to_all", timed_distance_to_all)
        patches.set(PlanCompiler, "compile", timed_compile)
        patches.set(plan_pkg, "execute_plan", timed_execute_plan)
        patches.set(ShardedRanker, "topk", timed_sharded_topk)
        patches.set(dist_ranker, "merge_topk", timed_merge_topk)

    def uninstall(self) -> None:
        self._patches.undo()

    # ------------------------------------------------------------------
    def per_request_ms(self, requests: int) -> dict[str, float]:
        """Mean blocking milliseconds per request of every timed layer."""
        names = BLOCKING + ("dist.merge_ms",)
        return {name: self.busy_ms.get(name, 0.0) / max(requests, 1)
                for name in names}

    def embed_rows(self) -> int:
        """Query rows that entered the embed stage (embed or compile)."""
        return self.rows.get("core.model.embed_ms", 0) \
            + self.rows.get("plan.compile_ms", 0)


class CountPass:
    """Counts Tensor objects, and bytes the distance stage materialises.

    Used around a replay whose batches do not depend on timing, so the
    counts repeat exactly for the same code.
    """

    def __init__(self, model):
        self._model = model
        self._patches = _Patches()
        self._local = threading.local()
        self._tensors = itertools.count()
        self.distance_bytes = 0
        self._bytes_lock = threading.Lock()

    def __enter__(self) -> "CountPass":
        counter = self._tensors
        local = self._local
        init = Tensor.__init__
        count_pass = self

        def counting_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            next(counter)
            if getattr(local, "in_distance", False):
                with count_pass._bytes_lock:
                    count_pass.distance_bytes += tensor.data.nbytes

        distance_to_all = self._model.distance_to_all

        def measured_distance_to_all(embedding):
            local.in_distance = True
            try:
                return distance_to_all(embedding)
            finally:
                local.in_distance = False

        self._start = next(counter)
        self._patches.set(Tensor, "__init__", counting_init)
        self._patches.set(self._model, "distance_to_all",
                          measured_distance_to_all)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.undo()
        self.tensors = next(self._tensors) - self._start - 1
