"""Distributed bucketed ∆-stepping on the SimMPI machine.

The algorithm is the shared-memory ∆-stepping of
:mod:`repro.core.delta_stepping`, parallelized over a 1-D vertex partition
with the optimization stack the paper's system class uses:

* **routing** — a rank relaxes the out-edges of the bucket-k vertices it
  owns; candidate updates for remote vertices are sent to their owners, who
  fold them in with a scatter-min;
* **coalescing** (``config.coalesce``) — before sending, updates are
  reduced to one minimum per target, and suppressed entirely when the
  sender's cached view says they cannot improve the owner's value;
* **hub delegation** (``config.delegate_hubs``) — hubs' adjacency lists are
  pre-split across all ranks; relaxing a hub broadcasts one 17-byte record
  per rank instead of one update per edge;
* **bucket fusion** (``config.fuse_buckets``) — each rank drains its
  bucket-k frontier through up to ``fusion_cap`` *local* sub-iterations
  before the global exchange, so intra-rank light-edge chains cost no
  synchronization.

One superstep = (process inbox) -> (drain/relax local bucket) -> (flush,
exchange, allreduce).  Everything a rank does between exchanges is
vectorized numpy; the fabric charges simulated time for both compute and
communication.
"""

from __future__ import annotations

import numpy as np

from repro.core.buckets import BucketQueue
from repro.core.coalescing import dedup_min
from repro.core.config import SSSPConfig
from repro.core.delegation import DelegateTable
from repro.core.ghost_cache import GhostMinCache
from repro.core.relaxation import expand, scatter_min
from repro.core.result import SSSPResult, derive_parents
from repro.engine.driver import EngineContext, attach_fabric_outcome
from repro.engine.rank import Columns, Outbox, OwnerRouter, Rank, wire_id_dtype
from repro.graph.csr import CSRGraph
from repro.partition import LocalIndexMap, Partition1D
from repro.simmpi.fabric import Message, Wire

# Record kinds on the wire; 0 is a plain distance update to an owned vertex.
_KIND_LIGHT_ANNOUNCE = 1
_KIND_HEAVY_ANNOUNCE = 2

_INF = np.inf


def _min_per_target(targets: np.ndarray, dists: np.ndarray, kinds: np.ndarray) -> Columns:
    """Outbox fold for distance updates (all of kind 0): one minimum per target."""
    targets, dists = dedup_min(targets, dists)
    return targets, dists, kinds[: targets.size]


def _bucket_votes(kmins) -> np.ndarray:
    """Termination votes from per-rank min live buckets: "none" (inf)
    becomes the finite 1e300, so the min allreduce stays NaN/inf-free."""
    kmins = np.asarray(kmins, dtype=np.float64)
    return np.where(np.isfinite(kmins), kmins, 1e300)


class _Rank(Rank):
    """State and per-superstep behaviour of one simulated rank.

    All per-vertex state lives in *owned-local* index space: arrays are
    sized by the rank's owned-vertex count, not by the global vertex
    count, so a P-rank run costs O(n + halo) memory in total instead of
    O(n * P).  Global ids appear only on the wire and in the shared
    read-only owner router; :class:`LocalIndexMap` translates at the
    boundary.
    """

    def __init__(
        self,
        rank: int,
        graph: CSRGraph,
        owned: np.ndarray,
        router: OwnerRouter,
        delegates: DelegateTable | None,
        config: SSSPConfig,
        delta: float,
    ) -> None:
        super().__init__(rank, router)
        self.num_ranks = router.num_ranks
        self.config = config
        self.delta = delta
        # repro: index-space: self.owned[local]=global
        # repro: index-space: self.dist[local], self.in_epoch[local]
        # repro: index-space: self.is_hub_local[local], owned=global
        self.owned = owned
        self.lmap = LocalIndexMap(owned)
        self.delegates = delegates
        if delegates is not None and delegates.num_hubs:
            # Owned-local hub lookup plus a local CSR whose hub rows are
            # empty (their adjacency lives in the delegate slices).
            self.is_hub_local: np.ndarray | None = delegates.is_hub(owned)
            self.local_graph = graph.extract_rows(owned, keep=~self.is_hub_local)
        else:
            self.is_hub_local = None
            self.local_graph = graph.extract_rows(owned)
        # Authoritative tentative distances over owned vertices only.
        self.dist = np.full(owned.size, _INF, dtype=np.float64)
        # The coalescing filter cache for remote ("ghost") vertices —
        # best candidate ever sent toward each owner — lives in a compact
        # sorted-key map sized by the halo actually touched, not by n,
        # with 32-bit keys whenever the vertex ids fit.
        self.ghosts = (
            GhostMinCache(key_dtype=wire_id_dtype(graph.num_vertices, True))
            if (config.coalesce and self.num_ranks > 1)
            else None
        )
        self.buckets = BucketQueue(self.dist, delta)
        self.in_epoch = np.zeros(owned.size, dtype=bool)
        self.settled_parts: list[np.ndarray] = []
        # Best distance already announced per hub slot (owner-side filter).
        if delegates is not None and delegates.num_hubs:
            self.announced = np.full(delegates.num_hubs, _INF, dtype=np.float64)
        else:
            self.announced = np.empty(0, dtype=np.float64)
        # Two record classes, two outboxes: plain distance updates go out
        # in a superstep's reduce round, hub announcements in its
        # broadcast round.  Both ship (vertex, dist, kind) records;
        # distances are always float64 — compressing them would break the
        # float-exact tree validation.  Several update batches queued for
        # one flush are reduced to one minimum per target; a lone batch is
        # already sorted-unique (it came out of the ghost cache's
        # coalesce_batch), so folding it would be the identity.
        fields = ("vertex", "dist", "kind")
        id_dtype = wire_id_dtype(graph.num_vertices, config.compressed_indices)
        self.updates = Outbox(
            router, fields, id_dtype, fold=_min_per_target if config.coalesce else None
        )
        self.announcements = Outbox(router, fields, id_dtype)
        self.others = np.delete(np.arange(self.num_ranks), rank)
        self._bucket_ops_seen = 0

    # -- epoch lifecycle ---------------------------------------------------

    def start_epoch(self) -> None:
        self.in_epoch[:] = False
        self.settled_parts = []

    def local_min_bucket(self) -> float:
        k = self.buckets.min_live_bucket()
        return _INF if k is None else float(k)

    def bucket_live(self, k: int) -> bool:
        return self.buckets.live_count(k) > 0

    def bucket_live_count(self, k: int) -> int:
        return int(self.buckets.live_count(k))

    # -- candidate routing ---------------------------------------------------

    def _apply(self, targets: np.ndarray, cands: np.ndarray) -> None:
        """Fold candidates for owned vertices into ``dist`` and the buckets."""
        # repro: index-space: targets=global
        improved = scatter_min(self.dist, self.lmap.to_local(targets), cands)
        if improved.size:
            self.buckets.insert(improved)

    def _route(self, targets: np.ndarray, cands: np.ndarray) -> None:
        """Apply owned candidates locally; enqueue remote ones for owners."""
        # repro: index-space: targets=global
        if targets.size == 0:
            return
        if self.num_ranks == 1:
            self._apply(targets, cands)
            return
        # On contiguous partitions "is it mine" is a range test — cheaper
        # than an owner lookup on every route call.
        if self.lmap.contiguous:
            mine = self.lmap.contains(targets)
        else:
            mine = self.router.owners(targets) == self.rank
        if mine.any():
            self._apply(targets[mine], cands[mine])
        rem_t = targets[~mine]
        rem_c = cands[~mine]
        if rem_t.size and self.config.coalesce:
            # Filter through the cached view: only candidates that beat the
            # best value this rank ever sent can matter to the owner.  The
            # batch comes back sorted by target and deduplicated, which on
            # a contiguous partition is already the owner split's order.
            rem_t, rem_c = self.ghosts.coalesce_batch(rem_t, rem_c)
        self.updates.route(rem_t, rem_c, np.zeros(rem_t.size, dtype=np.uint8))

    def _announce(self, hubs_local: np.ndarray, kind: int) -> None:
        """Broadcast (hub, dist) records; expand the local slice directly."""
        # repro: index-space: hubs_local=local, hubs=global
        assert self.delegates is not None
        hubs_in_frontier = self.lmap.to_global(hubs_local)
        slots = self.delegates.slots_of(hubs_in_frontier)
        d = self.dist[hubs_local]
        fresh = d < self.announced[slots]
        if kind == _KIND_HEAVY_ANNOUNCE:
            # Heavy relaxation happens once per epoch with the final value;
            # the light-phase filter must not suppress it.
            fresh = np.ones(d.shape, dtype=bool)
        else:
            self.announced[slots[fresh]] = d[fresh]
        hubs = hubs_in_frontier[fresh]
        dists = d[fresh]
        if hubs.size == 0:
            return
        # One copy of the records for every other rank; this rank's own
        # slice is expanded immediately (no self-message).
        self.announcements.route(hubs, dists, np.full(hubs.size, kind, dtype=np.uint8))
        self._expand_delegated(hubs, dists, kind)

    def _expand_delegated(self, hubs: np.ndarray, dists: np.ndarray, kind: int) -> None:
        assert self.delegates is not None
        if kind == _KIND_LIGHT_ANNOUNCE:
            targets, cands, scanned = self.delegates.expand(hubs, dists, weight_max=self.delta)
        else:
            targets, cands, scanned = self.delegates.expand(hubs, dists, weight_min=self.delta)
        self.step_edges += scanned
        self._route(targets, cands)

    # -- superstep bodies ------------------------------------------------------

    def process_inbox(self, msg: Message | None) -> None:
        """Apply received updates; expand received hub announcements."""
        if msg is None:
            return
        # repro: index-space: targets=global
        targets = msg["vertex"].astype(np.int64, copy=False)
        dists, kinds = msg["dist"], msg["kind"]
        if not kinds.any():
            # Pure-update message (the reduce round).  Plain updates are
            # routed to the owner, so every target is owned by this rank.
            self._apply(targets, dists)
            return
        for kind in (_KIND_LIGHT_ANNOUNCE, _KIND_HEAVY_ANNOUNCE):
            sel = kinds == kind
            if sel.any():
                self._expand_delegated(targets[sel], dists[sel], kind)

    def relax_bucket(self, k: int) -> None:
        """Drain bucket ``k`` through local light sub-iterations.

        With fusion enabled this loops until the bucket stops refilling
        locally (or ``fusion_cap`` is hit); without it, one pass.
        """
        max_iters = self.config.fusion_cap if self.config.fuse_buckets else 1
        # repro: index-space: frontier=local, targets=global
        for _ in range(max_iters):
            frontier = self.buckets.drain(k)
            if frontier.size == 0:
                return
            fresh = frontier[~self.in_epoch[frontier]]
            if fresh.size:
                self.in_epoch[fresh] = True
                self.settled_parts.append(fresh)
            if self.is_hub_local is not None:
                hub_mask = self.is_hub_local[frontier]
                normal = frontier[~hub_mask]
                hubs = frontier[hub_mask]
            else:
                normal, hubs = frontier, np.empty(0, dtype=np.int64)
            if normal.size:
                targets, cands, scanned = expand(
                    self.local_graph, normal, self.dist, weight_max=self.delta
                )
                self.step_edges += scanned
                self._route(targets, cands)
            if hubs.size:
                self._announce(hubs, _KIND_LIGHT_ANNOUNCE)

    def emit_heavy(self) -> None:
        """Relax the heavy edges of everything settled this epoch."""
        if not self.settled_parts:
            return
        # repro: index-space: settled=local, targets=global
        settled = np.concatenate(self.settled_parts)
        if self.is_hub_local is not None:
            hub_mask = self.is_hub_local[settled]
            normal = settled[~hub_mask]
            hubs = settled[hub_mask]
        else:
            normal, hubs = settled, np.empty(0, dtype=np.int64)
        if normal.size:
            targets, cands, scanned = expand(
                self.local_graph, normal, self.dist, weight_min=self.delta
            )
            self.step_edges += scanned
            self._route(targets, cands)
        if hubs.size:
            self._announce(hubs, _KIND_HEAVY_ANNOUNCE)

    # -- fused superstep phases (one team call per exchange side) -----------
    #
    # A light superstep is one call per fabric exchange.  Each outbound
    # call returns the rank's announcement wire — not ``None`` exactly when
    # it queued announcement records (which requires delegation) — and the
    # driver runs the broadcast round when any rank returns one.

    def light_superstep(self, k: int, first: bool) -> Wire | None:
        """Outbound half of a light superstep: drain, relax, flush announcements.

        ``first`` marks the epoch's first superstep and runs
        ``start_epoch`` inline.
        """
        if first:
            self.start_epoch()
        self.relax_bucket(k)
        return self.flush_outbox(self.announcements, to=self.others)

    def heavy_superstep(self) -> Wire | None:
        """Outbound half of the heavy round: emit, flush announcements."""
        self.emit_heavy()
        return self.flush_outbox(self.announcements, to=self.others)

    def process_then_flush_updates(self, msg: Message | None) -> Wire | None:
        """Apply the announcement inbox (None when the broadcast round was
        skipped), then flush the plain-update outbox for the reduce round."""
        self.process_inbox(msg)
        return self.flush_outbox(self.updates)

    def finish_light_superstep(self, msg: Message | None, k: int) -> tuple:
        """Inbound tail of a light superstep: apply updates, read out work.

        Returns ``(edges, bucket_ops, bytes, bucket_live)``; the driver
        charges the cost model from the first three and feeds the fourth
        to the continuation allreduce.
        """
        self.process_inbox(msg)
        return (*self._work_readout(), float(self.bucket_live(k)))

    def finish_epoch(self, msg: Message | None) -> tuple:
        """Inbound tail of the heavy round: apply updates, read out work.

        Returns ``(edges, bucket_ops, bytes, local_min_bucket)``; the last
        element is this rank's next termination vote, carried out of the
        fused call so the loop top needs no extra gather.
        """
        self.process_inbox(msg)
        return (*self._work_readout(), self.local_min_bucket())

    def _work_readout(self) -> tuple[float, float, float]:
        """``(edges, bucket_ops, bytes)`` since the last call, as floats.

        Guarded against double-reset: a second call without intervening
        work returns zeros, and a rebuilt/reset bucket structure (ops
        counter going backwards) can never yield negative charges.
        """
        bucket_ops = max(0, self.buckets.ops - self._bucket_ops_seen)
        self._bucket_ops_seen = self.buckets.ops
        edges, nbytes = self.take_step_work()
        return float(edges), float(bucket_ops), float(nbytes)

    # -- introspection -----------------------------------------------------

    def resident(self) -> dict[str, dict[str, np.ndarray]]:
        lg = self.local_graph
        vertex = {
            "dist": self.dist,
            "in_epoch": self.in_epoch,
            "local_indptr": lg.indptr,
            "announced": self.announced,
        }
        if self.is_hub_local is not None:
            vertex["is_hub_local"] = self.is_hub_local
        edges = {"adj": lg.adj, "weight": lg.weight}
        other = {"owned": self.owned}
        if self.delegates is not None:
            d = self.delegates
            edges.update(delegate_adj=d.adj, delegate_weight=d.weight)
            other.update(hubs=d.hubs, delegate_indptr=d.indptr)
        return {
            "vertex": vertex,
            # The ghost cache sizes with the vertices a rank actually
            # relaxes remotely (the halo), not with n.
            "halo": {} if self.ghosts is None else self.ghosts.resident(),
            "edges": edges,
            "other": other,
        }

    def answer(self) -> dict:
        return {"dist": self.dist}


class _DistSSSPEngine:
    """The 1-D ∆-stepping engine, expressed on the superstep substrate.

    The driver (:func:`repro.engine.driver.run_superstep_engine`) owns the
    fabric, team, solve span and the vote → allreduce → step loop; this
    class owns what is ∆-stepping-specific — bucket votes, the epoch body
    (light phases, hub announcement rounds, the heavy round), and the
    result assembly.  The sequence of team and fabric calls is exactly the
    pre-substrate engine's, which the byte-exact equivalence fixtures pin.
    """

    layout = "dist1d"
    kernel_name = "sssp"
    vote_op = "min"

    def __init__(
        self,
        source: int,
        config: SSSPConfig,
        delta: float,
        partition: Partition1D,
        hubs: np.ndarray,
        threshold: int,
    ) -> None:
        self.source = source
        self.config = config
        self.delta = delta
        self.partition = partition
        self.hubs = hubs
        self.threshold = threshold
        self.hierarchical = config.hierarchical_aggregation
        self.epochs = 0
        self.light_supersteps = 0
        self.heavy_rounds = 0

    # -- driver hooks ------------------------------------------------------

    def build_ranks(self, graph: CSRGraph, num_ranks: int) -> list[_Rank]:
        router = OwnerRouter(self.partition)
        config = self.config
        ranks = [
            _Rank(
                rank=r,
                graph=graph,
                owned=self.partition.vertices_of(r),
                router=router,
                delegates=(
                    DelegateTable.build(graph, self.hubs, r, num_ranks)
                    if config.delegate_hubs
                    else None
                ),
                config=config,
                delta=self.delta,
            )
            for r in range(num_ranks)
        ]
        src_rank = ranks[int(self.partition.owner_of(self.source))]
        src_local = int(src_rank.lmap.to_local(np.int64(self.source)))
        src_rank.dist[src_local] = 0.0
        src_rank.buckets.insert(np.array([src_local], dtype=np.int64))
        return ranks

    def votes(self, ctx: EngineContext) -> np.ndarray:
        # Termination allreduce: min over local minimum buckets.
        return _bucket_votes(ctx.team.call("local_min_bucket"))

    def done(self, reduced: float) -> bool:
        return reduced >= 1e300

    # -- step internals ----------------------------------------------------

    def _exchange_halves(
        self, ctx: EngineContext, sent: list, finish: str, finish_args: tuple
    ) -> np.ndarray:
        """The communication tail shared by light and heavy supersteps.

        ``sent`` holds each rank's announcement wire (or ``None``) from
        the fused outbound call.  Runs the announcement broadcast round
        when any rank queued one (the skip condition is knowable without
        extra cost on a real machine: the flag rides on the preceding
        allreduce), then the plain-update reduce round, then the fused
        ``finish`` call whose per-rank ``(edges, bucket_ops, bytes, vote)``
        rows it charges to the cost model and returns.  The fabric call
        sequence — conditional exchange, exchange, charge — is exactly the
        unfused engine's.
        """
        team, fabric = ctx.team, ctx.fabric
        if any(wire is not None for wire in sent):
            inboxes = fabric.exchange(sent)
        else:
            inboxes = [None] * ctx.num_ranks
        updates = team.call(
            "process_then_flush_updates",
            per_rank=[(m,) for m in inboxes],
            parallel=True,
        )
        inboxes = fabric.exchange(updates)
        stats = np.array(
            team.call(
                finish,
                per_rank=[(m,) for m in inboxes],
                common=finish_args,
                parallel=True,
            ),
            dtype=np.float64,
        )
        ctx.charge(stats, "edges", "bucket_ops", "bytes")
        return stats

    def step(self, ctx: EngineContext, reduced: float) -> np.ndarray:
        team, fabric, tracer = ctx.team, ctx.fabric, ctx.tracer
        k = int(reduced)
        self.epochs += 1
        epochs = self.epochs
        first = True
        with tracer.span("epoch", cat="engine", epoch=epochs, bucket=k):
            # ---- light phases.  Each superstep: local drain/relax, then
            # the announcement broadcast phase (delegation only), then the
            # update exchange.  Updates are applied on arrival, so after
            # the exchange the only live state is bucket membership —
            # whose per-rank flag rides out of the fused finish call into
            # the continuation allreduce.  Each superstep is three fused
            # team calls (outbound, mid, inbound) where the unfused engine
            # paid up to seven; fabric calls and values are unchanged.
            while True:
                frontier_total = (
                    int(sum(team.call("bucket_live_count", common=(k,))))
                    if tracer.enabled
                    else 0
                )
                with tracer.span(
                    "superstep",
                    cat="engine",
                    phase="light",
                    epoch=epochs,
                    bucket=k,
                    frontier=frontier_total,
                ) as sp:
                    sent = team.call(
                        "light_superstep",
                        common=(k, first),
                        parallel=True,
                    )
                    first = False
                    stats = self._exchange_halves(
                        ctx, sent, "finish_light_superstep", (k,)
                    )
                    ctx.close_step(sp)
                self.light_supersteps += 1
                if not fabric.allreduce_any(stats[:, 3]):
                    break
            # ---- heavy phase: one announcement round (delegation only)
            # plus one update round; heavy results only land in later
            # buckets, so no iteration is needed.
            with tracer.span(
                "superstep", cat="engine", phase="heavy", epoch=epochs, bucket=k
            ) as sp:
                sent = team.call("heavy_superstep", parallel=True)
                stats = self._exchange_halves(ctx, sent, "finish_epoch", ())
                ctx.close_step(sp)
            self.heavy_rounds += 1
        # The next min-bucket votes rode out of the fused finish_epoch call.
        return _bucket_votes(stats[:, 3])

    def finalize(
        self, ctx: EngineContext, exports: list[dict]
    ) -> tuple[SSSPResult, dict]:
        fabric = ctx.fabric
        # ---- assemble the global answer ---------------------------------
        # Each rank's dist vector is owned-local, so the gather is one
        # direct scatter per rank — no dense per-rank indexing.
        # repro: index-space: dist[global], r.owned=global
        dist = np.full(ctx.graph.num_vertices, _INF, dtype=np.float64)
        for r, export in zip(ctx.ranks, exports):
            dist[r.owned] = export["dist"]
        result = SSSPResult(
            source=self.source,
            dist=dist,
            parent=derive_parents(ctx.graph, dist, self.source),
        )
        result.counters.add("epochs", self.epochs)
        result.counters.add("light_supersteps", self.light_supersteps)
        result.counters.add("heavy_rounds", self.heavy_rounds)
        result.meta.update(
            algorithm="distributed_delta_stepping",
            delta=float(self.delta),
            num_ranks=ctx.num_ranks,
            hub_threshold=self.threshold,
            num_hubs=int(self.hubs.size),
            variant=self.config.variant_name(),
        )
        attach_fabric_outcome(result, fabric, "edges_relaxed")
        return result, {
            "partition": self.partition.kind,
            "config": self.config,
            "delta": float(self.delta),
        }
