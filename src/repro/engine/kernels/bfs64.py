"""Bit-parallel multi-source BFS: 64 root lanes per uint64 word.

Each vertex carries one ``visited`` and one ``frontier`` word with bit
``i`` meaning "reached / active in the BFS from ``roots[i]``".  A wire
record is ``(target, frontier-word-of-source, source)`` — one edge
traversal advances every lane whose bit is set, which is how a single
sweep answers up to 64 Graph500 roots.

Per-lane reconstruction is exact: claiming is level-synchronous, so a
lane's ``level`` column equals the single-root BFS levels bit for bit
(hop distance is unique), and the parent of a newly claimed vertex is
the *minimum* global source id among that superstep's claimants in that
lane — an order-free reduction, so parents are identical across
serial/thread/process backends and under fault injection.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.kernel import BFSResult
from repro.core.coalescing import dedup_min
from repro.core.relaxation import frontier_edges
from repro.engine.results import LanesResult
from repro.engine.validation import check_roots
from repro.graph.csr import CSRGraph
from repro.utils.bitset import MAX_LANES, lane_matrix

__all__ = ["BFS64"]

_NO_PARENT = np.int64(-1)


class BFS64:
    """Batched multi-source BFS on the vertex-kernel substrate."""

    name = "bfs64"
    vote_op = "sum"
    drain = False
    #: Claim-resolution crossover: peel min-scatter rounds while more
    #: than this many messages are live, then finish the tail with one
    #: per-(target, lane) sort.  Result-neutral (both rules compute the
    #: per-lane min claimant); tunes round count against sort size.
    peel_floor = 2048
    #: Multi-field wire record: the source's frontier word (lane
    #: membership of this edge's claim) and the global source id (parent
    #: candidate).  The implicit ``vertex`` field is the edge target.
    wire_fields = (("mask", np.uint64), ("src", np.int64))

    def __init__(self, roots) -> None:
        roots = check_roots(self.name, roots)
        if roots.size > MAX_LANES:
            raise ValueError(
                f"bfs64 carries one uint64 bit per root: at most "
                f"{MAX_LANES} roots per sweep, got {roots.size}"
            )
        self.roots = roots
        self.num_lanes = int(roots.size)

    def init_state(self, ctx) -> dict:
        lanes, locs = ctx.owned_roots(self.name, self.roots)
        owned = ctx.owned_count
        L = self.num_lanes
        # Lane-major, in the narrowest signed dtype holding n - 1; finalize widens.
        lane_dtype = np.min_scalar_type(-ctx.num_vertices)
        # repro: index-space: visited=local, frontier=local
        # repro: index-space: parent[lane,local]=global, level[lane,local]=local
        visited = np.zeros(owned, dtype=np.uint64)
        frontier = np.zeros(owned, dtype=np.uint64)
        parent = np.full((L, owned), _NO_PARENT, dtype=lane_dtype)
        level = np.full((L, owned), -1, dtype=lane_dtype)
        bits = np.uint64(1) << lanes.astype(np.uint64)
        np.bitwise_or.at(visited, locs, bits)
        np.bitwise_or.at(frontier, locs, bits)
        parent[lanes, locs] = self.roots[lanes]
        level[lanes, locs] = 0
        return {
            "visited": visited,
            "frontier": frontier,
            "parent": parent,
            "level": level,
            # Superstep depth: levels are claimed at the depth begin_step
            # advanced to (roots sit at 0).
            "depth": 0,
            # Per-lane edges-scanned telemetry (gen-owned key): how much
            # traversal each root's tree actually cost this rank.
            "lane_edges": np.zeros(L, dtype=np.int64),
        }

    def begin_step(self, state: dict, ctx, reduced: float) -> None:
        state["depth"] = state["depth"] + 1

    def frontier_from(self, state: dict, ctx) -> np.ndarray:
        return np.flatnonzero(state["frontier"])

    def gen_messages(self, state: dict, ctx, frontier: np.ndarray):
        # repro: index-space: frontier=local, dst=global
        lg = ctx.local_graph
        src_l, dst, _ = frontier_edges(lg, frontier)
        scanned = int(src_l.size)
        words = state["frontier"]
        masks = words[src_l]
        # Per-lane work attribution: lane i is charged every edge whose
        # source word has bit i set (that edge advanced lane i's tree) —
        # one degree-weighted column sum over the unpacked lane matrix.
        deg = lg.degree_of(frontier)
        lm = lane_matrix(words[frontier])[:, : self.num_lanes]
        state["lane_edges"] += (deg[:, None] * lm).sum(axis=0)
        return dst, (masks, src_l + ctx.lo), scanned

    def apply_messages(self, state: dict, ctx, targets, values) -> None:
        masks, srcs = values
        visited = state["visited"]
        arrive = np.zeros_like(visited)
        np.bitwise_or.at(arrive, targets, masks)
        new = arrive & ~visited
        state["visited"] = visited | new
        state["frontier"] = new
        if not new.any():
            return
        depth = state["depth"]
        # Lane stride of the (num_lanes, owned) level/parent matrices:
        # lane_matrix columns past num_lanes are never set (roots define
        # the bits), so flat keys ``lane * owned + row`` are exact.
        OW = np.int64(ctx.owned_count)
        level_flat = state["level"].reshape(-1)
        # Levels ride the parent-claim writes below: the claimed
        # (vertex, lane) pairs ARE the newly visited pairs (every new
        # bit has at least one contributing message), so one unpack
        # serves both matrices instead of unpacking ``new`` separately.
        # Parent claims.  The rule is "minimum global source id among the
        # lane's claimants" — order-free, so backends and fault schedules
        # cannot perturb the tree.  Computing that per (target, lane) pair
        # directly touches every claimant in every lane (~10x the message
        # count on hub-heavy graphs), so resolve it by peeling instead:
        # each round one min-scatter over the still-uncovered messages
        # finds each target's smallest claimant, which then claims every
        # lane it carries.  A lane's first-coverage round winner is the
        # minimum over exactly that lane's claimants (smaller sources
        # lacking the lane stay live, covered ones carried it), so the
        # result is identical to the per-lane reduction — but round one
        # resolves almost everything and later rounds shrink fast.
        contrib = masks & new[targets]
        kept = np.flatnonzero(contrib)
        # Narrow the claim arrays: peel rounds are memory-bound gathers
        # and compressions, so 4-byte ids halve their traffic.  Values
        # are exact (local targets < owned, sources < num_vertices) and
        # the min rule is dtype-blind; parent writes upcast back.
        idt = np.int32 if ctx.num_vertices < 2**31 else np.int64
        ct = targets[kept].astype(idt)
        cs = srcs[kept].astype(idt)
        pending = contrib[kept]
        parent_flat = state["parent"].reshape(-1)
        maxint = np.iinfo(idt).max
        win_t, win_s, win_p = [], [], []
        # Peeling pays while the live set is large (round one resolves
        # almost everything); the hub tail — few messages, many rounds —
        # is cheaper as one direct per-(target, lane) min below.
        while ct.size > self.peel_floor:
            best = np.full(ctx.owned_count, maxint, idt)
            np.minimum.at(best, ct, cs)
            win = cs == best[ct]
            pw = pending[win]
            win_t.append(ct[win])
            win_s.append(cs[win])
            win_p.append(pw)
            covered = np.zeros(ctx.owned_count, dtype=np.uint64)
            np.bitwise_or.at(covered, ct[win], pw)
            pending = pending & ~covered[ct]
            # Later rounds run over only the still-uncovered messages.
            live = pending != 0
            ct, cs, pending = ct[live], cs[live], pending[live]
        if ct.size:
            # Tail: uncovered lanes still hold their full claimant sets
            # (peeling clears bits only when a lane is covered), so the
            # minimum source per (target, lane) key is that lane's parent.
            rows2, lanes2 = np.nonzero(lane_matrix(pending))
            tail_keys, tail_src = dedup_min(lanes2 * OW + ct[rows2], cs[rows2])
            parent_flat[tail_keys] = tail_src
            level_flat[tail_keys] = depth
        if win_t:
            # One unpack covers every peeled round's claims (a lane is
            # claimed in exactly one round, so the writes are disjoint).
            wt = np.concatenate(win_t)
            ws = np.concatenate(win_s)
            wrows, wlanes = np.nonzero(lane_matrix(np.concatenate(win_p)))
            peel_keys = wlanes * OW + wt[wrows]
            parent_flat[peel_keys] = ws[wrows]
            level_flat[peel_keys] = depth

    def vote(self, state: dict, ctx) -> float:
        return float(np.count_nonzero(state["frontier"]))

    def done(self, reduced: float, steps: int) -> bool:
        return reduced == 0.0

    def export_state(self, state: dict, ctx) -> dict:
        return {
            "parent": state["parent"],
            "level": state["level"],
            "lane_edges": state["lane_edges"],
        }

    def finalize(
        self, graph: CSRGraph, exports: list[dict], steps: int
    ) -> LanesResult:
        parent = np.concatenate([e["parent"] for e in exports], axis=1, dtype=np.int64)
        level = np.concatenate([e["level"] for e in exports], axis=1, dtype=np.int64)
        lane_edges = np.sum([e["lane_edges"] for e in exports], axis=0)
        result = LanesResult(
            self.roots, BFSResult, {"parent": parent, "level": level},
            # A lane's expansion rounds, the shared kernel's counter: its
            # deepest level plus one.
            lane_counters={"levels": level.max(axis=1) + 1},
        )
        result.counters.add("levels", steps)
        result.meta["algorithm"] = "bfs64_bit_parallel"
        result.meta["num_lanes"] = self.num_lanes
        result.meta["lane_edges_scanned"] = [int(x) for x in lane_edges]
        return result
