"""``OwnerRouter.split`` and ``Outbox``: the wire side of the rank substrate.

The order ``split`` arranges a record batch in is the wire byte order, so
whichever way a batch is arranged — left as it stands when its owners
never decrease, after a stable owner sort otherwise, with the owner looked
up by range search or by dense gather — each destination's run must be
exactly the slice of the stable-argsort reference below.  The same
reference, applied per destination, is the oracle for the whole send path:
``Outbox`` → ``Wire`` → ``Fabric.exchange`` → inbox, in process and
through the process backend's arenas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalescing import dedup_min
from repro.engine.rank import Outbox, OwnerRouter
from repro.partition import Partition1D, hashed1d
from repro.simmpi.executor import RankTeam
from repro.simmpi.fabric import Fabric
from repro.simmpi.machine import small_cluster
from repro.simmpi.parked import ParkedProcessTeam


def contiguous(starts):
    """The partition whose rank ``r`` owns ``[starts[r], starts[r + 1])``."""
    counts = np.diff(starts)
    return Partition1D(np.repeat(np.arange(counts.size), counts), counts.size, "test")


def reference_split(targets, values, partition):
    """Owner lookup → stable argsort → one piece per owner present."""
    owners = partition.owner_of(targets)
    order = np.argsort(owners, kind="stable")
    return [
        (int(dst), targets[order][owners[order] == dst],
         tuple(v[order][owners[order] == dst] for v in values))
        for dst in np.unique(owners)
    ]


def split_pieces(router, targets, values):
    """``router.split`` cut into ``(dst, targets, values)`` runs, plus its columns."""
    columns, counts = router.split((targets, *values))
    assert counts.shape == (router.num_ranks,) and counts.sum() == targets.size
    ends = np.cumsum(counts)
    pieces = [
        (dst, columns[0][e - n : e], tuple(c[e - n : e] for c in columns[1:]))
        for dst, (n, e) in enumerate(zip(counts.tolist(), ends.tolist()))
        if n
    ]
    return pieces, columns


def assert_same_pieces(got, want):
    assert [dst for dst, _, _ in got] == [dst for dst, _, _ in want]
    for (_, gt, gv), (_, wt, wv) in zip(got, want):
        np.testing.assert_array_equal(gt, wt)
        assert gt.dtype == wt.dtype
        assert len(gv) == len(wv)
        for g, w in zip(gv, wv):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype


def batch(targets, dtype=np.int64):
    targets = np.asarray(targets, dtype=dtype)
    n = targets.size
    return targets, (np.arange(n, dtype=np.uint8), np.arange(n) * 0.5)


#: Four ranks owning [0, 10), [10, 10) (nothing), [10, 25), [25, 40).
RANGES = contiguous(np.array([0, 10, 10, 25, 40]))

MONOTONE = {
    "every owner": [0, 3, 9, 10, 17, 24, 25, 39],
    "range boundaries only": [0, 9, 10, 24, 25, 39],
    "empty destinations": [26, 26, 31],
    "single owner": [12, 11, 24, 10],  # targets unsorted, owners constant
    "owner-sorted, targets not": [5, 2, 7, 14, 11, 30, 25],
    "one record": [17],
}


@pytest.mark.parametrize("targets", MONOTONE.values(), ids=MONOTONE.keys())
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_owner_monotone_batch_is_cut_in_place(targets, dtype):
    targets, values = batch(targets, dtype)
    pieces, columns = split_pieces(OwnerRouter(RANGES), targets, values)
    assert_same_pieces(pieces, reference_split(targets, values, RANGES))
    # Already in destination order: the batch is the send buffer, uncopied.
    assert columns[0] is targets
    assert all(c is v for c, v in zip(columns[1:], values))


@pytest.mark.parametrize(
    "partition", [RANGES, hashed1d(40, 4), hashed1d(40, 300)],
    ids=["ranges", "hashed", "hashed, wide keys"],
)
@pytest.mark.parametrize("seed", range(5))
def test_shuffled_batch_takes_the_stable_sort(seed, partition):
    rng = np.random.default_rng(seed)
    targets, values = batch(rng.integers(0, 40, size=500))
    router = OwnerRouter(partition)
    assert (router.starts is None) == (partition.kind == "hashed1d")
    pieces, columns = split_pieces(router, targets, values)
    assert_same_pieces(pieces, reference_split(targets, values, partition))
    assert not np.shares_memory(columns[0], targets)


def test_single_rank_passes_the_batch_through():
    targets, values = batch([7, 3, 5])
    columns, counts = OwnerRouter(contiguous(np.array([0, 8]))).split(
        (targets, *values)
    )
    assert columns[0] is targets and columns[1:] == values
    assert counts.tolist() == [3]


def test_empty_batch_yields_nothing():
    targets, values = batch([])
    _, counts = OwnerRouter(RANGES).split((targets, *values))
    assert counts.tolist() == [0, 0, 0, 0]
    outbox = Outbox(OwnerRouter(RANGES), ("vertex", "kind", "dist"))
    outbox.route(targets, *values)
    assert outbox.flush() is None


def test_owner_keys_wider_than_a_byte():
    ranks = contiguous(np.arange(0, 301))  # 300 ranks, one vertex each
    router = OwnerRouter(ranks)
    targets, values = batch([0, 255, 256, 299])
    pieces, _ = split_pieces(router, targets, values)
    assert [dst for dst, _, _ in pieces] == [0, 255, 256, 299]
    assert_same_pieces(pieces, reference_split(targets, values, ranks))
    shuffled, values = batch([299, 0, 256, 255, 0])
    assert_same_pieces(
        split_pieces(router, shuffled, values)[0],
        reference_split(shuffled, values, ranks),
    )


def test_outbox_flushes_parts_in_insertion_order_and_counts_their_bytes():
    outbox = Outbox(OwnerRouter(RANGES), ("vertex", "dist"))
    outbox.route(np.array([30, 3]), np.array([0.5, 1.5]))
    outbox.route(np.array([4, 26, 27]), np.array([2.5, 3.5, 4.5]))
    wire = outbox.flush()
    assert wire.names == ("vertex", "dist")
    assert wire.counts.tolist() == [2, 0, 0, 3]
    assert wire.displs.tolist() == [0, 2, 2, 2]
    vertex, dist = wire.columns
    np.testing.assert_array_equal(vertex, [3, 4, 30, 26, 27])
    np.testing.assert_array_equal(dist, [1.5, 2.5, 0.5, 3.5, 4.5])
    assert wire.nbytes == 5 * 16
    assert outbox.flush() is None


# -- the send path against the per-destination oracle -----------------------

PARTITIONS = {"ranges": RANGES, "hashed": hashed1d(40, 4), "hashed, wide keys": hashed1d(40, 300)}
MODES = ("scatter", "broadcast", "few senders")


class _Sender:
    """A rank that flushes the batches it is handed and reads its inbox back."""

    def __init__(self, router):
        self.router = router

    def send(self, batches, to, fold):
        outbox = Outbox(
            self.router, ("vertex", "dist"), np.dtype(np.uint32),
            fold=dedup_min if fold else None,
        )
        for targets, dists in batches:
            outbox.route(targets, dists)
        return outbox.flush(to)

    def read(self, msg):
        return None if msg is None else (msg["vertex"], msg["dist"])


def make_case(seed, partition, calls, fold, mode):
    """``{src: (batches, to)}``: what each sending rank routes before one flush.

    Batches may be empty; under ``fold`` each is sorted-unique by target,
    as the ghost cache's ``coalesce_batch`` leaves them (which is what
    makes one whole-buffer fold equal a fold per destination).
    ``broadcast`` draws a receiver set per sender — possibly empty,
    possibly holding the sender.
    """
    rng = np.random.default_rng(seed)
    num_ranks = partition.num_ranks
    senders = rng.choice(num_ranks, size=1 if mode == "few senders" else 4, replace=False)
    sends = {}
    for src in sorted(senders.tolist()):
        batches = []
        for _ in range(calls):
            targets = rng.integers(0, 40, size=int(rng.integers(0, 30)))
            if fold:
                targets = np.unique(targets)
            batches.append((targets, rng.random(targets.size)))
        to = None
        if mode == "broadcast":
            to = np.sort(rng.choice(num_ranks, size=int(rng.integers(0, 4)), replace=False))
        sends[src] = (batches, to)
    return sends


def reference_delivery(sends, partition, fold):
    """What every rank must receive, built one destination at a time.

    Per sender and destination: the parts each batch contributes, in
    routing order, min-folded when there are several and ``fold`` is on,
    ids narrowed to the wire dtype.  Per destination: the senders' runs in
    rank order.  Returns ``(inboxes, bytes_matrix, messages)``.
    """
    num_ranks = partition.num_ranks
    runs = [[] for _ in range(num_ranks)]
    bytes_matrix = np.zeros((num_ranks, num_ranks), dtype=np.int64)
    for src in sorted(sends):
        batches, to = sends[src]
        parts: dict[int, list] = {}
        for targets, dists in batches:
            if to is None:
                for dst, part, (part_dists,) in reference_split(targets, (dists,), partition):
                    parts.setdefault(dst, []).append((part, part_dists))
            elif targets.size:
                for dst in to.tolist():
                    parts.setdefault(dst, []).append((targets, dists))
        for dst, queued in parts.items():
            targets = np.concatenate([t for t, _ in queued])
            dists = np.concatenate([d for _, d in queued])
            if fold and len(queued) > 1:
                targets, dists = dedup_min(targets, dists)
            targets = targets.astype(np.uint32)
            runs[dst].append((targets, dists))
            bytes_matrix[src, dst] = targets.nbytes + dists.nbytes
    inboxes = [
        (np.concatenate([t for t, _ in r]), np.concatenate([d for _, d in r])) if r else None
        for r in runs
    ]
    return inboxes, bytes_matrix, int(np.count_nonzero(bytes_matrix))


def deliver(team, sends, fold):
    """Flush on ``team``'s ranks, exchange, read back: ``(inboxes, bytes_matrix, messages)``."""
    num_ranks = team.num_ranks
    fabric = Fabric(small_cluster(num_ranks), num_ranks)
    recorded = []
    record = fabric.trace.record_exchange
    fabric.trace.record_exchange = lambda m, tiers, count: (
        recorded.append((m.copy(), count)), record(m, tiers, count)
    )
    wires = team.call(
        "send",
        per_rank=[sends.get(r, ([], None)) for r in range(num_ranks)],
        common=(fold,),
        parallel=True,
    )
    inboxes = fabric.exchange(wires)
    got = team.call("read", per_rank=[(m,) for m in inboxes], parallel=True)
    ((bytes_matrix, messages),) = recorded
    return got, bytes_matrix, messages


def assert_delivery_matches(team, partition, sends, fold):
    got, bytes_matrix, messages = deliver(team, sends, fold)
    want, want_bytes, want_messages = reference_delivery(sends, partition, fold)
    for dst, (g, w) in enumerate(zip(got, want)):
        assert (g is None) == (w is None), dst
        if w is not None:
            for got_col, want_col in zip(g, w):
                assert got_col.dtype == want_col.dtype
                assert got_col.tobytes() == want_col.tobytes(), dst
    np.testing.assert_array_equal(bytes_matrix, want_bytes)
    assert messages == want_messages


@given(
    seed=st.integers(0, 2**32 - 1),
    partition=st.sampled_from(sorted(PARTITIONS)),
    calls=st.sampled_from([1, 3]),
    fold=st.booleans(),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=120, deadline=None)
def test_exchange_delivers_what_the_per_destination_reference_does(
    seed, partition, calls, fold, mode
):
    partition = PARTITIONS[partition]
    router = OwnerRouter(partition)
    team = RankTeam([_Sender(router) for _ in range(partition.num_ranks)])
    sends = make_case(seed, partition, calls, fold, mode)
    assert_delivery_matches(team, partition, sends, fold)


@pytest.mark.parametrize("partition", PARTITIONS.values(), ids=PARTITIONS.keys())
def test_arena_backed_wires_meet_the_same_reference(partition):
    router = OwnerRouter(partition)
    team = ParkedProcessTeam(
        [_Sender(router) for _ in range(partition.num_ranks)], 2, racecheck=True
    )
    try:
        seed = 0
        for calls in (1, 3):
            for fold in (False, True):
                for mode in MODES:
                    seed += 1
                    sends = make_case(seed, partition, calls, fold, mode)
                    assert_delivery_matches(team, partition, sends, fold)
        audit = team.racecheck.report()
        assert audit["handles_minted"] > 0
        assert audit["handles_checked"] == audit["handles_minted"]
    finally:
        team.close()
