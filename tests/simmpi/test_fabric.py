"""Tests for the message fabric: delivery semantics and time accounting."""

import numpy as np
import pytest

from repro.simmpi.fabric import Fabric, Message, Wire
from repro.simmpi.machine import laptop_machine, small_cluster


def _msg(vertices, dists):
    return Message(
        vertex=np.asarray(vertices, dtype=np.int64),
        dist=np.asarray(dists, dtype=np.float64),
    )


def _wire(vertices, dists):
    """A one-destination wire holding the given records."""
    return Wire(
        ("vertex", "dist"),
        (np.asarray(vertices, dtype=np.int64), np.asarray(dists, dtype=np.float64)),
        [len(vertices)],
    )


class TestMessage:
    def test_basic(self):
        m = _msg([1, 2], [0.5, 0.7])
        assert len(m) == 2
        assert m.nbytes == 2 * 8 + 2 * 8
        assert m.names == ("vertex", "dist")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Message(a=np.zeros(2), b=np.zeros(3))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Message(a=np.zeros((2, 2)))

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            Message()

    # A received message is the concatenation of the pieces the fabric
    # gathers it from: ``(wire, start, count)`` runs of the senders' wires.

    def test_concat(self):
        a, b = _wire([7, 1], [0.7, 0.1]), _wire([2, 3, 9], [0.2, 0.3, 0.9])
        m = Message.gather([(a, 1, 1), (b, 0, 2)])
        assert len(m) == 3 and m.nbytes == 3 * 16
        assert np.array_equal(m["vertex"], [1, 2, 3])
        assert np.array_equal(m["dist"], [0.1, 0.2, 0.3])

    def test_concat_empty_returns_none(self):
        # Nothing addressed to a rank is no message at all, and pieces
        # that are all empty keep the schema.
        f = Fabric(laptop_machine(), 2)
        assert f.exchange([None, {}]) == [None, None]
        assert f.allgather([None, None]) == [None, None]
        m = Message.gather([(_wire([1], [0.1]), 0, 0), (_wire([2], [0.2]), 1, 0)])
        assert len(m) == 0 and m.names == ("vertex", "dist")
        assert m["vertex"].dtype == np.int64 and m["vertex"].size == 0

    def test_concat_single_returns_it_uncopied(self):
        # The lone-sender fast path: payloads are immutable, so aliasing
        # is safe and skips a full copy of every field.
        wire = _wire([1, 2, 5], [0.1, 0.2, 0.5])
        m = Message.gather([(wire, 1, 2)])
        assert np.array_equal(m["vertex"], [2, 5])
        assert all(np.shares_memory(got, col) for got, col in zip(m.columns, wire.columns))
        # Empty pieces next to it cost no copy either.
        m = Message.gather([(_wire([9], [0.9]), 0, 0), (wire, 0, 3)])
        assert np.shares_memory(m["dist"], wire.columns[1])

    def test_concat_schema_mismatch(self):
        with pytest.raises(ValueError):
            Message.gather(_msg([1], [0.1]).pieces + Message(other=np.zeros(1)).pieces)
        narrow = Wire(("vertex", "dist"), (np.zeros(1, np.uint32), np.zeros(1)), [1])
        with pytest.raises(ValueError):
            Message.gather([(_wire([1], [0.1]), 0, 1), (narrow, 0, 1)])

    def test_zero_length_message(self):
        m = _msg([], [])
        assert len(m) == 0


class TestWire:
    def test_scatter_runs_are_back_to_back(self):
        wire = Wire(("v",), (np.arange(6),), [2, 0, 4])
        assert wire.displs.tolist() == [0, 2, 2]
        assert wire.nbytes == 6 * 8 and wire.schema == (("v", "int64"),)

    def test_broadcast_is_one_copy_with_overlapping_runs(self):
        f = Fabric(small_cluster(), 3)
        wire = Wire(
            ("vertex", "dist"), (np.array([4, 5]), np.array([0.4, 0.5])),
            counts=[0, 2, 2], displs=[0, 0, 0],
        )
        inboxes = f.exchange([wire, None, None])
        assert inboxes[0] is None
        for inbox in inboxes[1:]:
            assert np.array_equal(inbox["vertex"], [4, 5])
            assert np.shares_memory(inbox["dist"], wire.columns[1])
        # Every receiver's copy is charged, though one was built.
        assert wire.nbytes == f.trace.total_bytes == 2 * 2 * 16
        assert f.trace.messages == 2

    def test_run_outside_the_buffer_rejected(self):
        with pytest.raises(ValueError, match="outside the send buffer"):
            Wire(("v",), (np.arange(3),), [2, 2])
        with pytest.raises(ValueError, match="outside the send buffer"):
            Wire(("v",), (np.arange(3),), [2], displs=[2])

    def test_columns_must_match_names_and_lengths(self):
        with pytest.raises(ValueError):
            Wire(("a", "b"), (np.arange(3),), [3])
        with pytest.raises(ValueError):
            Wire(("a", "b"), (np.arange(3), np.arange(2)), [2])

    def test_counts_for_another_rank_count_rejected(self):
        f = Fabric(laptop_machine(), 3)
        with pytest.raises(ValueError, match="counts for 2 ranks"):
            f.exchange([Wire(("v",), (np.arange(2),), [1, 1]), None, None])


class TestExchange:
    def test_delivery(self):
        f = Fabric(laptop_machine(), 3)
        outboxes = [
            {1: _msg([10], [1.0]), 2: _msg([20], [2.0])},
            {2: _msg([21], [2.1])},
            {},
        ]
        inboxes = f.exchange(outboxes)
        assert inboxes[0] is None
        assert np.array_equal(inboxes[1]["vertex"], [10])
        assert np.array_equal(inboxes[2]["vertex"], [20, 21])
        assert np.array_equal(inboxes[2]["dist"], [2.0, 2.1])

    def test_source_order_preserved(self):
        f = Fabric(laptop_machine(), 3)
        inboxes = f.exchange([{0: _msg([5], [0.5])}, {0: _msg([6], [0.6])}, {}])
        assert np.array_equal(inboxes[0]["vertex"], [5, 6])

    def test_self_message_delivered_free_of_network_bytes(self):
        f = Fabric(laptop_machine(), 2)
        f.exchange([{0: _msg([1], [1.0])}, {}])
        assert f.trace.total_bytes == 0  # local tier carries no network bytes
        assert f.trace.messages == 0  # and it is no message either

    def test_bytes_accounting(self):
        f = Fabric(small_cluster(), 2)
        f.exchange([{1: _msg([1, 2, 3], [0.1, 0.2, 0.3])}, {}])
        assert f.trace.total_bytes == 3 * 16
        assert f.trace.bytes_sent_per_rank.tolist() == [48, 0]

    def test_tier_split(self):
        m = small_cluster(64)  # 16 nodes/supernode
        f = Fabric(m, 32)
        f.exchange([{1: _msg([1], [1.0]), 20: _msg([2], [2.0])}] + [{}] * 31)
        assert f.trace.bytes_intra == 16
        assert f.trace.bytes_inter == 16

    def test_comm_time_charged(self):
        f = Fabric(small_cluster(), 2)
        before = f.clock.component("comm")
        f.exchange([{1: _msg(np.arange(1000), np.ones(1000))}, {}])
        after = f.clock.component("comm")
        m = f.machine
        expected = m.alpha_intra + 16_000 * m.beta_intra
        assert after - before == pytest.approx(expected)

    def test_empty_exchange_costs_no_comm(self):
        f = Fabric(laptop_machine(), 4)
        f.exchange([{}, {}, {}, {}])
        assert f.clock.component("comm") == 0.0
        assert f.clock.component("sync") > 0.0  # barrier still happens

    def test_slowest_rank_dominates(self):
        """Step time is the max pipeline, not the sum across ranks."""
        f1 = Fabric(small_cluster(), 3)
        f1.exchange([{1: _msg(np.arange(100), np.ones(100))}, {}, {}])
        t1 = f1.clock.component("comm")
        f2 = Fabric(small_cluster(), 3)
        # Two *disjoint* pairs move in parallel: same step time as one pair.
        f2.exchange(
            [
                {1: _msg(np.arange(100), np.ones(100))},
                {},
                {1: _msg(np.arange(50), np.ones(50))},
            ]
        )
        t2 = f2.clock.component("comm")
        assert t2 > t1  # rank 1 receives both -> its recv pipeline is longer
        f3 = Fabric(small_cluster(), 4)
        f3.exchange(
            [
                {1: _msg(np.arange(100), np.ones(100))},
                {},
                {3: _msg(np.arange(100), np.ones(100))},
                {},
            ]
        )
        assert f3.clock.component("comm") == pytest.approx(t1)

    def test_invalid_destination(self):
        f = Fabric(laptop_machine(), 2)
        with pytest.raises(ValueError):
            f.exchange([{5: _msg([1], [1.0])}, {}])

    def test_wrong_outbox_count(self):
        f = Fabric(laptop_machine(), 2)
        with pytest.raises(ValueError):
            f.exchange([{}])


class TestCollectives:
    def test_allreduce_ops(self):
        f = Fabric(laptop_machine(), 4)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert f.allreduce(vals, "sum") == 10.0
        assert f.allreduce(vals, "min") == 1.0
        assert f.allreduce(vals, "max") == 4.0

    def test_allreduce_any(self):
        f = Fabric(laptop_machine(), 3)
        assert f.allreduce_any(np.array([0, 0, 1]))
        assert not f.allreduce_any(np.array([0, 0, 0]))

    def test_allreduce_counts_and_charges(self):
        f = Fabric(laptop_machine(), 4)
        f.allreduce(np.ones(4))
        assert f.trace.allreduces == 1
        assert f.clock.component("sync") > 0

    def test_allreduce_bad_shape(self):
        f = Fabric(laptop_machine(), 4)
        with pytest.raises(ValueError):
            f.allreduce(np.ones(3))

    def test_allreduce_bad_op(self):
        f = Fabric(laptop_machine(), 2)
        with pytest.raises(ValueError):
            f.allreduce(np.ones(2), "prod")


class TestComputeCharging:
    def test_max_rank_dominates(self):
        f = Fabric(laptop_machine(), 2)
        f.charge_compute(edges=np.array([100.0, 200.0]))
        expected = 200.0 / f.machine.edge_rate
        assert f.clock.component("compute") == pytest.approx(expected)

    def test_components_add(self):
        f = Fabric(laptop_machine(), 1)
        f.charge_compute(edges=np.array([100.0]), bucket_ops=np.array([50.0]))
        expected = 100.0 / f.machine.edge_rate + 50.0 / f.machine.bucket_rate
        assert f.clock.component("compute") == pytest.approx(expected)

    def test_work_accumulated_per_rank(self):
        f = Fabric(laptop_machine(), 2)
        f.charge_compute(edges=np.array([10.0, 30.0]))
        f.charge_compute(edges=np.array([10.0, 10.0]))
        assert np.array_equal(f.work_per_rank["edges"], [20, 40])
        assert f.compute_imbalance("edges") == pytest.approx(40 / 30)

    def test_imbalance_defaults_to_one(self):
        f = Fabric(laptop_machine(), 2)
        assert f.compute_imbalance() == 1.0

    def test_unknown_component_rejected(self):
        f = Fabric(laptop_machine(), 1)
        with pytest.raises(ValueError):
            f.charge_compute(flops=np.array([1.0]))

    def test_negative_work_rejected(self):
        f = Fabric(laptop_machine(), 1)
        with pytest.raises(ValueError):
            f.charge_compute(edges=np.array([-1.0]))


class TestClock:
    def test_breakdown_totals(self):
        f = Fabric(laptop_machine(), 2)
        f.charge_compute(edges=np.array([1e6, 1e6]))
        f.exchange([{1: _msg([1], [1.0])}, {}])
        bd = f.clock.breakdown()
        assert set(bd) == {"compute", "comm", "sync"}
        assert f.clock.total == pytest.approx(sum(bd.values()))

    def test_negative_charge_rejected(self):
        f = Fabric(laptop_machine(), 1)
        with pytest.raises(ValueError):
            f.clock.charge("compute", -1.0)


class TestStepSeries:
    def test_step_bytes_recorded(self):
        f = Fabric(small_cluster(), 2)
        f.exchange([{1: _msg([1, 2], [0.1, 0.2])}, {}])
        f.exchange([{}, {0: _msg([3], [0.3])}])
        assert f.trace.step_bytes == [32, 16]
        assert f.trace.messages == 2

    def test_series_sums_to_total(self):
        f = Fabric(small_cluster(), 3)
        for _ in range(4):
            f.exchange([{1: _msg([1], [0.5])}, {2: _msg([2], [0.5])}, {}])
        assert sum(f.trace.step_bytes) == f.trace.total_bytes
