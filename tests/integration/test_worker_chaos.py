"""Chaos: a process-backend worker that dies or stalls in a real run.

The fused outbound half of a substrate pass is patched before the team forks, so the
worker hosting a chosen rank kills itself (SIGKILL) or sleeps past the
reply timeout at a seeded call index.  The run must fail with a
:class:`WorkerError` naming that worker, its ranks and the phase; it must
leave no shared-memory segment and no worker process behind; and the
same executor must then run the solve again, valid and bit-identical to
serial.
"""

import multiprocessing
import os
import random
import signal
import time

import numpy as np
import pytest

from repro import api
from repro.graph.csr import build_csr
from repro.graph.kronecker import generate_kronecker
from repro.engine.protocol import _KernelRank
from repro.simmpi import parked
from repro.simmpi.executor import RankExecutor, WorkerError

NUM_RANKS = 8
WORKERS = 2
VICTIM = 3  # lives on worker 1, with ranks 1, 5 and 7
SEED = 7


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-/dev/shm platforms
        return set()


def _fail_and_recover(monkeypatch, fault, failure):
    """Inject ``fault()`` into the victim's phase at a seeded call; check the
    run fails with a ``failure`` WorkerError, cleanly, and the executor
    recovers."""
    graph = build_csr(generate_kronecker(10, seed=2022))
    source = int(np.argmax(graph.out_degree))
    phase = _KernelRank.superstep_send

    # Count the victim's calls of the phase on a serial run, so the seeded
    # fault index is one the process run is sure to reach.
    calls = []

    def counted(self, reduced, begin, settled):
        if self.rank == VICTIM:
            calls.append(reduced)
        return phase(self, reduced, begin, settled)

    with monkeypatch.context() as m:
        m.setattr(_KernelRank, "superstep_send", counted)
        serial = api.run(graph, source, num_ranks=NUM_RANKS)
    fault_at = random.Random(SEED).randrange(len(calls))

    seen = []  # the victim's calls so far, counted inside its worker

    def doomed(self, reduced, begin, settled):
        if self.rank == VICTIM:
            if len(seen) == fault_at:
                fault()
            seen.append(reduced)
        return phase(self, reduced, begin, settled)

    shm_before = _shm_names()
    children_before = set(multiprocessing.active_children())
    executor = RankExecutor("process", workers=WORKERS)
    with monkeypatch.context() as m:
        m.setattr(_KernelRank, "superstep_send", doomed)
        with pytest.raises(WorkerError, match=failure):
            api.run(graph, source, num_ranks=NUM_RANKS, executor=executor)
    assert seen == []  # the parent never ran the phase itself
    assert _shm_names() - shm_before == set()
    assert set(multiprocessing.active_children()) - children_before == set()

    again = api.run(graph, source, num_ranks=NUM_RANKS, executor=executor)
    assert again.result.validate(graph).ok
    assert again.result.dist.tobytes() == serial.result.dist.tobytes()
    assert set(multiprocessing.active_children()) - children_before == set()


def test_sigkilled_worker_fails_clean_and_the_executor_recovers(monkeypatch):
    _fail_and_recover(
        monkeypatch,
        lambda: os.kill(os.getpid(), signal.SIGKILL),
        r"rank worker 1 \(ranks \[1, 3, 5, 7\]\) died mid-call in 'superstep_send'",
    )


def test_stalled_worker_fails_clean_and_the_executor_recovers(monkeypatch):
    # The stalled worker wakes within the team's 5 s shutdown join, so it
    # exits on its STOP token rather than being terminated.
    monkeypatch.setattr(parked, "_WORKER_TIMEOUT", 1.0)
    _fail_and_recover(
        monkeypatch,
        lambda: time.sleep(2.0),
        r"rank worker 1 \(ranks \[1, 3, 5, 7\]\) stalled in 'superstep_send'",
    )
