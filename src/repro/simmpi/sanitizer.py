"""Runtime fabric sanitizer: communication invariants checked per collective.

Where :mod:`repro.lint` checks the *source* for hazards, the sanitizer
checks the *running fabric*: every exchange/allgather/allreduce is
audited for the BSP invariants an engine silently depends on —

* **collective matching** — within one exchange, every message carries
  the same schema (field names and dtypes).  Mixed schemas mean two
  ranks disagree about which collective they are in, the SimMPI analogue
  of mismatched MPI tags; gathering them would either crash or,
  worse, silently upcast dtypes and change wire bytes.
* **message conservation** — every element sent is delivered exactly
  once: per destination, the delivered length equals the sum of the
  addressed message lengths.  Fault injection retransmits drops, so
  conservation must hold with faults on; a violation means payload was
  lost outside the FaultPlan's ack/retry protocol.
* **payload sanity** — no NaN reaches an allreduce (a NaN poisons
  min/max termination detection and deadlocks real codes).
* **no-progress detection** — a long run of zero-payload collectives is
  the BSP signature of livelock: every rank keeps voting "not done"
  while nobody sends anything.  After ``deadlock_threshold`` consecutive
  empty collectives the sanitizer raises instead of looping forever.

Violations raise :class:`SanitizerViolation` immediately (fail-fast: the
first broken invariant is the informative one) and are mirrored as
``cat="sanitizer"`` tracer events so they land in trace timelines.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["FabricSanitizer", "SanitizerViolation"]


class SanitizerViolation(RuntimeError):
    """A communication invariant was broken; the run cannot be trusted."""


class FabricSanitizer:
    """Per-collective invariant checks for one :class:`~repro.simmpi.fabric.Fabric`.

    One instance lives for one fabric (one run).  ``report()`` summarizes
    what was audited; any violation raises before the collective returns,
    so a completed run audited by a sanitizer has zero violations by
    construction.
    """

    def __init__(
        self,
        num_ranks: int,
        tracer: Tracer | None = None,
        deadlock_threshold: int = 256,
    ) -> None:
        self.num_ranks = num_ranks
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.deadlock_threshold = int(deadlock_threshold)
        self.collectives = 0
        self.messages_checked = 0
        self.elements_checked = 0
        self.drops_reconciled = 0
        self.empty_streak = 0
        self.max_empty_streak = 0

    # -- violation plumbing -------------------------------------------------

    def _violate(self, kind: str, detail: str, **tags) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "violation", cat="sanitizer", kind=kind, detail=detail, **tags
            )
        raise SanitizerViolation(f"fabric sanitizer [{kind}]: {detail}")

    def _progress(self, kind: str, payload_elements: int) -> None:
        self.collectives += 1
        if payload_elements > 0:
            self.empty_streak = 0
            return
        self.empty_streak += 1
        self.max_empty_streak = max(self.max_empty_streak, self.empty_streak)
        if self.empty_streak >= self.deadlock_threshold:
            self._violate(
                "no-progress",
                f"{self.empty_streak} consecutive zero-payload collectives "
                f"(last: {kind}); the engine is spinning without exchanging "
                f"data — termination detection is likely broken",
                streak=self.empty_streak,
            )

    # -- per-collective checks ----------------------------------------------

    def check_exchange(
        self,
        step: int,
        wires: list,
        delivered: list,
        fault_tags: dict,
    ) -> None:
        """Audit one personalized all-to-all.

        ``wires`` holds what each rank sent (a
        :class:`~repro.simmpi.fabric.Wire` or ``None``), ``delivered[dst]``
        the inbox rank ``dst`` was handed.  The audit reads headers and
        counts only: the schema is the wire header, and what a rank must
        receive is its column of the stacked counts.
        """
        schema = None
        sent_to = np.zeros(self.num_ranks, dtype=np.int64)
        for src, wire in enumerate(wires):
            if wire is None:
                continue
            sent_to += wire.counts
            # A run a rank addresses to itself is delivered, but it is no message.
            self.messages_checked += int(np.count_nonzero(wire.counts) - (wire.counts[src] != 0))
            s = wire.schema
            if schema is None:
                schema = s
            elif s != schema:
                self._violate(
                    "collective-mismatch",
                    f"superstep {step}: messages with schemas {schema} "
                    f"and {s} in one exchange — senders disagree about "
                    f"which collective this is",
                    step=step,
                )
        for dst, expected in enumerate(sent_to.tolist()):
            got = 0 if delivered[dst] is None else len(delivered[dst])
            if got != expected:
                self._violate(
                    "conservation",
                    f"superstep {step}: rank {dst} was sent {expected} "
                    f"element(s) but received {got} — payload lost or "
                    f"duplicated outside the ack/retry protocol",
                    step=step,
                    rank=dst,
                )
            if delivered[dst] is not None and schema is not None:
                got_schema = delivered[dst].schema
                if got_schema != schema:
                    self._violate(
                        "collective-mismatch",
                        f"superstep {step}: rank {dst} inbox schema "
                        f"{got_schema} differs from wire schema {schema} — "
                        f"concatenation changed dtypes",
                        step=step,
                        rank=dst,
                    )
        total_elements = int(sent_to.sum())
        self.elements_checked += total_elements
        drops = int(fault_tags.get("drops", 0))
        retries = int(fault_tags.get("retries", 0))
        if drops and not retries:
            self._violate(
                "unacked-drop",
                f"superstep {step}: {drops} message(s) dropped with no "
                f"retry round — the fault path lost payload silently",
                step=step,
            )
        self.drops_reconciled += drops
        self._progress("exchange", total_elements)

    def check_allgather(self, step: int, contributions: list, delivered: list) -> None:
        """Audit one allgather: matching schemas, conservation at every rank."""
        schema = None
        expected = 0
        for src, msg in enumerate(contributions):
            if msg is None or len(msg) == 0:
                continue
            expected += len(msg)
            self.messages_checked += int(self.num_ranks > 1)  # a lone rank sends nothing
            s = msg.schema
            if schema is None:
                schema = s
            elif s != schema:
                self._violate(
                    "collective-mismatch",
                    f"superstep {step}: allgather contributions with "
                    f"schemas {schema} and {s} — rank {src} disagrees "
                    f"about which collective this is",
                    step=step,
                    rank=src,
                )
        for dst, inbox in enumerate(delivered):
            got = 0 if inbox is None else len(inbox)
            if got != expected:
                self._violate(
                    "conservation",
                    f"superstep {step}: allgather contributed {expected} "
                    f"element(s) but rank {dst} received {got}",
                    step=step,
                    rank=dst,
                )
        self.elements_checked += expected * self.num_ranks
        self._progress("allgather", expected)

    def check_allreduce(self, values: np.ndarray, op: str) -> None:
        """Audit one allreduce: no NaN contribution from any rank.

        ``inf`` is a legal contribution (the engines' "no vote"): a min,
        max or sum over non-negative votes that include it never yields
        NaN.
        """
        if np.isnan(values).any():
            bad = np.flatnonzero(np.isnan(values)).tolist()
            self._violate(
                "nan-reduction",
                f"allreduce({op}) received NaN from rank(s) {bad}; a NaN "
                f"poisons min/max termination detection",
                op=op,
            )
        # Scalar votes are control plane, not payload: they neither feed
        # nor reset the no-progress streak (a spinning engine reduces a
        # termination flag every iteration while moving no data).
        self.collectives += 1

    # -- reporting ----------------------------------------------------------

    def report(self) -> dict:
        """Summary for engine meta / telemetry: what was audited."""
        return {
            "collectives": self.collectives,
            "messages_checked": self.messages_checked,
            "elements_checked": self.elements_checked,
            "drops_reconciled": self.drops_reconciled,
            "max_empty_streak": self.max_empty_streak,
            "violations": 0,  # violations raise; a report implies none
        }
