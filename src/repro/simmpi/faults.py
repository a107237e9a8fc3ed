"""Fault injection for the simulated fabric.

A full-machine run cannot assume a fault-free interconnect: at 10^5 nodes,
dropped messages, stalled ranks and slow links are routine.  This module
models them *deterministically*: a :class:`FaultSpec` describes the fault
environment (drop probability, delay/jitter, transient rank stalls, a
degraded-link model) and a :class:`FaultPlan` turns it into a seeded,
replayable schedule — every decision is a pure function of
``(seed, superstep, src, dst, attempt)``, so two runs with the same seed see
byte-identical fault schedules regardless of Python hashing or call order.

The fabric pairs the plan with an ack/retry protocol (timeout + exponential
backoff): a dropped message is retransmitted until delivered, so faults cost
*modeled time* and *retried bytes*, never correctness — the engines' answers
stay bit-identical to the fault-free run.

Counter-based randomness uses the splitmix64 finalizer: the key tuple is
folded into one 64-bit counter, finalized, and mapped to a uniform in
``[0, 1)``.  This is the standard trick (Random123 / Philox family) for
reproducible simulation randomness that is order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.utils.prng import splitmix64

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "UndeliverableMessageError",
    "parse_faults",
]

# The splitmix64 golden-ratio constant (Steele, Lea & Flood 2014) spreads the seed.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# Distinct odd multipliers decorrelate the key components.
_K_STREAM = np.uint64(0xD1B54A32D192ED03)
_K_STEP = np.uint64(0x8CB92BA72F3D8DD7)
_K_SRC = np.uint64(0xABC98388FB8FAC03)
_K_DST = np.uint64(0x049838A2E0B4E249)
_K_ATTEMPT = np.uint64(0x9FB21C651E98DF25)

# Named sub-streams so e.g. the drop decision at (step, src, dst) never
# correlates with the delay sample at the same coordinates.
_STREAM_DROP = 1
_STREAM_DELAY = 2
_STREAM_STALL = 3
_STREAM_STALL_LEN = 4
_STREAM_LINK = 5

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


class UndeliverableMessageError(RuntimeError):
    """Raised when a message exhausts the retry budget (a dead link)."""


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of the fault environment.

    Attributes:
        drop: per-message, per-attempt drop probability in ``[0, 1)``.
        delay: mean extra latency injected per delayed message (s).
        delay_prob: fraction of messages that suffer the extra delay
            (1.0 once ``delay`` is set, i.e. every message jitters).
        jitter: amplitude of the uniform jitter added on top of ``delay``.
        stall: per-rank, per-superstep probability of a transient stall
            (an OS noise event, a slow CPE group, a busy NIC).
        stall_time: duration of one stall event (s).
        degraded: fraction of directed links running degraded.
        degraded_factor: bandwidth divisor on degraded links (4.0 means a
            degraded link moves bytes at 1/4 the healthy rate).
        seed: master seed of the deterministic schedule.
        timeout: ack timeout before the first retransmission (s); ``None``
            derives it from the machine's worst-case latency.
        max_retries: retry budget per message before the link is declared
            dead (:class:`UndeliverableMessageError`).
        backoff: exponential backoff multiplier between retries.
    """

    drop: float = 0.0
    delay: float = 0.0
    delay_prob: float = 1.0
    jitter: float = 0.0
    stall: float = 0.0
    stall_time: float = 100e-6
    degraded: float = 0.0
    degraded_factor: float = 4.0
    seed: int = 0
    timeout: float | None = None
    max_retries: int = 24
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop < 1.0):
            raise ValueError(f"drop probability must be in [0, 1); got {self.drop}")
        if not (0.0 <= self.delay_prob <= 1.0):
            raise ValueError(f"delay_prob must be in [0, 1]; got {self.delay_prob}")
        if not (0.0 <= self.stall <= 1.0):
            raise ValueError(f"stall probability must be in [0, 1]; got {self.stall}")
        if not (0.0 <= self.degraded <= 1.0):
            raise ValueError(f"degraded fraction must be in [0, 1]; got {self.degraded}")
        for attr in ("delay", "jitter", "stall_time"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")
        if self.degraded_factor < 1.0:
            raise ValueError("degraded_factor must be >= 1 (a divisor on bandwidth)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")

    @property
    def active(self) -> bool:
        """Whether any fault class is enabled (False => zero-cost path)."""
        return (
            self.drop > 0.0
            or self.delay > 0.0
            or self.jitter > 0.0
            or self.stall > 0.0
            or self.degraded > 0.0
        )

    def with_seed(self, seed: int) -> "FaultSpec":
        return replace(self, seed=int(seed))

    def describe(self) -> dict[str, object]:
        """Compact non-default view for run metadata and reports."""
        default = FaultSpec()
        out: dict[str, object] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value != getattr(default, name):
                out[name] = value
        out.setdefault("seed", self.seed)
        return out


def _parse_duration(key: str, raw: str) -> float:
    text = raw.strip().lower()
    for unit in ("ns", "us", "ms", "s"):
        if text.endswith(unit):
            try:
                return float(text[: -len(unit)]) * _TIME_UNITS[unit]
            except ValueError:
                break
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"bad duration for {key!r}: {raw!r} (expected e.g. '2us', '1.5ms', '0.001')"
        ) from None


def parse_faults(text: str) -> FaultSpec:
    """Build a :class:`FaultSpec` from a spec like ``"drop=0.01,delay=2us,seed=7"``.

    Probabilities are plain floats; durations accept ``s``/``ms``/
    ``us``/``ns`` suffixes (bare numbers are seconds).
    """
    if not text or not text.strip():
        return FaultSpec()
    durations = {"delay", "jitter", "stall_time", "timeout"}
    ints = {"seed", "max_retries"}
    kwargs: dict[str, object] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad fault spec item {item!r} (expected key=value)")
        key, _, raw = item.partition("=")
        key = key.strip().replace("-", "_")
        if key not in FaultSpec.__dataclass_fields__:
            options = ", ".join(sorted(FaultSpec.__dataclass_fields__))
            raise ValueError(f"unknown fault spec key {key!r}; options: {options}")
        if key in durations:
            kwargs[key] = _parse_duration(key, raw)
        elif key in ints:
            kwargs[key] = int(raw)
        else:
            kwargs[key] = float(raw)
    return FaultSpec(**kwargs)


class FaultPlan:
    """A seeded, deterministic fault schedule over a fixed rank count.

    Every query is a pure function of the plan's seed and the integer
    coordinates it is given; the plan keeps no mutable state, so the fabric
    may interleave queries in any order without perturbing the schedule.
    """

    def __init__(self, spec: FaultSpec, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.spec = spec
        self.num_ranks = int(num_ranks)
        self._seed = np.uint64(np.int64(spec.seed).view(np.uint64))
        # The degraded-link map is a static property of the schedule: link
        # (src, dst) is degraded iff its link-stream uniform < degraded.
        if spec.degraded > 0.0:
            src = np.repeat(np.arange(num_ranks, dtype=np.uint64), num_ranks)
            dst = np.tile(np.arange(num_ranks, dtype=np.uint64), num_ranks)
            u = self._uniform(_STREAM_LINK, np.uint64(0), src, dst, np.uint64(0))
            slow = (u < spec.degraded).reshape(num_ranks, num_ranks)
            self.link_beta_factor = np.where(slow, spec.degraded_factor, 1.0)
        else:
            self.link_beta_factor = None

    @classmethod
    def coerce(
        cls, faults: "FaultPlan | FaultSpec | str | None", num_ranks: int
    ) -> "FaultPlan | None":
        """Accept a plan, spec, CLI string, or ``None`` (from any API layer)."""
        if faults is None:
            return None
        if isinstance(faults, cls):
            if faults.num_ranks != num_ranks:
                raise ValueError(
                    f"fault plan was built for {faults.num_ranks} ranks, "
                    f"fabric has {num_ranks}"
                )
            return faults if faults.spec.active else None
        if isinstance(faults, str):
            faults = parse_faults(faults)
        if not isinstance(faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultPlan, FaultSpec, spec string or None; "
                f"got {type(faults).__name__}"
            )
        return cls(faults, num_ranks) if faults.active else None

    # -- counter-based uniforms -------------------------------------------

    def _uniform(self, stream: int, step, src, dst, attempt) -> np.ndarray:
        """Deterministic uniforms in [0, 1) for the given coordinates.

        All arguments broadcast; the result has the broadcast shape.
        """
        with np.errstate(over="ignore"):  # uint64 wrap-around is the point
            x = (
                self._seed * _GAMMA
                ^ np.uint64(stream) * _K_STREAM
                ^ np.asarray(step, dtype=np.uint64) * _K_STEP
                ^ np.asarray(src, dtype=np.uint64) * _K_SRC
                ^ np.asarray(dst, dtype=np.uint64) * _K_DST
                ^ np.asarray(attempt, dtype=np.uint64) * _K_ATTEMPT
            )
            bits = splitmix64(splitmix64(x))
        return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)

    # -- per-fault-class queries ------------------------------------------

    def drop_mask(
        self, step: int, src: np.ndarray, dst: np.ndarray, attempt: int
    ) -> np.ndarray:
        """True where message (src[i] -> dst[i]) is dropped on ``attempt``."""
        if self.spec.drop <= 0.0:
            return np.zeros(np.broadcast(src, dst).shape, dtype=bool)
        u = self._uniform(_STREAM_DROP, step, src, dst, attempt)
        return u < self.spec.drop

    def delay_of(self, step: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Extra seconds of latency injected on each message's first hop."""
        spec = self.spec
        if spec.delay <= 0.0 and spec.jitter <= 0.0:
            return np.zeros(np.broadcast(src, dst).shape, dtype=np.float64)
        u = self._uniform(_STREAM_DELAY, step, src, dst, 0)
        if spec.delay_prob < 1.0:
            hit = u < spec.delay_prob
            # Re-use the uniform *within* the hit band for the magnitude so
            # one stream decides both (still deterministic, no correlation
            # with drop/stall streams).
            frac = np.where(hit, u / max(spec.delay_prob, 1e-300), 0.0)
        else:
            hit = np.ones_like(u, dtype=bool)
            frac = u
        return np.where(hit, spec.delay + spec.jitter * frac, 0.0)

    def stall_times(self, step: int) -> np.ndarray:
        """Seconds each rank loses to a transient stall this superstep."""
        spec = self.spec
        ranks = np.arange(self.num_ranks, dtype=np.uint64)
        if spec.stall <= 0.0 or spec.stall_time <= 0.0:
            return np.zeros(self.num_ranks, dtype=np.float64)
        u = self._uniform(_STREAM_STALL, step, ranks, 0, 0)
        hit = u < spec.stall
        if not hit.any():
            return np.zeros(self.num_ranks, dtype=np.float64)
        # Stall length varies 0.5x-1.5x around stall_time, its own stream.
        v = self._uniform(_STREAM_STALL_LEN, step, ranks, 0, 0)
        return np.where(hit, spec.stall_time * (0.5 + v), 0.0)

    # -- reproducibility ----------------------------------------------------

    def sample_schedule(self, num_steps: int, max_attempts: int = 3) -> dict[str, np.ndarray]:
        """Materialize the schedule over a step window (determinism tests).

        Returns dense arrays of every decision the plan would make for
        ``num_steps`` supersteps over all rank pairs: two plans built from
        the same spec must return byte-identical arrays.
        """
        p = self.num_ranks
        src = np.repeat(np.arange(p, dtype=np.uint64), p)
        dst = np.tile(np.arange(p, dtype=np.uint64), p)
        drops = np.stack(
            [
                np.stack(
                    [
                        self.drop_mask(s, src, dst, a).reshape(p, p)
                        for a in range(max_attempts)
                    ]
                )
                for s in range(num_steps)
            ]
        )
        delays = np.stack(
            [self.delay_of(s, src, dst).reshape(p, p) for s in range(num_steps)]
        )
        stalls = np.stack([self.stall_times(s) for s in range(num_steps)])
        beta = (
            self.link_beta_factor
            if self.link_beta_factor is not None
            else np.ones((p, p))
        )
        return {"drops": drops, "delays": delays, "stalls": stalls, "beta_factor": beta}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(ranks={self.num_ranks}, spec={self.spec.describe()})"
