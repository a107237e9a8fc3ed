"""Deterministic, counter-based pseudo-random number generation.

Extreme-scale graph generation cannot use a sequential PRNG: every rank must
be able to materialize *its* slice of the edge list without communicating,
and re-running with the same seed must produce bit-identical graphs no matter
how many ranks participate.  The standard solution (used by the Graph500
reference code and by counter-based generators such as Philox) is a *pure
function* from ``(seed, stream, counter) -> uint64``.  We use the splitmix64
finalizer, which passes BigCrush and is trivially vectorizable with numpy.

All functions operate on ``uint64`` arrays and are safe under numpy's
wrap-around semantics for unsigned integer arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_WORDS", "CounterRNG", "splitmix64"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
# 2^-64, to map uint64 -> [0, 1).
_INV_2_64 = float(2.0**-64)

# Words per evaluation block.  A block and its scratch buffer (2 x 256 KiB)
# stay in L2 while the finalizer's eight passes run over them, so a long
# evaluation streams each word through memory once instead of once per pass.
BLOCK_WORDS = 1 << 15


def _finalize(z: np.ndarray, scratch: np.ndarray) -> None:
    """The splitmix64 finalizer, in place on the uint64 buffer ``z``.

    ``scratch`` is a uint64 buffer of ``z``'s shape that the caller owns;
    its contents are overwritten.  The arithmetic is modular uint64, the same
    as :func:`splitmix64` minus its leading ``+ GOLDEN``.
    """
    np.right_shift(z, _SHIFT30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, _SHIFT27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, _SHIFT31, out=scratch)
    z ^= scratch


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Apply the splitmix64 finalizer to ``x`` (scalar or uint64 array).

    This is a bijective mixing function on 64-bit integers; feeding it the
    values ``seed + GOLDEN * counter`` yields the splitmix64 stream.
    """
    x = np.asarray(x, dtype=np.uint64)
    z = x.reshape(-1) + _GOLDEN
    _finalize(z, np.empty_like(z))
    return z.reshape(x.shape) if x.ndim else z[0]


def _mix_scalar(x: int) -> int:
    return int(splitmix64(np.uint64(x & 0xFFFFFFFFFFFFFFFF)))


class CounterRNG:
    """A stateless, splittable random stream.

    ``CounterRNG(seed, stream)`` defines an infinite sequence of uint64
    values indexed by a counter.  ``uint64(n)`` returns the next ``n``
    values and advances the counter; ``at(counters)`` evaluates the stream
    at arbitrary indices without touching the cursor, which is what the
    distributed generator uses to produce its slice of the edge list.

    Two instances with the same ``(seed, stream)`` produce the same values
    regardless of call granularity: ``uint64(4)`` twice equals ``uint64(8)``
    once.
    """

    __slots__ = ("_base", "_cursor", "_key", "seed", "stream")

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed)
        self.stream = int(stream)
        # Derive a stream-specific base key so that distinct streams with the
        # same seed are statistically independent.
        self._base = _mix_scalar(self.seed ^ _mix_scalar(0xA5A5A5A5A5A5A5A5 ^ self.stream))
        # at(c) = splitmix64(base + c * GOLDEN) = finalize(c * GOLDEN + key).
        self._key = np.uint64((self._base + int(_GOLDEN)) & 0xFFFFFFFFFFFFFFFF)
        self._cursor = 0

    def split(self, stream: int) -> "CounterRNG":
        """Return an independent stream derived from this one."""
        return CounterRNG(self._base, stream)

    # -- indexed (stateless) access -------------------------------------

    def words_into(self, counters: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write the stream at ``counters`` into ``out``, allocating nothing.

        ``counters``, ``out`` and ``scratch`` are uint64 arrays of one shape;
        ``out`` and ``scratch`` are buffers the caller owns.  This is one
        block of :meth:`at`, for callers that run their own block loop.
        """
        np.multiply(counters, _GOLDEN, out=out)
        out += self._key
        _finalize(out, scratch)

    def at(self, counters: np.ndarray | int) -> np.ndarray:
        """Evaluate the stream at the given counter indices.

        Evaluation runs in L2-sized blocks (:data:`BLOCK_WORDS`) written in
        place into the result, so the finalizer's passes touch cache, not
        memory; the values are those of ``splitmix64(base + counters *
        GOLDEN)`` computed at once.
        """
        c = np.asarray(counters, dtype=np.uint64)
        out = np.empty(c.shape, dtype=np.uint64)
        flat_c, flat_out = c.reshape(-1), out.reshape(-1)
        scratch = np.empty(min(flat_c.size, BLOCK_WORDS), dtype=np.uint64)
        for lo in range(0, flat_c.size, BLOCK_WORDS):
            block = flat_c[lo : lo + BLOCK_WORDS]
            self.words_into(block, flat_out[lo : lo + block.size], scratch[: block.size])
        return out if out.ndim else out[()]

    def uniform_at(self, counters: np.ndarray | int) -> np.ndarray:
        """Uniform [0, 1) doubles at the given counter indices."""
        return self.at(counters).astype(np.float64) * _INV_2_64

    def uniform_pos_at(self, counters: np.ndarray | int) -> np.ndarray:
        """Uniform (0, 1] doubles — strictly positive, per the Graph500 spec.

        Edge weights must be positive so that every shortest-path tree edge
        strictly decreases the distance toward the root (tree derivation and
        validation rely on it).
        """
        return (self.at(counters).astype(np.float64) + 1.0) * _INV_2_64

    # -- sequential access ----------------------------------------------

    @property
    def cursor(self) -> int:
        """Number of values consumed so far from the sequential interface."""
        return self._cursor

    def uint64(self, n: int) -> np.ndarray:
        """Return the next ``n`` uint64 values."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        idx = np.arange(self._cursor, self._cursor + n, dtype=np.uint64)
        self._cursor += n
        return self.at(idx)

    def uniform(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniform [0, 1) doubles."""
        return self.uint64(n).astype(np.float64) * _INV_2_64

    def uniform_pos(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniform (0, 1] doubles (strictly positive)."""
        return (self.uint64(n).astype(np.float64) + 1.0) * _INV_2_64

    def below(self, n: int, bound: int) -> np.ndarray:
        """Return ``n`` integers uniform on [0, bound).

        Uses the multiply-shift reduction (Lemire); the modulo bias is below
        2^-32 for any bound < 2^32, which is immaterial for graph sampling.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        vals = self.uint64(n)
        # (x * bound) >> 64 without 128-bit ints: use the top 32 bits when the
        # bound fits, else fall back to float-free modulo.
        if bound <= 0xFFFFFFFF:
            return ((vals >> np.uint64(32)) * np.uint64(bound)) >> np.uint64(32)
        return vals % np.uint64(bound)

    def shuffle_permutation(self, n: int) -> np.ndarray:
        """Return a deterministic permutation of [0, n).

        Implemented as an argsort of the stream values, so the permutation is
        a pure function of (seed, stream) — every rank can recompute it.
        The keys are distinct (``c -> base + c * GOLDEN`` with an odd GOLDEN
        and the finalizer are both bijections on uint64), so any sort
        returns this one permutation and none needs to be stable.
        """
        keys = self.at(np.arange(n, dtype=np.uint64))
        return np.argsort(keys).astype(np.int64, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CounterRNG(seed={self.seed}, stream={self.stream}, cursor={self._cursor})"
