"""Seeded random-number streams.

Every stochastic component of the simulator (each disk, each workload
source, the replica chooser, ...) draws from its own
``numpy.random.Generator`` spawned from one root ``SeedSequence``.  This
gives (a) full run-to-run reproducibility from a single seed and (b)
stream independence, so changing e.g. the arrival pattern does not
perturb the disk-service sample path -- which is what makes paired
model-vs-simulation comparisons across configurations meaningful.

:class:`BufferedIntegers` supports the batched-draw optimisation of the
hot loops: numpy's ``Generator.integers(bound, size=n)`` consumes the
underlying bit stream exactly as ``n`` successive scalar
``integers(bound)`` calls do, so a block buffer refilled with one
vectorised call yields a *bit-identical* sample path at a fraction of
the per-event Generator overhead (the test suite asserts the
equivalence).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStreams", "BufferedIntegers"]


class RngStreams:
    """A registry of named, independent random streams under one seed."""

    __slots__ = ("_seed_seq", "_streams")

    def __init__(self, seed: int | np.random.SeedSequence = 0) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        else:
            self._seed_seq = np.random.SeedSequence(int(seed))
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        return self._seed_seq

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created deterministically on first use.

        Derivation hashes the name into the spawn key, so the stream a
        component receives depends only on ``(seed, name)`` -- never on
        creation order.  The root's own spawn key is preserved as a
        prefix: two ``RngStreams`` built from *sibling* spawned
        ``SeedSequence``s (same entropy, different spawn keys -- how the
        parallel sweep derives per-point seeds) therefore hand out fully
        independent streams for the same name.
        """
        gen = self._streams.get(name)
        if gen is None:
            key = tuple(name.encode("utf-8"))
            child = np.random.SeedSequence(
                entropy=self._seed_seq.entropy,
                spawn_key=tuple(self._seed_seq.spawn_key) + key,
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStreams(entropy={self._seed_seq.entropy}, streams={sorted(self._streams)})"


class BufferedIntegers:
    """Block-buffered bounded integer draws from one stream.

    Produces the same sequence as per-event ``rng.integers(bound)``
    calls (numpy draws bounded integers element-wise in stream order)
    while paying the Generator call overhead once per ``block`` events.
    The wrapped stream must not be drawn from elsewhere between calls,
    which the :class:`RngStreams` name isolation guarantees.
    """

    __slots__ = ("_rng", "_bound", "_block", "_buf", "_idx", "_state0")

    def __init__(self, rng: np.random.Generator, bound: int, block: int = 1024) -> None:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rng = rng
        self._bound = int(bound)
        self._block = int(block)
        self._buf = np.empty(0, dtype=np.int64)
        self._idx = 0
        self._state0 = None

    @property
    def bound(self) -> int:
        return self._bound

    def next(self) -> int:
        """The next draw from ``integers(bound)``, refilling in blocks."""
        if self._idx >= self._buf.size:
            # Snapshot the bit-generator state before the block draw so
            # resync() can rewind to the exact scalar-draw position.
            self._state0 = self._rng.bit_generator.state
            self._buf = self._rng.integers(self._bound, size=self._block)
            self._idx = 0
        value = self._buf[self._idx]
        self._idx += 1
        return int(value)

    def resync(self) -> None:
        """Rewind the wrapped stream to the exact per-call draw position.

        Buffering pulls a whole block off the stream ahead of time; a
        consumer that must switch to direct ``rng`` draws mid-stream
        (e.g. a frontend whose routing filter turns on and needs
        variable-bound draws) calls this first.  The pre-block state is
        restored and the consumed prefix replayed in one vectorised call
        -- which advances the stream exactly as that many scalar draws
        would -- so the hand-off is bit-identical to never having
        buffered at all.  The unconsumed tail is discarded.
        """
        consumed = self._idx
        if consumed < self._buf.size:
            self._rng.bit_generator.state = self._state0
            if consumed:
                self._rng.integers(self._bound, size=consumed)
        self._buf = np.empty(0, dtype=np.int64)
        self._idx = 0
