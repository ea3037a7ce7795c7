"""Deterministic Monte Carlo emulation of the coincidence measurement.

:func:`sample` predicts each model's law once for a phase grid and samples
every law in one :func:`block_tallies` call; :func:`estimate_E` turns counters
into E.  The sampling contract (classes, blocks, seeding, draws, chunks and
the forked fan-out) is stated once, in README's "Determinism" section.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from itertools import accumulate
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .amplitudes import PhaseSettings
from .pathspace import OUTCOMES, Subensemble, members
from .theories import Law, TheoryModel, predict

#: Events per RNG block; fixed so tallies are independent of how blocks are grouped.
BLOCK_SIZE = 1 << 16

#: The class draws each arrival-time class takes, ``[lo, hi)``: its a-priori
#: weight, its share of the 8 path pairs (1/8, 3/8, 3/8, 1/8 in draw order),
#: laid end to end; exact dyadics.
_ENDS = list(accumulate((len(members(sub)) for sub in Subensemble), initial=0))
_CLASS_INTERVALS: dict[Subensemble, tuple[float, float]] = {
    sub: (lo / _ENDS[-1], hi / _ENDS[-1]) for sub, lo, hi in zip(Subensemble, _ENDS, _ENDS[1:])
}

#: One block's tally: its four counters in ``OUTCOMES`` order, their sum, and
#: the block's other events.
_TALLY = np.dtype([("r", np.int64, (4,)), ("accepted", np.int64), ("rejected", np.int64)])

#: Fewest full blocks of events a worker is given: fewer do not pay for its start.
_BLOCKS_PER_WORKER = 48


def _require_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")


def _require_seed(seed: object) -> None:
    _require_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def _require_runs(events: object, seeds: Sequence[object]) -> None:
    _require_int("events", events)
    if events < 1:
        raise ValueError("events must be at least 1")
    if events > BLOCK_SIZE << 32:
        raise ValueError("events must be at most 2**48: block indices are 32-bit spawn keys")
    for seed in seeds:
        _require_seed(seed)


#: numpy's ``SeedSequence`` constants (O'Neill's ``seed_seq_fe``): the start
#: and multiplier of the entropy pool's hash and of ``generate_state``'s, and
#: ``mix``'s two multipliers.
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(start: int, multiplier: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The ``(xor, multiply)`` pair of each successive ``hashmix`` call, which
    xors its value with the hash constant, advances the constant by
    ``multiplier`` and multiplies the value by the advanced constant."""
    while True:
        advanced = start * multiplier & 0xFFFFFFFF
        yield np.uint32(start), np.uint32(advanced)
        start = advanced


def _hashmix(value: np.ndarray, steps: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, multiply = next(steps)
    value = (value ^ xor) * multiply
    return value ^ value >> 16


def _seed_words(seeds, keys, n_words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(key,)).generate_state(n_words,
    np.uint64)`` for each pair of ``seeds`` (checked 64-bit ints) and
    ``keys``, as one ``(pairs, n_words)`` uint64 array (``n_words`` at most
    4).  A key outside ``[0, 2**32)`` is a ``ValueError``."""
    keys = np.asarray(keys)
    if keys.size and not 0 <= keys.min() <= keys.max() < 2**32:
        raise ValueError("a spawn key must be below 2**32")
    seeds = np.asarray(seeds, dtype=np.uint64)
    # numpy's pool of 4 words: the seed's two, padded with zeros; uint32
    # arrays wrap as numpy's C code does
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]

    steps = _hash_steps(*_POOL_HASH)
    pool = [_hashmix(word, steps) for word in entropy]

    def mix(dst: int, source: np.ndarray) -> None:
        value = pool[dst] * _MIX_LEFT - _hashmix(source, steps) * _MIX_RIGHT
        pool[dst] = value ^ value >> 16

    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                mix(dst, pool[src])
    key = keys.astype(np.uint32)
    for dst in range(len(pool)):
        mix(dst, key)

    steps = _hash_steps(*_STATE_HASH)
    state = [_hashmix(pool[k % len(pool)], steps) for k in range(2 * n_words)]
    # a word pair is little-endian: its first 32-bit word is the low half
    return np.stack(state[0::2], axis=1).astype(np.uint64) | (
        np.stack(state[1::2], axis=1).astype(np.uint64) << 32
    )


def _sampled_law(law: Law) -> np.ndarray:
    """The ``(points, 4)`` law an accepted event's outcome is drawn from: the
    joint law, or else the product of the singles, an undefined side at 1/2."""
    if law.joint is not None:
        return law.joint
    side1, side2 = (np.full((1, 2), 0.5) if s is None else s for s in (law.side1, law.side2))
    return (side1[:, :, None] * side2[:, None, :]).reshape(-1, len(OUTCOMES))


def _class_mask(
    u_class: np.ndarray, accept: tuple[float, float], mask: np.ndarray, scratch: np.ndarray
) -> None:
    """Sets ``mask`` where a class draw of ``u_class`` lies in ``accept``,
    the interval ``[lo, hi)``; ``mask`` and ``scratch`` are ``bool`` buffers
    shaped like ``u_class``, and both are overwritten."""
    lo, hi = accept
    np.greater_equal(u_class, lo, out=mask)
    np.less(u_class, hi, out=scratch)
    np.logical_and(mask, scratch, out=mask)


def _accepted_counts(
    u_outcome: np.ndarray, mask: np.ndarray, edges: np.ndarray, scratch: np.ndarray
) -> list[list[tuple[int, int, int, int]]]:
    """Outcome counts, four per law and row of ``u_outcome``, of the events
    set in ``mask``, against the ``(laws, rows, 3)`` cumulative ``edges``
    (README "Determinism"); ``scratch`` is a ``bool`` buffer shaped like
    ``mask``, and is overwritten."""
    if len(u_outcome) == 1:
        # one row compares with Python floats, sparing numpy's broadcast set-up
        thresholds = edges[:, 0].tolist()

        def count(a: np.ndarray) -> list[int]:
            return [np.count_nonzero(a)]
    else:
        thresholds = edges.transpose(0, 2, 1)[..., None]

        # bytes summed into uint16 count rows ~4x faster than
        # count_nonzero(..., axis=1); a row of a chunk of two or more holds
        # at most BLOCK_SIZE // 2 events, below 2**16
        def count(a: np.ndarray) -> list[int]:
            return a.view(np.uint8).sum(axis=1, dtype=np.uint16).tolist()

    accepted = count(mask)
    per_law = []
    for law_thresholds in thresholds:
        at_or_above = [accepted]
        for c in law_thresholds:
            np.greater_equal(u_outcome, c, out=scratch)
            np.logical_and(scratch, mask, out=scratch)
            at_or_above.append(count(scratch))
        per_law.append([(n0 - n1, n1 - n2, n2 - n3, n3) for n0, n1, n2, n3 in zip(*at_or_above)])
    return per_law


def _sample_streams(
    streams: range,
    words: np.ndarray,
    sizes: Sequence[int],
    accept: tuple[float, float],
    edges: np.ndarray,
) -> np.ndarray:
    """The one sampler, in a forked worker or in process: the outcome counts
    of the ``streams`` of a call, as a ``(laws, seeds, blocks, 4)`` array that
    is zero outside them (README "Determinism").  Row ``k`` of ``words`` seeds
    stream ``streams[k]``; block ``j`` has ``sizes[j]`` events, ``accept`` is
    the accepted class interval and ``edges`` the laws' ``(laws, seeds, 3)``
    outcome edges."""
    counts = np.zeros((*edges.shape[:2], len(sizes), len(OUTCOMES)), dtype=np.int64)
    # a chunk holds at most one full block, and never more than the streams draw
    capacity = min(BLOCK_SIZE, len(streams) * sizes[0])
    buffers = np.empty(capacity), np.empty(capacity, dtype=bool), np.empty(capacity, dtype=bool)

    class HashedWords(np.random.bit_generator.ISeedSequence):
        """A stream's row of ``words``, C-contiguous uint64: ``PCG64`` reads
        four words of it unchecked as its seed sequence's
        ``generate_state(4, np.uint64)``."""

        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.row

    seeds = edges.shape[1]
    k = 0
    while k < len(streams):
        block, s = divmod(streams[k], seeds)
        size = sizes[block]
        # the chunk ends with the block's last seed at the latest
        n = min(max(1, BLOCK_SIZE // size), len(streams) - k, seeds - s)
        u, mask, scratch = (buffer[: n * size].reshape(n, size) for buffer in buffers)
        for row, mask_row, scratch_row, row_words in zip(u, mask, scratch, words[k : k + n]):
            rng = np.random.Generator(np.random.PCG64(HashedWords(row_words)))
            rng.random(out=row)
            _class_mask(row, accept, mask_row, scratch_row)
            rng.random(out=row)
        counts[:, s : s + n, block] = _accepted_counts(u, mask, edges[:, s : s + n], scratch)
        k += n
    return counts


def _pieces(streams: int, events: int) -> list[range]:
    """The stream ranges of a call of ``streams`` streams and ``events`` drawn
    events, one per forked worker, by README's fan-out rule; ``[]`` samples in
    process."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return []
    per_worker = _BLOCKS_PER_WORKER * BLOCK_SIZE
    workers = max(1, min(len(os.sched_getaffinity(0)), events // per_worker))
    # a lone worker forks only to keep numpy.random out of this process
    if workers == 1 and "numpy.random" in sys.modules:
        return []
    bounds = [p * streams // workers for p in range(workers + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _exit_with_counts(
    read_ends: Sequence[int], write_end: int, streams: range, words: np.ndarray, *args
) -> NoReturn:
    """In a forked child: write to the pipe ``write_end`` status byte 0 and
    the bytes of the :func:`_sample_streams` counts of ``streams``, or status
    1 and the pickled exception, and leave through ``os._exit``, with status 0
    once the whole result is written."""
    code = 1
    try:
        # with every read end closed, a write to a parent that is gone fails
        for read_end in read_ends:
            os.close(read_end)
        try:
            counts = _sample_streams(streams, words[streams.start : streams.stop], *args)
            result = b"\0" + counts.tobytes()
        except BaseException as error:
            result = b"\1" + pickle.dumps(error)
        with open(write_end, "wb") as pipe:
            pipe.write(result)
        code = 0
    finally:
        os._exit(code)


def _forked_counts(pieces: Sequence[range], words: np.ndarray, *args) -> np.ndarray:
    """The sum of the :func:`_sample_streams` counts of ``pieces``, as a flat
    int64 array, each piece counted in its own forked child with the rows of
    ``words`` for its streams and ``args``.  A child's exception is raised
    again, type kept, and a child that ends without a result is a
    ``RuntimeError``; on any exception every child left is killed and reaped
    first."""
    read_ends, pids = [], []
    try:
        for piece in pieces:
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                # no other Python thread runs (see _pieces), and OpenBLAS's own
                # fork handler stops the threads that import numpy started
                pid = os.fork()
                if pid == 0:
                    _exit_with_counts(read_ends, write_end, piece, words, *args)
            finally:
                # a later child must not hold this pipe open
                os.close(write_end)
            pids.append(pid)
        counts = 0
        # each pipe is read to EOF before its child is reaped, so a result
        # larger than the pipe buffer cannot block the child
        for read_end, pid in zip(read_ends, list(pids)):
            with open(read_end, "rb", closefd=False) as pipe:
                result = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if result[:1] == b"\1":
                raise pickle.loads(result[1:])
            if status != 0 or result[:1] != b"\0":
                raise RuntimeError(
                    f"sampler child {pid} ended without a result"
                    f" (exit status {os.waitstatus_to_exitcode(status)})"
                )
            # each stream is counted in one piece, zero in the others
            counts = counts + np.frombuffer(result, dtype=np.int64, offset=1)
        return counts
    finally:
        if pids:
            # imported on this path only, so that no other path pays for it
            from signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for read_end in read_ends:
            os.close(read_end)


def block_tallies(laws: Sequence[Law], seeds: Sequence[int], events: int) -> np.recarray:
    """Per-block tallies of a run of ``events`` events from each of ``seeds``
    under each of ``laws``, row ``k`` of every law sampled from ``seeds[k]``
    in the laws' one ``target`` class (README "Determinism"), as one record
    array with a record per block: law by law, then seed by seed, each in
    block order.  A record's fields are ``r``, the block's four int64
    counters in ``OUTCOMES`` order, ``accepted``, their sum, and
    ``rejected``, the block's other events.

    ``events`` must be an int from 1 to 2**48 and each seed a 64-bit int.  A
    law that fails :meth:`Law.validated` or has another row count, or laws of
    more than one class, are a ``ValueError``, and one bare :class:`Law` a
    ``TypeError``, all raised before any seed word is hashed.  No law or no
    seed gives an empty record array.
    """
    if isinstance(laws, Law):
        raise TypeError("laws must be a sequence of Law records; pass one law as [law]")
    _require_runs(events, seeds)
    for law in laws:
        law.validated()
    targets = {law.target for law in laws}
    if len(targets) > 1:
        classes = ", ".join(sorted(target.value for target in targets))
        raise ValueError(f"laws of more than one arrival class ({classes}) cannot share a call")
    sampled = [_sampled_law(law) for law in laws]
    for law in sampled:
        if len(law) != len(seeds):
            raise ValueError(f"law rows ({len(law)}) must match seeds ({len(seeds)})")
    if not sampled or not seeds:
        return np.recarray(0, dtype=_TALLY)

    # the laws' class interval, and per law and seed the first three
    # cumulative outcome edges; the top edge is 1.0, above every uniform, and
    # never compared
    accept = _CLASS_INTERVALS[targets.pop()]
    edges = np.cumsum(sampled, axis=2)[:, :, :-1]
    sizes = [min(BLOCK_SIZE, events - j) for j in range(0, events, BLOCK_SIZE)]
    streams = len(sizes) * len(seeds)
    # every stream's seed words, hashed before any fork: a worker that hashed
    # its own would also load numpy's uint32 loops into its memory
    words = _seed_words(
        np.tile(np.asarray(seeds, dtype=np.uint64), len(sizes)),
        np.repeat(np.arange(len(sizes)), len(seeds)),
        4,
    )

    pieces = _pieces(streams, len(seeds) * events)
    if pieces:
        counts = _forked_counts(pieces, words, sizes, accept, edges)
    else:
        counts = _sample_streams(range(streams), words, sizes, accept, edges)

    tallies = np.recarray(counts.size // len(OUTCOMES), dtype=_TALLY)
    tallies.r = counts.reshape(-1, len(OUTCOMES))
    tallies.accepted = tallies.r.sum(axis=1)
    tallies.rejected = np.tile(sizes, len(tallies) // len(sizes)) - tallies.accepted
    return tallies


def sample(
    models: Sequence[TheoryModel],
    settings: Sequence[PhaseSettings],
    seeds: Sequence[int],
    events: int,
    target: Subensemble = Subensemble.LONG,
) -> tuple[list[Law], np.ndarray]:
    """Runs of ``events`` events at each of ``settings`` under each of
    ``models``, as ``(laws, counts)``: each model's :func:`predict` law on the
    grid ``settings``, and the ``(models, points, 4)`` int64 counters of the
    runs, point ``k`` run from ``seeds[k]`` under every model.  The laws are
    sampled in one :func:`block_tallies` call and raise as it does; a model
    or target outside its rule's domain fails in :func:`predict`, and one
    bare :class:`TheoryModel` is a ``TypeError``, raised first.
    """
    if isinstance(models, TheoryModel):
        raise TypeError("models must be a sequence of models; pass one model as [model]")
    laws = [predict(model, settings, target) for model in models]
    r = block_tallies(laws, seeds, events).r
    blocks = -(-events // BLOCK_SIZE)
    return laws, r.reshape(len(laws), len(seeds), blocks, len(OUTCOMES)).sum(axis=2)


def estimate_E(counts) -> tuple[np.ndarray, np.ndarray]:
    """Normalized side-1 counter asymmetry (R++ + R+- - R-+ - R--)/accepted,
    and its standard error, of counters with the four ``OUTCOMES`` on the last
    axis (a block's ``r``, or one row per run); both results have the shape of
    the other axes.

    The error is the binomial ``2*sqrt(p*(1-p)/n)`` of the side-1 "+"
    fraction ``p``, or ``1/(n+1)``, the z = 1 Wilson score half-width (Wilson
    1927) on the E scale, where every accepted event lands on one side-1
    detector and that formula gives 0.  A row with no accepted event is a
    ``ValueError``.
    """
    counts = np.asarray(counts)
    n = counts.sum(axis=-1)
    if (n == 0).any():
        raise ValueError("cannot estimate E from an empty tally")
    plus_side1 = counts[..., 0] + counts[..., 1]
    value = (2 * plus_side1 - n) / n
    p = plus_side1 / n
    std_error = np.where(
        (plus_side1 == 0) | (plus_side1 == n), 1.0 / (n + 1), 2.0 * np.sqrt(p * (1.0 - p) / n)
    )
    return value, std_error


def point_seeds(seed: int, points: int) -> list[int]:
    """The 64-bit seed of each of the ``points`` points of a scan, point
    ``k``'s the first word of ``SeedSequence(seed, spawn_key=(k,))``.
    ``points`` must be an int from 0 to 2**32 and ``seed`` a 64-bit int,
    both checked before any array is built."""
    _require_seed(seed)
    _require_int("points", points)
    if not 0 <= points <= 2**32:
        raise ValueError("points must be from 0 to 2**32: point indices are 32-bit spawn keys")
    return _seed_words(np.full(points, seed, dtype=np.uint64), np.arange(points), 1)[:, 0].tolist()
