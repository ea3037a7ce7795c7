"""Deterministic Monte Carlo emulation of the coincidence measurement.

Each emitted pair is assigned an arrival-time class with the a-priori weights
1/8, 3/8, 3/8, 1/8 (equal splitting over the eight coarse path pairs;
interference redistributes probability only within a class).  Events outside
the target class are rejected, emulating the coincidence electronics; accepted
events draw a joint outcome from the active model's distribution and feed the
four counters.  A run is named by its model, phases, seed, event count and
target: :func:`sample` takes the models, a phase grid, one seed per point, one
event count and one target, predicts each model's law once for the grid and
samples every law in one :func:`block_tallies` call.  The counters are in
``OUTCOMES`` order, like the columns of the law they sample.  The module hands
back counts and plain values: the laws and counters of :func:`sample` and
:func:`estimate_E`'s ``(value, std_error)``; the output row puts the E anchors
beside them.

Determinism contract: events are processed in fixed blocks of ``BLOCK_SIZE``;
block ``j`` uses the PCG64 stream seeded by ``SeedSequence(seed,
spawn_key=(j,))``.  Its state still equals ``PCG64(SeedSequence(seed,
spawn_key=(j,)))``, but no ``SeedSequence`` or ``PCG64`` is built per
stream: one array pass repeats numpy's ``SeedSequence`` hash for all of a
call's streams (:func:`_seed_words`), and each state, made as numpy's
``pcg64_set_seed`` makes it, is set on one reused generator.  The pass takes
spawn keys below 2**32, so a seed runs at most 2**32 blocks (2**48 events).
A block of ``size`` events makes one ``random(2*size)`` draw: the first
``size`` doubles are the events' class draws and the next ``size`` their
outcome draws, so every event, rejected or not, consumes its outcome draw.  A block's draws thus depend only on its seed, index and size.
One :func:`block_tallies` call runs ``events`` events from each of its seeds,
and every law reads every seed's blocks, so each ``(block, seed)`` stream is
drawn once for all the laws: a scan gives point ``k`` the same seed under
every model, so a compare draws each point's blocks once.  Categories are
picked by thresholds on the cumulative weights, which equals an inverse CDF
(``searchsorted(..., side="right")``): the accepted outcomes are counted by
masked threshold compares into two reused ``bool`` buffers, and never
gathered into a new array.  A run's counters are the sum of its blocks'
counters, so they are independent of how blocks are grouped and added, and
reproducible across platforms for a given seed.

Chunks and parallel runs: the streams of a call form a ``(block, seed)``
grid, block-major over the seeds in their given order.  Up to ``BLOCK_SIZE //
size`` consecutive streams of one block are drawn into the rows of one reused
buffer (one row per chunk for full blocks), so a chunk never holds more than
one full block of draws.  Every law of a call accepts the same class, so the
class compares run over the whole chunk once; the outcome compares run once
per law, each row against the law's thresholds for its seed, and the counts
go into one ``(laws, seeds, blocks, 4)`` array.  The call makes one fan-out
decision: one worker per CPU in the affinity set (``os.sched_getaffinity``),
but at most one per ``_BLOCKS_PER_WORKER`` full blocks of the events drawn.
One worker stays in process.  More are children made by a bare ``os.fork``,
one per equal range of the streams; each writes its count array to its own
pipe, and the parent, which only waits, adds them.  Each stream is still
drawn from its own seed, so the tallies are the same bits for any worker
count: ``taskset -c 0`` gives a serial run that writes identical bytes.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .amplitudes import PhaseSettings
from .pathspace import OUTCOMES, Subensemble
from .theories import Law, TheoryModel, predict

#: Events per RNG block; fixed so tallies are independent of how blocks are grouped.
BLOCK_SIZE = 1 << 16

#: Arrival-time classes in draw order, with their a-priori weights.
SUBENSEMBLE_ORDER: tuple[Subensemble, ...] = (
    Subensemble.SATELLITE_LONG,
    Subensemble.LONG,
    Subensemble.SHORT,
    Subensemble.SATELLITE_SHORT,
)
SUBENSEMBLE_WEIGHTS: tuple[float, ...] = (0.125, 0.375, 0.375, 0.125)

#: Class ``k`` takes the class draws in ``[edges[k], edges[k+1])``; exact dyadics.
_CLASS_EDGES: tuple[float, ...] = (0.0, *np.cumsum(SUBENSEMBLE_WEIGHTS).tolist())

#: Fewest full blocks of events a worker is given (~0.75 ms each).  Starting
#: the forked workers costs tens of milliseconds, and on a 2-vCPU host two
#: workers lost to one process at 458 blocks and won at 700 (medians of 7
#: fresh interpreters); the value is not yet tuned to that, and only 2 CPUs
#: were measured.
_BLOCKS_PER_WORKER = 96


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

#: PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


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
    ``keys``, as one ``(pairs, n_words)`` uint64 array, hashed for all the
    pairs at once (``n_words`` at most 4).

    The entropy is the seed's two 32-bit words, padded with zeros to numpy's
    pool of 4, then the key as one word.  The hash runs on ``uint32`` arrays,
    which wrap as numpy's C code does.  A key outside ``[0, 2**32)`` would be
    two words and is a ``ValueError``.
    """
    keys = np.asarray(keys)
    if keys.size and not 0 <= keys.min() <= keys.max() < 2**32:
        raise ValueError("a spawn key must be below 2**32")
    seeds = np.asarray(seeds, dtype=np.uint64)
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


def _pcg64_state(words: Sequence[int]) -> dict:
    """The ``PCG64.state`` that numpy's ``pcg64_set_seed`` makes of four seed
    words, the 128-bit initial state and sequence, high words first: the
    increment is ``2 * sequence + 1``, and the state is the initial state added
    between two LCG steps from 0."""
    state, increment = words[0] << 64 | words[1], words[2] << 64 | words[3]
    increment = (increment << 1 | 1) & (1 << 128) - 1
    state = ((state + increment) * _PCG64_MULTIPLIER + increment) & (1 << 128) - 1
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": increment},
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True)
class CoincidenceTally:
    """The four coincidence counters in ``OUTCOMES`` order, and the rejected total.

    The element type of :func:`block_tallies`' per-block list, which the
    benchmark's tracer reads to count the blocks sampled (CI pins 1,526 and
    2,002 of them on its two sampling workloads).
    """

    r: tuple[int, int, int, int]
    rejected: int

    def __post_init__(self) -> None:
        if len(self.r) != len(OUTCOMES):
            raise ValueError("tally must carry all four counters")
        if min(self.r) < 0:
            raise ValueError("negative counter")
        if self.rejected < 0:
            raise ValueError("negative rejected total")

    @property
    def accepted(self) -> int:
        return sum(self.r)

    @property
    def events(self) -> int:
        return self.accepted + self.rejected


def _sampled_law(law: Law) -> np.ndarray:
    """The ``(points, 4)`` law an accepted event's outcome is drawn from.

    QM samples its joint law for the target class.  Causal and RNL define no
    joint law, so outcomes are drawn from the product of the defined singles,
    with an undefined side filled in at 1/2; this cannot bias the side-1
    asymmetry, but it is not a physical correlation model.
    """
    if law.joint is not None:
        return law.joint
    side1, side2 = (np.full((1, 2), 0.5) if s is None else s for s in (law.side1, law.side2))
    return (side1[:, :, None] * side2[:, None, :]).reshape(-1, len(OUTCOMES))


def _accepted_counts(
    u_class: np.ndarray,
    u_outcome: np.ndarray,
    accept: tuple[float, float],
    edges: np.ndarray,
    mask: np.ndarray,
    scratch: np.ndarray,
) -> list[list[tuple[int, int, int, int]]]:
    """Outcome counts, four per law and row of draws, of the events whose
    class draw lies in ``accept``, the interval ``[lo, hi)``.

    Event ``e`` of row ``i`` is accepted when ``lo <= u_class[i, e] < hi``,
    and under law ``m`` its outcome is category ``k`` when ``c[k-1] <=
    u_outcome[i, e] < c[k]``, where ``c`` is ``edges[m, i]`` followed by 1.0,
    above every uniform; this equals ``bincount(searchsorted(c, accepted,
    side="right"))``.  Tied edges (a category of probability zero) give a zero
    count.  The class mask is made once for all the laws.  ``mask`` and
    ``scratch`` are ``bool`` buffers shaped like ``u_class``; both are
    overwritten, and no draw is gathered.
    """
    lo, hi = accept
    np.greater_equal(u_class, lo, out=mask)
    np.less(u_class, hi, out=scratch)
    np.logical_and(mask, scratch, out=mask)
    if len(u_class) == 1:
        # a single row compares with Python floats, which spares numpy's
        # broadcast set-up on each call (~2% of a full block's time), and is
        # counted flat
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
    """The one sampler, in process or in a worker: the outcome counts of the
    ``streams`` of a call, as a ``(laws, seeds, blocks, 4)`` array that is zero
    outside them.

    Stream ``i`` is block ``i // S``, of ``sizes[i // S]`` events, of seed
    ``i % S``, where ``S`` is the seed count of ``edges``, the laws' ``(laws,
    seeds, 3)`` outcome edges; law ``m`` counts it into ``[m, i % S, block]``,
    accepting the class draws in ``accept`` and against ``edges[m, i % S]``
    (see :func:`_accepted_counts`).  Row ``k`` of ``words`` holds the
    :func:`_seed_words` of stream ``streams[k]``, whose state is set in turn
    on one generator.  Up to ``BLOCK_SIZE // size`` consecutive streams of one
    block are drawn into the rows of one reused buffer and counted at once.
    """
    counts = np.zeros((*edges.shape[:2], len(sizes), len(OUTCOMES)), dtype=np.int64)
    # a chunk holds at most one full block, and never more than the streams draw
    capacity = min(BLOCK_SIZE, len(streams) * sizes[0])
    draws = np.empty(2 * capacity)
    mask = np.empty(capacity, dtype=bool)
    scratch = np.empty(capacity, dtype=bool)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    # one row of words at a time: a list of them all would hold ~0.3 MB more
    # in a worker of a 1e8-event run
    stream_words = iter(words)

    seeds = edges.shape[1]
    i = streams.start
    while i < streams.stop:
        block, s = divmod(i, seeds)
        size = sizes[block]
        # the chunk ends with the block's last seed at the latest
        n = min(max(1, BLOCK_SIZE // size), streams.stop - i, seeds - s)
        i += n
        u = draws[: 2 * size * n].reshape(n, 2 * size)
        for row in u:
            bit_generator.state = _pcg64_state(next(stream_words).tolist())
            rng.random(out=row)
        counts[:, s : s + n, block] = _accepted_counts(
            u[:, :size],
            u[:, size:],
            accept,
            edges[:, s : s + n],
            mask[: n * size].reshape(n, size),
            scratch[: n * size].reshape(n, size),
        )
    return counts


def _worker_count(events: int) -> int:
    """One worker per CPU the process may run on, as long as each gets
    ``_BLOCKS_PER_WORKER`` full blocks of the drawn ``events``."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    per_worker = _BLOCKS_PER_WORKER * BLOCK_SIZE
    return max(1, min(len(os.sched_getaffinity(0)), events // per_worker))


def _exit_with_counts(
    read_ends: Sequence[int], write_end: int, streams: range, words: np.ndarray, *args
) -> NoReturn:
    """In a forked child: write to the pipe ``write_end`` status byte 0 and
    the bytes of the :func:`_sample_streams` counts of ``streams``, or status
    1 and the pickled exception, and leave through ``os._exit``, which never
    returns into the parent's code, flushes inherited stdio or runs
    ``atexit``; the exit status is 0 once the whole result is written.  The
    inherited ``read_ends``, its own pipe's among them, are closed first, so
    that once the parent is gone the write fails instead of blocking.
    """
    code = 1
    try:
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
    int64 array: each piece is counted in its own forked child, which takes
    the rows of ``words`` for its streams and ``args`` as the other
    arguments, and sends its counts back through its own pipe.

    The parent only waits: it never samples, so it never imports
    ``numpy.random``, whose pages a forked child does not count in its peak
    RSS.  It reads each pipe to EOF before it reaps the child, so a result
    larger than the pipe buffer cannot block the child.  A child's exception
    is raised again, type kept, and a child that ends without a result is a
    ``RuntimeError``; on any exception every child left is killed and reaped
    first.  ``os.fork`` copies only the calling thread, and Python 3.12 and
    later warn when a process with threads forks.  The CLI is
    single-threaded: it starts no thread, and the OpenBLAS threads that
    ``import numpy`` starts are stopped by OpenBLAS's own fork handler.
    """
    read_ends, pids = [], []
    try:
        for piece in pieces:
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _exit_with_counts(read_ends, write_end, piece, words, *args)
            finally:
                # a later child must not hold this pipe open
                os.close(write_end)
            pids.append(pid)
        counts = 0
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
            # imported on this path only: the module costs ~1 ms at import
            from signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for read_end in read_ends:
            os.close(read_end)


def block_tallies(
    laws: Sequence[Law], seeds: Sequence[int], events: int, target: Subensemble = Subensemble.LONG
) -> list[CoincidenceTally]:
    """Per-block tallies of a run of ``events`` events from each of ``seeds``
    under each of ``laws``: law by law, then seed by seed, each in block order.

    Row ``k`` of every law is sampled from ``seeds[k]``; a law of another row
    count is a ``ValueError``, and one bare :class:`Law` (itself a tuple) a
    ``TypeError``.  A :class:`Law` does not record its target, so the laws
    must be predicted for ``target``, the class whose events are accepted.
    ``events`` (an int from 1 to 2**48, as block indices are 32-bit spawn
    keys) and the seeds (64-bit ints) are checked before any draw; with no law
    or no seed the call returns ``[]``.  Stream
    ``i``, block ``i // S`` of ``seeds[i % S]`` where ``S = len(seeds)``, is
    drawn once for every law.  The call fans out at most once (see
    :func:`_worker_count`, which counts the events drawn), forking one child
    per equal range of streams.
    """
    if isinstance(laws, Law):
        raise TypeError("laws must be a sequence of Law records; pass one law as [law]")
    _require_runs(events, seeds)
    sampled = [_sampled_law(law) for law in laws]
    for law in sampled:
        if len(law) != len(seeds):
            raise ValueError(f"law rows ({len(law)}) must match seeds ({len(seeds)})")
    if not sampled or not seeds:
        return []

    # the target's class interval, and per law and seed the first three
    # cumulative outcome edges; the top edge is 1.0, above every uniform, and
    # never compared
    t = SUBENSEMBLE_ORDER.index(target)
    accept = _CLASS_EDGES[t : t + 2]
    edges = np.cumsum(sampled, axis=2)[:, :, :-1]
    sizes = [min(BLOCK_SIZE, events - j) for j in range(0, events, BLOCK_SIZE)]
    streams = len(sizes) * len(seeds)
    # every stream's seed words, hashed before any fork: a worker that hashed
    # its own would first touch numpy's uint32 loops (~0.5 MB of peak RSS)
    words = _seed_words(
        np.tile(np.asarray(seeds, dtype=np.uint64), len(sizes)),
        np.repeat(np.arange(len(sizes)), len(seeds)),
        4,
    )

    workers = _worker_count(len(seeds) * events)
    if workers == 1:
        counts = _sample_streams(range(streams), words, sizes, accept, edges)
    else:
        bounds = [p * streams // workers for p in range(workers + 1)]
        pieces = [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
        counts = _forked_counts(pieces, words, sizes, accept, edges)

    return [
        CoincidenceTally(r=tuple(r), rejected=size - sum(r))
        for per_run in counts.reshape(-1, len(sizes), len(OUTCOMES)).tolist()
        for r, size in zip(per_run, sizes)
    ]


def sample(
    models: Sequence[TheoryModel],
    settings: Sequence[PhaseSettings],
    seeds: Sequence[int],
    events: int,
    target: Subensemble = Subensemble.LONG,
) -> tuple[list[Law], np.ndarray]:
    """Runs of ``events`` events at each of ``settings`` under each of
    ``models``, as ``(laws, counts)``: one law per model, on the grid
    ``settings``, and the ``(models, points, 4)`` int64 counters of the runs.

    Point ``k`` runs from ``seeds[k]`` under every model, so the models' point
    ``k`` share their draws.  Each law is one :func:`predict` call, and every
    model is sampled in one :func:`block_tallies` call, so a target outside a
    model's domain fails before any draw.  A run's rejected total is
    ``events`` less its accepted count, and the call
    ``sample([model], [phases], [seed], events, target)`` replays one run.
    """
    laws = [predict(model, settings, target) for model in models]
    tallies = block_tallies(laws, seeds, events, target)
    r = np.array([tally.r for tally in tallies], dtype=np.int64)
    blocks = -(-events // BLOCK_SIZE)
    return laws, r.reshape(len(laws), len(seeds), blocks, len(OUTCOMES)).sum(axis=2)


def estimate_E(counts) -> tuple[np.ndarray, np.ndarray]:
    """Normalized side-1 counter asymmetry (R++ + R+- - R-+ - R--)/accepted,
    and its standard error, of ``OUTCOMES``-ordered counters.

    ``counts`` holds the four counters on its last axis: one tally's ``r``, or
    one row of them per run.  Both results have the shape of the other axes.
    The error is the binomial ``2*sqrt(p*(1-p)/n)`` of the side-1 "+"
    fraction ``p``.  When every accepted event lands on one side-1 detector
    that formula gives 0, so the error is instead ``1/(n+1)``, the z = 1
    Wilson score half-width (Wilson 1927) on the E scale.  A row with no
    accepted event is a ``ValueError``.
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


def _point_seeds(seed: int, points: int) -> list[int]:
    """``derive_point_seed(seed, k)`` for every ``k`` below ``points``, in one pass."""
    _require_seed(seed)
    return _seed_words(np.full(points, seed, dtype=np.uint64), np.arange(points), 1)[:, 0].tolist()


def derive_point_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for grid point ``index`` (below 2**32) of a scan: the
    first word of ``SeedSequence(seed, spawn_key=(index,)).generate_state(1,
    np.uint64)``."""
    _require_seed(seed)
    _require_int("index", index)
    if index < 0:
        raise ValueError("index must not be negative")
    return int(_seed_words([seed], [index], 1)[0, 0])
