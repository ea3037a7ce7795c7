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
spawn_key=(j,))``.  A block of ``size`` events makes one ``random(2*size)``
draw: the first ``size`` doubles are the events' class draws and the next
``size`` their outcome draws, so every event, rejected or not, consumes its
outcome draw.  A block's draws thus depend only on its seed, index and size.
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
one full block of draws.  The compares run over the whole chunk once per law,
each row against the law's thresholds for its seed, and the counts go into
one ``(laws, seeds, blocks, 4)`` array.  The call makes one fan-out decision:
one forked worker per CPU in the affinity set (``os.sched_getaffinity``), but
at most one per ``_BLOCKS_PER_WORKER`` full blocks of the events drawn.  One
worker stays in process; more count equal ranges of the streams over one
pool, and the parent adds their arrays.  Each stream is still drawn from its
own seed, so the tallies are the same bits for any worker count:
``taskset -c 0`` gives a serial run that writes identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

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

#: Fewest full blocks of events a worker is given.  In a fresh interpreter on
#: 2 CPUs the pool's imports, forks and first blocks cost ~40-70 ms, so two
#: workers break even with one process near 160-200 blocks (~0.75 ms per
#: block); only 2 CPUs were measured.
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
    for seed in seeds:
        _require_seed(seed)


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
    edges: np.ndarray,
    mask: np.ndarray,
    scratch: np.ndarray,
) -> list[tuple[int, int, int, int]]:
    """Outcome counts, four per row of draws, of the events whose class draw
    lies in the row's ``[edges[i, 0], edges[i, 1])``.

    Event ``e`` of row ``i`` is accepted when ``edges[i, 0] <= u_class[i, e] <
    edges[i, 1]``, and its outcome is category ``k`` when ``c[k-1] <=
    u_outcome[i, e] < c[k]``, where ``c`` is ``edges[i, 2:]`` followed by 1.0,
    above every uniform; this equals ``bincount(searchsorted(c, accepted,
    side="right"))``.  Tied edges (a category of probability zero) give a zero
    count.  ``mask`` and ``scratch`` are ``bool`` buffers shaped like
    ``u_class``; both are overwritten, and no draw is gathered.  Each row is
    counted with a flat ``count_nonzero``: on a full block that is several
    times faster than ``count_nonzero(..., axis=1)``.
    """
    # a single row compares with Python floats, which spares numpy's
    # broadcast set-up on each call (~2% of a full block's time)
    lo, hi, *cumulative = edges[0].tolist() if len(edges) == 1 else edges.T[:, :, None]
    np.greater_equal(u_class, lo, out=mask)
    np.less(u_class, hi, out=scratch)
    np.logical_and(mask, scratch, out=mask)
    rows = range(len(edges))
    at_or_above = [[np.count_nonzero(mask[i]) for i in rows]]
    for c in cumulative:
        np.greater_equal(u_outcome, c, out=scratch)
        np.logical_and(scratch, mask, out=scratch)
        at_or_above.append([np.count_nonzero(scratch[i]) for i in rows])
    return [(n0 - n1, n1 - n2, n2 - n3, n3) for n0, n1, n2, n3 in zip(*at_or_above)]


def _sample_streams(
    streams: range, seeds: Sequence[int], sizes: Sequence[int], edges: np.ndarray
) -> np.ndarray:
    """The one sampler, in process or in a worker: the outcome counts of the
    ``streams`` of a call, as a ``(laws, seeds, blocks, 4)`` array that is zero
    outside them.

    Stream ``i`` is block ``i // S``, of ``sizes[i // S]`` events, of
    ``seeds[i % S]``, where ``S = len(seeds)``; law ``m`` counts it into ``[m,
    i % S, block]`` against ``edges[m, i % S]`` (see :func:`_accepted_counts`).
    Up to ``BLOCK_SIZE // size`` consecutive streams of one block are drawn
    into the rows of one reused buffer and counted at once, once per law.
    """
    counts = np.zeros((*edges.shape[:2], len(sizes), len(OUTCOMES)), dtype=np.int64)
    # a chunk holds at most one full block, and never more than the streams draw
    capacity = min(BLOCK_SIZE, len(streams) * sizes[0])
    draws = np.empty(2 * capacity)
    mask = np.empty(capacity, dtype=bool)
    scratch = np.empty(capacity, dtype=bool)

    i = streams.start
    while i < streams.stop:
        block, s = divmod(i, len(seeds))
        size = sizes[block]
        # the chunk ends with the block's last seed at the latest
        n = min(max(1, BLOCK_SIZE // size), streams.stop - i, len(seeds) - s)
        i += n
        u = draws[: 2 * size * n].reshape(n, 2 * size)
        for row, seed in enumerate(seeds[s : s + n]):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,)))
            )
            rng.random(out=u[row])
        for m, law_edges in enumerate(edges):
            counts[m, s : s + n, block] = _accepted_counts(
                u[:, :size],
                u[:, size:],
                law_edges[s : s + n],
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


def block_tallies(
    laws: Sequence[Law], seeds: Sequence[int], events: int, target: Subensemble = Subensemble.LONG
) -> list[CoincidenceTally]:
    """Per-block tallies of a run of ``events`` events from each of ``seeds``
    under each of ``laws``: law by law, then seed by seed, each in block order.

    Row ``k`` of every law is sampled from ``seeds[k]``; a law of another row
    count is a ``ValueError``, and one bare :class:`Law` (itself a tuple) a
    ``TypeError``.  A :class:`Law` does not record its target, so the laws
    must be predicted for ``target``, the class whose events are accepted.
    ``events`` (an int of at least 1) and the seeds (64-bit ints) are checked
    before any draw; with no law or no seed the call returns ``[]``.  Stream
    ``i``, block ``i // S`` of ``seeds[i % S]`` where ``S = len(seeds)``, is
    drawn once for every law.  The call starts at most one pool (see
    :func:`_worker_count`, which counts the events drawn), whose pieces are
    equal ranges of streams.
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

    # per law and seed: the class interval, then the first three cumulative
    # outcome edges; the top edge is 1.0, above every uniform, and never compared
    t = SUBENSEMBLE_ORDER.index(target)
    cumulative = np.cumsum(sampled, axis=2)[:, :, :-1]
    edges = np.dstack((np.full((*cumulative.shape[:2], 2), _CLASS_EDGES[t : t + 2]), cumulative))
    sizes = [min(BLOCK_SIZE, events - j) for j in range(0, events, BLOCK_SIZE)]
    streams = len(sizes) * len(seeds)

    workers = _worker_count(len(seeds) * events)
    if workers == 1:
        counts = _sample_streams(range(streams), seeds, sizes, edges)
    else:
        # imported here: a run that never fans out does not pay their memory
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker would pay an interpreter start and
        # the numpy import; Python 3.14 makes forkserver the Linux default
        context = multiprocessing.get_context("fork")
        bounds = [p * streams // workers for p in range(workers + 1)]
        pieces = [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            # each stream is counted in one piece, zero in the others
            counts = sum(pool.map(
                _sample_streams, pieces, [seeds] * workers, [sizes] * workers, [edges] * workers
            ))

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


def derive_point_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for grid point ``index`` of a scan."""
    _require_seed(seed)
    _require_int("index", index)
    if index < 0:
        raise ValueError("index must not be negative")
    stream = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(stream.generate_state(1, np.uint64)[0])
