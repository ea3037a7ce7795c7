"""Deterministic Monte Carlo emulation of the coincidence measurement.

Each emitted pair is assigned an arrival-time class with the a-priori weights
1/8, 3/8, 3/8, 1/8 (equal splitting over the eight coarse path pairs;
interference redistributes probability only within a class).  Events outside
the target class are rejected, emulating the coincidence electronics; accepted
events draw a joint outcome from the active model's distribution and feed the
four counters.  A :class:`RunConfig` is a run's provenance only: the law it
samples is one :func:`predict` call per grid, passed to the sampler beside the
configs.  The counters are a 4-tuple in ``OUTCOMES`` order, like the columns
of the law they sample.  The module hands back counts and plain values: a
run's tally, :func:`estimate_E`'s ``(value, std_error)`` and a scan's law with
its ``(config, tally)`` pairs; the output row puts the E anchors beside them.

Determinism contract: events are processed in fixed blocks of ``BLOCK_SIZE``;
block ``j`` uses the PCG64 stream seeded by ``SeedSequence(seed,
spawn_key=(j,))``.  A block of ``size`` events makes one ``random(2*size)``
draw: the first ``size`` doubles are the events' class draws and the next
``size`` their outcome draws, so every event, rejected or not, consumes its
outcome draw.  Categories are picked by thresholds on the cumulative weights,
which equals an inverse CDF (``searchsorted(..., side="right")``): each
block's accepted outcomes are counted by masked threshold compares into two
reused ``bool`` buffers, and never gathered into a new array.  Per-block
tallies merge by addition, so the merged result is independent of how blocks
are partitioned and merged, and reproducible across platforms for a given
seed.

Parallel runs: each ``(config, block)`` pair of a :func:`block_tallies` call
is one work item, and the call makes one fan-out decision: one forked worker
per CPU in the affinity set (``os.sched_getaffinity``), but at most one per
``_BLOCKS_PER_WORKER`` full blocks of the call's events.  One worker stays in
process; more split the item list into contiguous chunks over one pool, and
the chunks' tallies are joined in item order.  Every block still draws from
its own stream, so the tallies are the same bits for any worker count:
``taskset -c 0`` gives a serial run that writes identical bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .amplitudes import PHASE_NAMES, PhaseSettings
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


@dataclass(frozen=True)
class RunConfig:
    """Full provenance of one simulated run."""

    model: TheoryModel
    phases: PhaseSettings
    events: int
    seed: int
    target_sub: Subensemble = Subensemble.LONG

    def __post_init__(self) -> None:
        _require_int("events", self.events)
        _require_seed(self.seed)
        if self.events < 1:
            raise ValueError("events must be at least 1")


@dataclass(frozen=True)
class CoincidenceTally:
    """The four coincidence counters in ``OUTCOMES`` order, and the rejected total."""

    r: tuple[int, int, int, int]
    rejected: int

    def __post_init__(self) -> None:
        if len(self.r) != len(OUTCOMES):
            raise ValueError("tally must carry all four counters")
        if any(count < 0 for count in self.r):
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
    lo: float,
    hi: float,
    cumulative: np.ndarray,
    mask: np.ndarray,
    scratch: np.ndarray,
) -> tuple[int, ...]:
    """Outcome counts of the events whose class draw lies in ``[lo, hi)``.

    Event ``i`` is accepted when ``lo <= u_class[i] < hi``, and its outcome is
    category ``k`` when ``cumulative[k-1] <= u_outcome[i] < cumulative[k]``;
    this equals ``bincount(searchsorted(cumulative, accepted, side="right"))``
    provided ``cumulative[-1]`` is 1.0, above every uniform.  Tied edges (a
    category of probability zero) give a zero count.  ``mask`` and
    ``scratch`` are ``bool`` buffers as long as ``u_class``; both are
    overwritten, and no array is allocated.
    """
    np.greater_equal(u_class, lo, out=mask)
    np.less(u_class, hi, out=scratch)
    np.logical_and(mask, scratch, out=mask)
    at_or_above = [np.count_nonzero(mask)]
    for c in cumulative[:-1].tolist():
        np.greater_equal(u_outcome, c, out=scratch)
        at_or_above.append(np.count_nonzero(np.logical_and(scratch, mask, out=scratch)))
    at_or_above.append(0)
    return tuple(int(n - m) for n, m in zip(at_or_above, at_or_above[1:]))


def _sample_blocks(
    configs: Sequence[RunConfig], cumulative: np.ndarray, items: Sequence[tuple[int, int]]
) -> list[CoincidenceTally]:
    """Tallies of the ``(k, block)`` ``items`` in order: the one sampler, in process or
    in a worker.  Config ``k``'s items are contiguous and draw from ``cumulative[k]``."""
    # sized by the largest config, so one-block runs allocate no more than they draw
    half = min(max(config.events for config in configs), BLOCK_SIZE)
    draws = np.empty(2 * half)
    mask = np.empty(half, dtype=bool)
    scratch = np.empty(half, dtype=bool)

    tallies = []
    for k, config_items in groupby(items, key=lambda item: item[0]):
        config, outcome_cum = configs[k], cumulative[k]
        target_index = SUBENSEMBLE_ORDER.index(config.target_sub)
        lo, hi = _CLASS_EDGES[target_index : target_index + 2]
        for _, j in config_items:
            size = min(BLOCK_SIZE, config.events - j * BLOCK_SIZE)
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(j,)))
            )
            u = rng.random(out=draws[: 2 * size])
            counts = _accepted_counts(
                u[:size], u[size:], lo, hi, outcome_cum, mask[:size], scratch[:size]
            )
            tallies.append(CoincidenceTally(r=counts, rejected=size - sum(counts)))
    return tallies


def _worker_count(events: int, items: int) -> int:
    """One worker per CPU the process may run on, as long as each gets
    ``_BLOCKS_PER_WORKER`` full blocks of the ``events`` and one of the ``items``."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    per_worker = _BLOCKS_PER_WORKER * BLOCK_SIZE
    return max(1, min(len(os.sched_getaffinity(0)), events // per_worker, items))


def block_tallies(configs: Sequence[RunConfig], law: Law) -> list[CoincidenceTally]:
    """Per-block tallies of every config, config by config and each in block order.

    Config ``k`` samples row ``k`` of ``law``; another row count is a
    ``ValueError``.  The call starts at most one pool (see :func:`_worker_count`).
    """
    sampled = _sampled_law(law)
    if len(sampled) != len(configs):
        raise ValueError(f"law rows ({len(sampled)}) must match configs ({len(configs)})")
    cumulative = np.cumsum(sampled, axis=1)
    cumulative[:, -1] = 1.0  # guard against rounding below the top uniform
    items = [(k, j) for k, c in enumerate(configs) for j in range(-(-c.events // BLOCK_SIZE))]
    workers = _worker_count(sum(config.events for config in configs), len(items))
    if workers == 1:
        return _sample_blocks(configs, cumulative, items)

    # imported here: a run that never fans out does not pay their memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = [len(items) * i // workers for i in range(workers + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # fork, not spawn: a spawned worker would pay an interpreter start and
    # the numpy import; Python 3.14 makes forkserver the Linux default
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        parts = pool.map(_sample_blocks, [configs] * workers, [cumulative] * workers, chunks)
        return [tally for part in parts for tally in part]


def merge_tallies(tallies: Iterable[CoincidenceTally]) -> CoincidenceTally:
    """Component-wise sum; the order of the tallies does not matter."""
    r = (0,) * len(OUTCOMES)
    rejected = 0
    for tally in tallies:
        r = tuple(total + count for total, count in zip(r, tally.r))
        rejected += tally.rejected
    return CoincidenceTally(r=r, rejected=rejected)


def run(config: RunConfig) -> CoincidenceTally:
    """Simulate ``config.events`` pairs and tally the accepted coincidences.

    A target outside the model's domain fails in :func:`predict`, before any draw.
    """
    law = predict(config.model, [config.phases], config.target_sub)
    return merge_tallies(block_tallies([config], law))


def estimate_E(tally: CoincidenceTally) -> tuple[float, float]:
    """Normalized side-1 counter asymmetry (R++ + R+- - R-+ - R--)/accepted,
    and its standard error.

    The error is the binomial ``2*sqrt(p*(1-p)/n)`` of the side-1 "+"
    fraction ``p``.  When every accepted event lands on one side-1 detector
    that formula gives 0, so the error is instead ``1/(n+1)``, the z = 1
    Wilson score half-width (Wilson 1927) on the E scale.
    """
    n = tally.accepted
    if n == 0:
        raise ValueError("cannot estimate E from an empty tally")
    pp, pm, _, _ = tally.r
    plus_side1 = pp + pm
    value = (2 * plus_side1 - n) / n
    if plus_side1 in (0, n):
        std_error = 1.0 / (n + 1)
    else:
        p = plus_side1 / n
        std_error = 2.0 * math.sqrt(p * (1.0 - p) / n)
    return value, std_error


def derive_point_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for grid point ``index`` of a scan."""
    stream = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(stream.generate_state(1, np.uint64)[0])


def scan_phases(
    model: TheoryModel,
    axis: str,
    grid: Sequence[float],
    base: PhaseSettings,
    events_per_point: int,
    seed: int,
) -> tuple[Law, list[tuple[RunConfig, CoincidenceTally]]]:
    """The grid's law and one simulated run per grid angle, as ``(config,
    tally)`` pairs in grid order; row ``k`` of the law belongs to point ``k``.

    ``axis`` names the phase being swept; the other two stay at their ``base``
    values.  The law is one :func:`predict` call and the sampling one
    :func:`block_tallies` call over every point.  Point ``k`` runs with the
    derived seed :func:`derive_point_seed`\\ ``(seed, k)``; its config is the
    full provenance, so any single point can be replayed with :func:`run`.
    """
    if axis not in PHASE_NAMES:
        raise ValueError(f"axis must be one of {PHASE_NAMES}")
    if len(grid) == 0:
        raise ValueError("grid must not be empty")
    _require_seed(seed)
    settings = [replace(base, **{axis: float(angle)}) for angle in grid]
    configs = [
        RunConfig(model, phases, events=events_per_point, seed=derive_point_seed(seed, k))
        for k, phases in enumerate(settings)
    ]
    law = predict(model, settings)
    tallies = block_tallies(configs, law)
    n = len(tallies) // len(configs)  # every point has the same block count
    return law, [(c, merge_tallies(tallies[k * n : (k + 1) * n])) for k, c in enumerate(configs)]
