"""Deterministic Monte Carlo emulation of the coincidence measurement.

Each emitted pair is assigned an arrival-time class with the a-priori weights
1/8, 3/8, 3/8, 1/8 (equal splitting over the eight coarse path pairs;
interference redistributes probability only within a class).  Events outside
the target class are rejected, emulating the coincidence electronics; accepted
events draw a joint outcome from the active model's distribution and feed the
four counters.  A :class:`RunConfig` computes its model's analytic
``prediction`` once, when it is built, so a request outside the model's
domain fails there; the counters are a 4-tuple in ``OUTCOMES`` order, like
the law they sample.  The module hands back counts and plain values: a run's
tally, :func:`estimate_E`'s ``(value, std_error)`` and a scan's ``(config,
tally)`` pairs; the output row puts the analytic E anchors beside them.

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

Parallel runs: a run splits its block range into contiguous chunks and
samples them in forked worker processes, one per CPU in the process's
affinity set (``os.sched_getaffinity``) but no more than one per
``_BLOCKS_PER_WORKER`` blocks; a run with one worker stays in process.  The
chunks' tallies are joined in block order.  Every block still draws from its
own stream, so the tallies are the same bits for any worker count:
``taskset -c 0`` gives a serial run that writes identical bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .amplitudes import PHASE_NAMES, PhaseSettings
from .pathspace import OUTCOMES, Subensemble
from .theories import (
    JointDistribution,
    Prediction,
    SinglesPair,
    TheoryModel,
    marginals,
    predict,
)

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

#: Fewest blocks a worker is given.  In a fresh interpreter on 2 CPUs the
#: pool's imports, forks and first blocks cost ~40-70 ms, so two workers break
#: even with one process near 160-200 blocks (~0.75 ms per block); only 2 CPUs
#: were measured.
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
    """Full provenance of one simulated run, and the analytic law it samples."""

    model: TheoryModel
    phases: PhaseSettings
    events: int
    seed: int
    target_sub: Subensemble = Subensemble.LONG
    prediction: Prediction = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_int("events", self.events)
        _require_seed(self.seed)
        if self.events < 1:
            raise ValueError("events must be at least 1")
        if "prediction" not in vars(self):  # _at_point sets it before __init__ runs
            prediction = predict(self.model, self.phases, self.target_sub)
            object.__setattr__(self, "prediction", prediction)

    @classmethod
    def _at_point(cls, prediction: Prediction, **fields) -> RunConfig:
        """A config given its ``prediction``, from a grid ``predict`` call; same checks."""
        config = cls.__new__(cls)
        object.__setattr__(config, "prediction", prediction)
        config.__init__(**fields)
        return config


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


_EVEN = SinglesPair(0.5, 0.5)


def outcome_distribution(prediction: Prediction) -> JointDistribution:
    """Distribution an accepted event's outcome is drawn from.

    QM samples its joint distribution for the target class.  Causal and RNL
    define no joint law, so outcomes are drawn from the product of the
    defined singles, with any undefined side filled in uniformly; this cannot
    bias the side-1 asymmetry, but it is not a physical correlation model.
    """
    if prediction.joint is not None:
        return prediction.joint
    side1 = prediction.side1 or _EVEN
    side2 = prediction.side2 or _EVEN
    return JointDistribution(
        tuple(
            p1 * p2
            for p1 in (side1.p_plus, side1.p_minus)
            for p2 in (side2.p_plus, side2.p_minus)
        )
    )


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


def _sample_blocks(config: RunConfig, blocks: range) -> list[CoincidenceTally]:
    """Tallies of ``blocks`` in block order: the one sampler, in process or in a worker."""
    distribution = outcome_distribution(config.prediction)
    outcome_cum = np.cumsum(distribution.p)
    outcome_cum[-1] = 1.0  # guard against rounding below the top uniform
    target_index = SUBENSEMBLE_ORDER.index(config.target_sub)
    lo, hi = _CLASS_EDGES[target_index : target_index + 2]
    # sized by the run, so a one-block run allocates no more than it draws
    half = min(config.events, BLOCK_SIZE)
    draws = np.empty(2 * half)
    mask = np.empty(half, dtype=bool)
    scratch = np.empty(half, dtype=bool)

    tallies = []
    for j in blocks:
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


def _worker_count(n_blocks: int) -> int:
    """One worker per CPU the process may run on, each with ``_BLOCKS_PER_WORKER`` blocks or more."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_blocks // _BLOCKS_PER_WORKER))


def block_tallies(config: RunConfig) -> list[CoincidenceTally]:
    """Per-block tallies in block order; ``run`` is their merge.

    With one worker (see :func:`_worker_count`) the blocks are sampled in
    process, otherwise in one contiguous chunk per forked worker.
    """
    n_blocks = -(-config.events // BLOCK_SIZE)
    workers = _worker_count(n_blocks)
    if workers == 1:
        return _sample_blocks(config, range(n_blocks))

    # imported here: a run that never fans out does not pay their memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = [n_blocks * i // workers for i in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # fork, not spawn: a spawned worker would pay an interpreter start and
    # the numpy import; Python 3.14 makes forkserver the Linux default
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        parts = pool.map(_sample_blocks, [config] * workers, chunks)
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
    """Simulate ``config.events`` pairs and tally the accepted coincidences."""
    return merge_tallies(block_tallies(config))


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


def tally_marginals(tally: CoincidenceTally) -> tuple[SinglesPair, SinglesPair]:
    """Estimated singles (side 1, side 2) from the coincidence counters."""
    if tally.accepted == 0:
        raise ValueError("cannot estimate marginals from an empty tally")
    return marginals(tally.r, tally.accepted)


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
) -> list[tuple[RunConfig, CoincidenceTally]]:
    """One simulated run per grid angle, as ``(config, tally)`` pairs in grid order.

    ``axis`` names the phase being swept; the other two stay at their ``base``
    values.  The analytic law of the whole grid is evaluated in one
    :func:`predict` call, and each config carries its point's law as
    ``prediction``.  Point ``k`` runs with the derived seed
    :func:`derive_point_seed`\\ ``(seed, k)``; its config is the full
    provenance, so any single point can be replayed with :func:`run`.
    """
    if axis not in PHASE_NAMES:
        raise ValueError(f"axis must be one of {PHASE_NAMES}")
    if len(grid) == 0:
        raise ValueError("grid must not be empty")
    _require_seed(seed)
    settings = [replace(base, **{axis: float(angle)}) for angle in grid]
    seeds = [derive_point_seed(seed, k) for k in range(len(grid))]
    configs = [
        RunConfig._at_point(prediction, model=model, phases=phases, events=events_per_point, seed=s)
        for phases, prediction, s in zip(settings, predict(model, settings), seeds)
    ]
    return [(config, run(config)) for config in configs]
