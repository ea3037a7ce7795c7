"""Monte Carlo engine: determinism, partition independence, statistics."""

import importlib.util
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import impactseries
from impactseries import montecarlo
from impactseries.amplitudes import PhaseSettings
from impactseries.cli import _run_columns
from impactseries.montecarlo import (
    BLOCK_SIZE,
    block_tallies,
    estimate_E,
    point_seeds,
    sample,
    _BLOCKS_PER_WORKER,
    _CLASS_INTERVALS,
    _accepted_counts,
    _class_mask,
    _pieces,
    _sampled_law,
)
from impactseries.pathspace import OUTCOMES, Outcome, Subensemble, TimeOrdering
from impactseries.theories import Law, TheoryKind, TheoryModel, marginals, predict

from closed_forms import causal_singles_side2_closed_form

QM = TheoryModel(TheoryKind.QM)
RNL = TheoryModel(TheoryKind.RNL)
CAUSAL_1 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON2_FIRST)
CAUSAL_2 = TheoryModel(TheoryKind.CAUSAL, TimeOrdering.PHOTON1_FIRST)

ZERO = PhaseSettings()
LONG = Subensemble.LONG


#: ``block_tallies``' record type: a block's four counters, their sum and its
#: other events.
TALLY = np.dtype([("r", np.int64, (4,)), ("accepted", np.int64), ("rejected", np.int64)])


#: Script lines that count the ``os.fork`` calls made from there on in ``forks``.
COUNT_FORKS = "forks = []\nfork = os.fork\nos.fork = lambda: forks.append(1) or fork()\n"


def run_python(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter on this
    checkout's package, which must exit 0 within a minute.  Its stdout is a
    pipe and block-buffered, even where the caller's environment sets
    ``PYTHONUNBUFFERED``."""
    src = str(Path(impactseries.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return result.stdout


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_tallies(got: np.recarray, want: np.recarray) -> None:
    """Both are record arrays of ``TALLY`` with equal fields, compared field
    by field: structured ``==`` is not checked here on numpy 1.x."""
    for tallies in (got, want):
        assert isinstance(tallies, np.recarray) and tallies.dtype == TALLY
    for name in TALLY.names:
        assert np.array_equal(got[name], want[name]), name


def assert_same_law(got: Law, want: Law) -> None:
    """Every field is None in both laws or equal bit for bit, shape included."""
    for name, a, b in zip(Law._fields, got, want):
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name


def law_of(model, phases, target=LONG) -> Law:
    """The law a run of ``model`` at ``phases`` samples, as a grid of one point."""
    return predict(model, [phases], target)


def tallies_of(model, phases, events, seed, target=LONG) -> np.recarray:
    """``block_tallies`` of one run."""
    return block_tallies([law_of(model, phases, target)], [seed], events)


def run(model, phases, events, seed, target=LONG) -> tuple[tuple[int, ...], int]:
    """One run through ``sample``: its counters and its rejected total."""
    _, [[r]] = sample([model], [phases], [seed], events, target)
    return tuple(r.tolist()), events - int(r.sum())


def scan_points(axis, grid, base, seed) -> tuple[list[PhaseSettings], list[int]]:
    """A scan's settings and point seeds, with the values ``compare`` gives them."""
    settings = [base._replace(**{axis: float(angle)}) for angle in grid]
    return settings, point_seeds(seed, len(grid))


def summed(tallies: np.recarray) -> tuple[int, ...]:
    """The counters of a run, the sums of its blocks' counters."""
    return tuple(tallies.r.sum(axis=0).tolist())


def searchsorted_block_tallies(
    model, phases, events, seed, target=LONG
) -> np.recarray:
    """Reference sampler: two draws per block, inverse CDF by searchsorted, bincount."""
    outcome_cum = np.cumsum(_sampled_law(law_of(model, phases, target))[0])
    outcome_cum[-1] = 1.0
    # the classes in draw order, each ending where the next begins
    class_cum = [hi for _, hi in _CLASS_INTERVALS.values()]
    target_index = list(_CLASS_INTERVALS).index(target)
    full, remainder = divmod(events, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([remainder] if remainder else [])
    tallies = np.recarray(len(sizes), dtype=TALLY)
    for j, size in enumerate(sizes):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,)))
        )
        u_class = rng.random(size)
        u_outcome = rng.random(size)
        class_index = np.searchsorted(class_cum, u_class, side="right")
        outcome_index = np.searchsorted(
            outcome_cum, u_outcome[class_index == target_index], side="right"
        )
        tallies.r[j] = np.bincount(outcome_index, minlength=len(OUTCOMES))
        tallies.accepted[j] = len(outcome_index)
        tallies.rejected[j] = size - len(outcome_index)
    return tallies


# (+,-) has probability ~3e-33 in the difference-L class here, below the
# rounding of its cumulative edge, so two outcome edges tie
TIED = PhaseSettings(0.0, math.pi / 3, 2 * math.pi / 3)


class TestDeterminism:
    def test_identical_configs_yield_identical_tallies(self):
        assert run(QM, ZERO, 300_000, 42) == run(QM, ZERO, 300_000, 42)

    def test_frozen_reference_tally(self):
        # pinned output of the documented sampling contract (PCG64 blocks,
        # two uniforms per event, inverse CDF in canonical category order)
        _, counts = sample([QM], [ZERO], [1], 1000)
        assert counts.dtype == np.int64
        assert counts.tolist() == [[[32, 31, 295, 28]]]
        assert counts.sum() == 386
        assert 1000 - counts.sum() == 614

    def test_frozen_multi_block_tally(self):
        # pinned from the two-draw searchsorted sampler: three full blocks
        # and a partial one
        _, counts = sample([QM], [ZERO], [5], 3 * BLOCK_SIZE + 17)
        assert counts.tolist() == [[[6316, 6225, 55249, 6147]]]
        assert 3 * BLOCK_SIZE + 17 - counts.sum() == 122688

    @pytest.mark.parametrize(
        "model, phases, target",
        [
            (QM, ZERO, Subensemble.LONG),
            (QM, PhaseSettings(0.9, -0.2, 1.4), Subensemble.SHORT),
            (QM, TIED, Subensemble.LONG),
            (RNL, PhaseSettings(0.3, 1.0, -0.5), Subensemble.LONG),
            (CAUSAL_1, PhaseSettings(-1.2, 0.4, 2.5), Subensemble.LONG),
        ],
    )
    @pytest.mark.parametrize("events", [1, 17, BLOCK_SIZE, 3 * BLOCK_SIZE + 17])
    def test_block_tallies_match_the_searchsorted_reference(
        self, model, phases, target, events
    ):
        run_args = (model, phases, events, 2024, target)
        assert_same_tallies(tallies_of(*run_args), searchsorted_block_tallies(*run_args))

    @pytest.mark.parametrize("events", [3 * BLOCK_SIZE + 17, BLOCK_SIZE + 1])
    def test_short_block_after_full_ones_reads_no_stale_bits(self, events):
        # one worker, forked or not, reuses its draw, mask and scratch
        # buffers between the full blocks and the short last one
        blocks = -(-events // BLOCK_SIZE)
        assert _pieces(blocks, events) in ([], [range(0, blocks)])
        run_args = (QM, ZERO, events, 2024)
        assert_same_tallies(tallies_of(*run_args), searchsorted_block_tallies(*run_args))

    def test_tied_outcome_edge_is_never_drawn(self):
        cum = np.cumsum(_sampled_law(predict(QM, [TIED]))[0])
        assert cum[0] == cum[1]
        r, _ = run(QM, TIED, 3 * BLOCK_SIZE + 17, 5)
        assert r[1] == 0 and min(r[0], r[2], r[3]) > 0

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        events=st.integers(min_value=1, max_value=3000),
    )
    def test_determinism_for_arbitrary_seeds(self, seed, events):
        phases = PhaseSettings(0.3, 1.0, -0.5)
        assert run(RNL, phases, events, seed) == run(RNL, phases, events, seed)

    def test_merged_blocks_are_partition_order_independent(self):
        blocks = tallies_of(QM, ZERO, 3 * BLOCK_SIZE + 17, 5)
        frozen = ((6316, 6225, 55249, 6147), 122688)
        assert run(QM, ZERO, 3 * BLOCK_SIZE + 17, 5) == frozen
        assert (blocks.accepted + blocks.rejected).tolist() == [BLOCK_SIZE] * 3 + [17]
        # every order of the blocks, and every grouping of it into
        # consecutive groups, summed over the block axis
        for order in itertools.permutations(range(len(blocks))):
            shuffled = blocks[list(order)]
            for i in range(len(shuffled) + 1):
                for j in range(i, len(shuffled) + 1):
                    groups = [shuffled[:i], shuffled[i:j], shuffled[j:]]
                    partial = [group.r.sum(axis=0) for group in groups]
                    assert tuple(sum(partial).tolist()) == frozen[0]
            assert shuffled.rejected.sum() == frozen[1]


class TestWorkers:
    """The fan-out over worker processes returns the serial run's bits."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Let every block fan out, over as many workers as the CPUs it is given."""
        monkeypatch.setattr(montecarlo, "_BLOCKS_PER_WORKER", 1)

        def set_cpus(n):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
            )

        return set_cpus

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("events", [BLOCK_SIZE, 3 * BLOCK_SIZE + 17])
    def test_block_tallies_do_not_depend_on_the_worker_count(self, cpus, workers, events):
        cpus(workers)
        n_blocks = -(-events // BLOCK_SIZE)
        forked = min(workers, n_blocks)
        # a lone worker samples in process once numpy.random is imported
        if forked == 1 and "numpy.random" in sys.modules:
            forked = 0
        assert len(_pieces(n_blocks, events)) == forked
        assert_same_tallies(
            tallies_of(QM, ZERO, events, 5), searchsorted_block_tallies(QM, ZERO, events, 5)
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_record_adds_up_to_its_block(self, cpus, workers):
        # two laws of two seeds, each run three full blocks and a short one
        cpus(workers)
        laws = [predict(QM, [ZERO, TIED]), predict(RNL, [ZERO, TIED])]
        tallies = block_tallies(laws, [5, 6], 3 * BLOCK_SIZE + 17)
        assert isinstance(tallies, np.recarray) and tallies.dtype == TALLY
        assert tallies.r.shape == (16, len(OUTCOMES))
        assert np.array_equal(tallies.accepted, tallies.r.sum(axis=1))
        # law by law, then seed by seed, each in block order
        assert (tallies.accepted + tallies.rejected).tolist() == ([BLOCK_SIZE] * 3 + [17]) * 4
        assert (tallies.r >= 0).all()

    def test_pooled_run_gives_the_frozen_tally(self, cpus):
        cpus(2)
        _, counts = sample([QM], [ZERO], [5], 3 * BLOCK_SIZE + 17)
        assert counts.tolist() == [[[6316, 6225, 55249, 6147]]]
        assert 3 * BLOCK_SIZE + 17 - counts.sum() == 122688

    def test_worker_error_reaches_the_parent(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()

        def counts_outside_the_parent(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("raised in a worker")
            return _accepted_counts(*args)

        # forked workers inherit the patched module
        monkeypatch.setattr(montecarlo, "_accepted_counts", counts_outside_the_parent)
        with pytest.raises(ZeroDivisionError, match="raised in a worker"):
            tallies_of(QM, ZERO, 2 * BLOCK_SIZE, 5)
        assert_no_child_left()

    def test_a_worker_without_a_result_is_a_runtime_error(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()

        def exit_outside_the_parent(*args):
            if os.getpid() != parent:
                os._exit(3)
            return _accepted_counts(*args)

        monkeypatch.setattr(montecarlo, "_accepted_counts", exit_outside_the_parent)
        with pytest.raises(
            RuntimeError, match=r"child \d+ ended without a result \(exit status 3\)"
        ):
            tallies_of(QM, ZERO, 2 * BLOCK_SIZE, 5)
        # the sibling of the first failing child is reaped too
        assert_no_child_left()

    def test_an_interrupted_parent_kills_and_reaps_every_worker(self, cpus, monkeypatch):
        # the second worker interrupts the parent, as Ctrl-C would, while the
        # parent waits on the first; both would sleep for a minute, so the
        # call returns early only if the parent kills them
        cpus(2)
        parent = os.getpid()

        def interrupt_and_hang(streams, *args):
            if streams.start > 0:
                time.sleep(0.2)
                os.kill(parent, signal.SIGINT)
            time.sleep(60)

        monkeypatch.setattr(montecarlo, "_sample_streams", interrupt_and_hang)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            tallies_of(QM, ZERO, 2 * BLOCK_SIZE, 5)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_pieces(self, monkeypatch):
        # the rule counts full blocks of events, so a partial block adds no
        # worker; the streams are cut into equal ranges, one per worker
        per = _BLOCKS_PER_WORKER * BLOCK_SIZE
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setitem(sys.modules, "numpy.random", np.random)
        assert _pieces(1, 1) == []
        assert _pieces(4, 2 * per - 1) == []
        assert _pieces(4, 2 * per) == [range(0, 2), range(2, 4)]
        assert _pieces(3, 3 * per) == [range(0, 1), range(1, 2), range(2, 3)]
        assert _pieces(100, 100 * per) == [range(0, 33), range(33, 66), range(66, 100)]
        # a lone worker is forked while numpy.random is not imported
        monkeypatch.delitem(sys.modules, "numpy.random")
        assert _pieces(5, 1) == [range(0, 5)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _pieces(100, 100 * per) == [range(0, 100)]
        # never while another thread runs, however many workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert _pieces(5, 1) == []
        assert _pieces(100, 100 * per) == []
        # nor without os.sched_getaffinity
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _pieces(100, 100 * per) == []

    def test_a_scan_starts_one_pool(self, cpus, monkeypatch):
        # two blocks per point and a worker per block of events: each point
        # would fan out alone; the two models' scans are one sampler call,
        # split over one child per piece of whole streams
        cpus(2)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        settings, seeds = scan_points("alpha", [0.0, 0.4, 2.0], ZERO, 3)
        _, counts = sample([QM, RNL], settings, seeds, BLOCK_SIZE + 17)
        assert forks == [os.getpid()] * 2
        for model, model_counts in zip([QM, RNL], counts.tolist()):
            for phases, seed, r in zip(settings, seeds, model_counts):
                assert tuple(r) == run(model, phases, BLOCK_SIZE + 17, seed)[0]
                assert tuple(r) == summed(
                    searchsorted_block_tallies(model, phases, BLOCK_SIZE + 17, seed)
                )

    @staticmethod
    def record_pieces(monkeypatch, tmp_path):
        """Record the stream range of every piece sampled from here on, each
        in a file the sampling process writes; the returned function reads
        them back in stream order, and checks that every piece was sampled in
        its own child."""
        sample_streams = montecarlo._sample_streams

        def recorded(streams, *args):
            path = tmp_path / f"piece-{streams.start}"
            path.write_text(f"{os.getpid()} {streams.start} {streams.stop}")
            return sample_streams(streams, *args)

        monkeypatch.setattr(montecarlo, "_sample_streams", recorded)

        def pieces() -> list:
            records = [path.read_text().split() for path in tmp_path.glob("piece-*")]
            pids = {pid for pid, _, _ in records}
            assert str(os.getpid()) not in pids
            assert len(pids) == len(records)
            ranges = [range(int(start), int(stop)) for _, start, stop in records]
            return sorted(ranges, key=lambda piece: piece.start)

        return pieces

    def test_a_pool_piece_can_end_inside_a_run(self, cpus, monkeypatch, tmp_path):
        # one run's 3 full blocks are 3 streams of one seed; 2 workers cut them
        cpus(2)
        pieces = self.record_pieces(monkeypatch, tmp_path)
        run_args = (RNL, ZERO, 3 * BLOCK_SIZE, 8)
        assert_same_tallies(tallies_of(*run_args), searchsorted_block_tallies(*run_args))
        assert pieces() == [range(0, 1), range(1, 3)]

    def test_a_pool_piece_can_cut_a_chunk_of_short_streams(self, cpus, monkeypatch, tmp_path):
        # 8 one-block points of 20,000 events: a serial chunk holds 3 streams,
        # and 2 workers take 4 each, so a piece ends inside the second chunk
        assert BLOCK_SIZE // 20_000 == 3
        settings, seeds = scan_points("alpha", [0.3 * k for k in range(8)], ZERO, 4)
        cpus(1)
        serial_laws, serial = sample([QM, RNL], settings, seeds, 20_000)
        cpus(2)
        pieces = self.record_pieces(monkeypatch, tmp_path)
        laws, counts = sample([QM, RNL], settings, seeds, 20_000)
        assert pieces() == [range(0, 4), range(4, 8)]
        assert len(laws) == len(serial_laws) == 2
        for law, serial_law in zip(laws, serial_laws):
            assert_same_law(law, serial_law)
        assert np.array_equal(counts, serial)
        for model, model_counts in zip([QM, RNL], counts.tolist()):
            for phases, seed, r in zip(settings, seeds, model_counts):
                assert tuple(r) == run(model, phases, 20_000, seed)[0]

    def test_law_rows_must_match_the_seeds(self):
        with pytest.raises(ValueError, match=r"law rows \(1\) must match seeds \(2\)"):
            block_tallies([law_of(QM, ZERO)], [0, 1], 10)
        with pytest.raises(ValueError, match=r"law rows \(1\) must match seeds \(2\)"):
            sample([QM], [ZERO], [0, 1], 10)
        with pytest.raises(ValueError, match=r"law rows \(2\) must match seeds \(1\)"):
            block_tallies([predict(RNL, [ZERO, ZERO])], [0], 10)
        # every law is checked, not only the first
        with pytest.raises(ValueError, match=r"law rows \(1\) must match seeds \(2\)"):
            block_tallies([predict(RNL, [ZERO, ZERO]), law_of(QM, ZERO)], [0, 1], 10)
        # a bare Law is a tuple of fields, not a sequence of laws
        with pytest.raises(TypeError, match=r"pass one law as \[law\]"):
            block_tallies(law_of(QM, ZERO), [0], 10)
        with pytest.raises(TypeError, match=r"pass one law as \[law\]"):
            block_tallies(predict(QM, []), [], 10)
        # every law reads every seed: two laws of one row share one seed's run
        expected = np.concatenate(
            [searchsorted_block_tallies(model, ZERO, 10, 0) for model in (QM, RNL)]
        ).view(np.recarray)
        assert_same_tallies(
            block_tallies([law_of(QM, ZERO), law_of(RNL, ZERO)], [0], 10), expected
        )

    def test_a_bare_model_is_a_type_error(self, monkeypatch):
        # a bare TheoryModel is a tuple of fields, not a sequence of models;
        # it is rejected before any law is predicted
        monkeypatch.setattr(montecarlo, "predict", lambda *args: pytest.fail("predicted"))
        for model in (QM, CAUSAL_1):
            with pytest.raises(TypeError, match=r"pass one model as \[model\]"):
                sample(model, [ZERO], [0], 10)

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_no_law_or_no_seed_samples_nothing(self, model, monkeypatch):
        # returned before any buffer is allocated or a fan-out decided
        monkeypatch.setattr(montecarlo, "_pieces", lambda *args: pytest.fail("fan-out"))
        monkeypatch.setattr(montecarlo, "_sample_streams", lambda *args: pytest.fail("sampled"))
        empty = np.recarray(0, dtype=TALLY)
        assert_same_tallies(block_tallies([predict(model, [])], [], 10), empty)
        assert_same_tallies(block_tallies([], [0, 1], 10), empty)
        assert_same_tallies(block_tallies([], [], 10), empty)
        # sample keeps the models and points axes of an empty grid or model list
        assert sample([model], [], [], 10)[1].shape == (1, 0, len(OUTCOMES))
        assert sample([], [ZERO], [0], 10)[1].shape == (0, 1, len(OUTCOMES))

    def test_the_parent_samples_nothing_while_a_fork_gains_memory(self):
        # a one-worker simulate and a two-model scan of 1,001 one-block
        # points, as scan-fine samples, each fork one child, so the parent
        # never imports numpy.random, whose pages would count in its peak
        # RSS.  With another thread running, or once numpy.random is imported
        # (numpy before 2 imports it with numpy), one worker samples in
        # process, with the same bits.  A run over two workers forks two, or
        # none while another thread runs, again with the same bits.
        # No call loads the pool modules, which cost memory at import.
        stdout = run_python(
            "import os, sys, threading\n"
            "import numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "from impactseries import cli, montecarlo\n"
            "from impactseries.amplitudes import PhaseSettings\n"
            "from impactseries.montecarlo import point_seeds, sample\n"
            "from impactseries.theories import TheoryKind, TheoryModel\n"
            "models = [TheoryModel(TheoryKind.QM), TheoryModel(TheoryKind.RNL)]\n"
            "settings = [PhaseSettings(alpha=k / 100) for k in range(1001)]\n"
            f"{COUNT_FORKS}"
            "counts = []\n"
            "status = cli.main(['simulate', '--model', 'qm', '--events', '100000',"
            " '--out', os.devnull])\n"
            "counts.append(len(forks))\n"
            "_, forked = sample(models, settings, point_seeds(1, 1001), 1000)\n"
            "counts.append(len(forks))\n"
            "loaded = 'numpy.random' in sys.modules\n"
            "stop = threading.Event()\n"
            "thread = threading.Thread(target=stop.wait)\n"
            "thread.start()\n"
            "_, threaded = sample(models, settings, point_seeds(1, 1001), 1000)\n"
            "stop.set()\n"
            "thread.join()\n"
            "counts.append(len(forks))\n"
            "_, again = sample(models, settings, point_seeds(1, 1001), 1000)\n"
            "counts.append(len(forks))\n"
            "montecarlo._BLOCKS_PER_WORKER = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "_, two = sample([TheoryModel(TheoryKind.QM)], [PhaseSettings()], [1], 2 * 65536)\n"
            "counts.append(len(forks))\n"
            "stop = threading.Event()\n"
            "thread = threading.Thread(target=stop.wait)\n"
            "thread.start()\n"
            "_, two_threaded = sample([TheoryModel(TheoryKind.QM)], [PhaseSettings()], [1],"
            " 2 * 65536)\n"
            "stop.set()\n"
            "thread.join()\n"
            "counts.append(len(forks))\n"
            "same = ((forked == threaded).all() and (forked == again).all()"
            " and (two == two_threaded).all())\n"
            "print(eager, status, counts, loaded, same, sorted(m for m in sys.modules"
            " if m.startswith(('multiprocessing', 'concurrent.futures'))))\n"
        )
        last = stdout.splitlines()[-1]
        if last.startswith("True"):
            # numpy.random came with numpy: no single worker is forked
            assert last == "True 0 [0, 0, 0, 0, 2, 2] True True []"
        else:
            assert last == "False 0 [1, 2, 2, 2, 4, 4] False True []"

    def test_a_worker_result_may_exceed_the_pipe_buffer(self):
        # 2 laws x 1,200 one-block seeds: each worker's count array holds
        # 2 * 1,200 * 4 int64, 76,800 bytes, more than a 64 KB pipe buffer,
        # so a parent that reaped a child before reading its pipe would hang
        # until the timeout.  Text buffered on stdout before the fork is
        # written once, by the parent: a worker never flushes inherited stdio.
        stdout = run_python(
            "import os, sys\n"
            "from impactseries import montecarlo\n"
            "from impactseries.amplitudes import PhaseSettings\n"
            "from impactseries.theories import TheoryKind, TheoryModel\n"
            "models = [TheoryModel(TheoryKind.QM), TheoryModel(TheoryKind.RNL)]\n"
            "settings = [PhaseSettings(alpha=k / 100) for k in range(1200)]\n"
            "sys.stdout.write('buffered before the fan-out\\n')\n"
            f"{COUNT_FORKS}"
            "montecarlo._BLOCKS_PER_WORKER = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "_, forked = montecarlo.sample(models, settings, list(range(1200)), 1000)\n"
            "fanned_out = len(forks)\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "_, serial = montecarlo.sample(models, settings, list(range(1200)), 1000)\n"
            "print(fanned_out, forked.shape, (forked == serial).all())\n"
        )
        assert stdout == "buffered before the fan-out\n2 (2, 1200, 4) True\n"

    def test_without_fan_out_the_call_samples_in_process(self, cpus, monkeypatch):
        # where os.sched_getaffinity is missing (macOS, Windows) one call
        # samples every stream in the parent, with the forked call's bits
        cpus(2)
        laws = [law_of(QM, ZERO), law_of(RNL, ZERO)]
        forked = block_tallies(laws, [5], 3 * BLOCK_SIZE + 17)
        calls = []
        sample_streams = montecarlo._sample_streams

        def recorded(streams, *args):
            calls.append((os.getpid(), streams))
            return sample_streams(streams, *args)

        monkeypatch.setattr(montecarlo, "_sample_streams", recorded)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        # as if numpy.random were not imported yet, which alone would let one
        # worker fork; the module stays bound as numpy's attribute
        monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
        assert_same_tallies(block_tallies(laws, [5], 3 * BLOCK_SIZE + 17), forked)
        assert summed(forked[:4]) == (6316, 6225, 55249, 6147)
        assert sample([QM], [ZERO], [1], 1000)[1].tolist() == [[[32, 31, 295, 28]]]
        assert calls == [(os.getpid(), range(0, 4)), (os.getpid(), range(0, 1))]


class TestSharedStreams:
    """Blocks with the same seed, index and size read one stream, drawn once."""

    @settings(max_examples=25, deadline=None)
    @given(
        events=st.sampled_from(
            [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 17]
        ),
        models=st.lists(st.sampled_from([QM, RNL, CAUSAL_1, CAUSAL_2]), min_size=1, max_size=3),
        points=st.lists(
            st.tuples(
                st.sampled_from([ZERO, TIED, PhaseSettings(0.9, -0.2, 1.4)]),
                st.sampled_from([0, 1, 2**64 - 1]),  # few seeds, so seeds repeat
            ),
            min_size=1,
            max_size=4,
        ),
        short=st.booleans(),
    )
    # seed 0 appears twice, and one chunk holds all three streams of 1,000 events
    @example(events=1000, models=[QM, RNL], points=[(ZERO, 0), (TIED, 1), (ZERO, 0)], short=False)
    # two rows of BLOCK_SIZE // 2 events, the longest rows a chunk of two holds
    @example(events=BLOCK_SIZE // 2, models=[QM], points=[(ZERO, 0), (TIED, 1)], short=False)
    # the difference-l class, which each law records, in a multi-block run
    @example(events=BLOCK_SIZE + 17, models=[QM, QM], points=[(ZERO, 0), (TIED, 1)], short=True)
    def test_block_tallies_equal_the_concatenated_reference(self, events, models, points, short):
        # the causal rules and RNL are defined on the difference-L class only
        qm_only = all(model is QM for model in models)
        target = Subensemble.SHORT if short and qm_only else Subensemble.LONG
        expected = np.concatenate(
            [
                searchsorted_block_tallies(model, phases, events, seed, target)
                for model in models
                for phases, seed in points
            ]
        ).view(np.recarray)
        laws = [predict(model, [phases for phases, _ in points], target) for model in models]
        got = block_tallies(laws, [seed for _, seed in points], events)
        assert_same_tallies(got, expected)

    @staticmethod
    def count_streams(monkeypatch) -> list:
        """Record the ``(seed, block)`` pair of every stream whose PCG64 state
        the sampler computes from here on (a point seed takes one word, a
        stream's state four)."""
        built = []
        seed_words = montecarlo._seed_words

        def counted(seeds, keys, n_words):
            if n_words == 4:
                built.extend(zip(np.asarray(seeds).tolist(), np.asarray(keys).tolist()))
            return seed_words(seeds, keys, n_words)

        monkeypatch.setattr(montecarlo, "_seed_words", counted)
        return built

    def test_a_two_model_scan_draws_each_stream_once(self, monkeypatch):
        # 3 points of two blocks each: 6 streams, which the two models share
        # (12 when each model drew its own)
        built = self.count_streams(monkeypatch)
        settings, seeds = scan_points("alpha", [0.0, 0.4, 2.0], ZERO, 3)
        laws, counts = sample([QM, RNL], settings, seeds, BLOCK_SIZE + 17)
        assert len(built) == 6 and len(set(built)) == 6
        assert [len(law.side1) for law in laws] == [len(settings)] * 2
        assert counts.dtype == np.int64 and counts.shape == (2, len(settings), len(OUTCOMES))
        for model, model_counts in zip([QM, RNL], counts.tolist()):
            for phases, seed, r in zip(settings, seeds, model_counts):
                assert tuple(r) == run(model, phases, BLOCK_SIZE + 17, seed)[0]

    @pytest.mark.parametrize(
        "events, seeds, message",
        [
            (0, [0], "at least 1"),
            (2.5, [0], "must be an int"),
            (True, [0], "must be an int"),
            (1000, [0, -1], "unsigned 64-bit"),
            (1000, [0, 2**64], "unsigned 64-bit"),
            (1000, [0, True], "must be an int"),
        ],
    )
    def test_bad_events_and_seeds_are_rejected_before_any_draw(
        self, events, seeds, message, monkeypatch
    ):
        # checked before a stream is built
        built = self.count_streams(monkeypatch)
        with pytest.raises(ValueError, match=message):
            block_tallies([predict(QM, [ZERO] * len(seeds))], seeds, events)
        assert built == []

    def test_laws_of_two_classes_are_rejected_before_any_draw(self, monkeypatch):
        # one call accepts the events of one class, the one its laws record
        for name in ("_seed_words", "_pieces", "_sample_streams"):
            monkeypatch.setattr(montecarlo, name, lambda *args, name=name: pytest.fail(name))
        laws = [predict(QM, [ZERO], Subensemble.SHORT), predict(QM, [ZERO])]
        with pytest.raises(ValueError, match=r"more than one arrival class \(L, l\)"):
            block_tallies(laws, [0], 200_000)

    # laws that no sampler can draw from, each checked before any seed word
    # is hashed; alpha = 0.3 gives side 1 unequal singles
    TILTED = predict(QM, [PhaseSettings(0.3)])
    PAIR = predict(QM, [ZERO, ZERO])
    UNSAMPLEABLE = [
        pytest.param(
            Law(np.array([[0.5] * 4]), None, None, LONG), [0], "joint probabilities must sum to 1",
            id="joint-sums-to-2",
        ),
        pytest.param(Law(None, None, None, LONG), [0], "must define", id="nothing-defined"),
        pytest.param(Law(np.full(4, 0.25), None, None, LONG), [0], "2-D", id="joint-1-d"),
        pytest.param(
            TILTED._replace(side1=TILTED.side1[:, ::-1]), [0], "joint law's marginal",
            id="side1-swapped",
        ),
        pytest.param(
            PAIR._replace(side1=PAIR.side1[:1]), [0, 1], "one row count", id="side1-one-row"
        ),
        pytest.param(TILTED._replace(target="L"), [0], "not an arrival-time class", id="target-str"),
    ]

    @pytest.mark.parametrize("law, seeds, message", UNSAMPLEABLE)
    def test_a_law_it_cannot_sample_is_rejected_before_any_draw(
        self, law, seeds, message, monkeypatch
    ):
        for name in ("_seed_words", "_pieces", "_sample_streams"):
            monkeypatch.setattr(montecarlo, name, lambda *args, name=name: pytest.fail(name))
        with pytest.raises(ValueError, match=message):
            block_tallies([law], seeds, 10_000)

    def test_a_short_law_samples_the_short_class(self):
        # the class comes from the law: no call can sample it for another
        tallies = block_tallies([predict(QM, [ZERO], Subensemble.SHORT)], [0], 200_000)
        assert summed(tallies) == run(QM, ZERO, 200_000, 0, Subensemble.SHORT)[0]
        assert summed(tallies) != run(QM, ZERO, 200_000, 0)[0]


def test_the_benchmark_tracer_reads_the_records():
    # the benchmark's tracer counts the blocks, events and accepted events
    # of every block_tallies call from its result; its file is loaded here
    # as it stands, so a change of the record type fails this test too
    path = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    settings, seeds = scan_points("alpha", [0.0, 0.4, 2.0], ZERO, 3)
    laws = [predict(QM, settings), predict(RNL, settings)]
    tallies = block_tallies(laws, seeds, BLOCK_SIZE + 17)
    counts = Counter()
    traced._count_blocks(counts, tallies)
    # 2 laws x 3 points x 2 blocks
    assert counts["blocks"] == len(tallies) == 12
    assert counts["events"] == 2 * 3 * (BLOCK_SIZE + 17)
    assert counts["accepted"] == tallies.r.sum() > 0


def test_a_sampler_call_draws_into_one_block_of_memory(monkeypatch):
    # each stream's outcome draws overwrite its class draws once they are
    # masked, so a call's draws take one block of float64 values (8 bytes an
    # event); the bound adds the mask and scratch buffers (2 bytes an event),
    # the buffer numpy's iterator fills from a multi-row chunk's threshold
    # column (up to 8,192 float64 values) and slack, and stays below the two
    # blocks that separate class and outcome rows take.  numpy reports its
    # data buffers to tracemalloc; an untraced first call imports
    # numpy.random.
    peaks = []
    sample_streams = montecarlo._sample_streams

    def traced(*args):
        sample_streams(*args)
        tracemalloc.start()
        try:
            return sample_streams(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(montecarlo, "_sample_streams", traced)
    monkeypatch.setattr(montecarlo, "_pieces", lambda *args: [])
    block_tallies([law_of(QM, ZERO)], [5], 3 * BLOCK_SIZE + 17)
    # scan-shaped: 70 one-block streams of 1,000 events under two laws
    settings, seeds = scan_points("alpha", np.linspace(0.0, 3.0, 70), ZERO, 3)
    block_tallies([predict(QM, settings), predict(RNL, settings)], seeds, 1000)
    assert len(peaks) == 2
    assert max(peaks) < BLOCK_SIZE * 10 + 2 * 2**16 < 2 * BLOCK_SIZE * 8, peaks


def accepted_counts(u_class, u_outcome, lo, hi, cumulative):
    """``_accepted_counts`` of one row of draws under one law, masked by
    ``_class_mask`` as the sampler masks a stream, with fresh mask and scratch
    buffers."""
    edges = np.array([[cumulative[:-1]]])
    mask, scratch = (np.empty((1, len(u_class)), dtype=bool) for _ in range(2))
    _class_mask(u_class[None], (lo, hi), mask, scratch)
    [[counts]] = _accepted_counts(u_outcome[None], mask, edges, scratch)
    return counts


class TestThresholdCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=4,
            max_size=4,
        ).filter(lambda w: sum(w) > 0),
        uniforms=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=200
        ),
    )
    def test_equals_searchsorted_then_bincount(self, weights, uniforms):
        cum = np.cumsum(np.array(weights) / sum(weights))
        cum[-1] = 1.0
        # uniforms landing exactly on an edge must go to the category above it
        u = np.array(uniforms + [c for c in cum.tolist() if c < 1.0], dtype=float)
        expected = np.bincount(np.searchsorted(cum, u, side="right"), minlength=4)
        assert accepted_counts(np.zeros(len(u)), u, 0.0, 1.0, cum) == tuple(expected.tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=4,
            max_size=4,
        ).filter(lambda w: sum(w) > 0),
        accept=st.sampled_from(list(_CLASS_INTERVALS.values())),
        draws=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            max_size=200,
        ),
    )
    def test_masked_counts_equal_the_gather_reference(self, weights, accept, draws):
        # a leading zero weight gives cum[0] == 0.0, an inner one a tied edge
        cum = np.cumsum(np.array(weights) / sum(weights))
        cum[-1] = 1.0
        lo, hi = accept
        class_values = [v for v in (lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0))
                        if 0.0 <= v < 1.0]
        outcome_values = [c for c in cum.tolist() if c < 1.0] + [0.0]
        # every class value meets every outcome value, edges included
        pairs = draws + [(c, o) for c in class_values for o in outcome_values]
        u_class = np.array([c for c, _ in pairs], dtype=float)
        u_out = np.array([o for _, o in pairs], dtype=float)
        expected = np.bincount(
            np.searchsorted(cum, u_out[(u_class >= lo) & (u_class < hi)], side="right"),
            minlength=4,
        )
        assert accepted_counts(u_class, u_out, lo, hi, cum) == tuple(expected.tolist())

    @settings(max_examples=50, deadline=None)
    @given(
        accept=st.sampled_from(list(_CLASS_INTERVALS.values())),
        laws=st.integers(min_value=1, max_value=3),
        rows=st.integers(min_value=1, max_value=6),
        size=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_rows_are_counted_against_their_own_edges(
        self, accept, laws, rows, size, seed, data
    ):
        # a chunk counts each row of draws under each law with the call's
        # class interval and the law's outcome edges for that row, as if the
        # row were counted alone (one row compares with Python floats and is
        # counted flat, more rows with a column of thresholds and a sum
        # along the row axis)
        weights = data.draw(st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4)
            .filter(lambda w: sum(w) > 0),
            min_size=laws * rows,
            max_size=laws * rows,
        ))
        cum = np.cumsum(np.array(weights) / np.sum(weights, axis=1, keepdims=True), axis=1)
        edges = cum[:, :-1].reshape(laws, rows, 3)
        lo, hi = accept
        u = np.random.default_rng(seed).random((rows, 2 * size))
        mask, scratch = (np.empty((rows, size), dtype=bool) for _ in range(2))
        _class_mask(u[:, :size], (lo, hi), mask, scratch)
        together = _accepted_counts(u[:, size:], mask, edges, scratch)
        assert len(together) == laws
        for law_edges, law_counts in zip(edges, together):
            assert len(law_counts) == rows
            for row, row_edges, counts in zip(u, law_edges, law_counts):
                assert counts == accepted_counts(
                    row[:size], row[size:], lo, hi, [*row_edges, 1.0]
                )

    def test_a_row_of_one_full_block_counts_every_event(self):
        # a one-row chunk may hold BLOCK_SIZE events, all accepted: more than a
        # uint16 sum of the row's bytes can hold (block_tallies' class
        # intervals, at most 3/8 wide, never accept that many)
        u_outcome = np.full((1, BLOCK_SIZE), 0.9)
        mask = np.ones((1, BLOCK_SIZE), dtype=bool)
        scratch = np.empty_like(mask)
        edges = np.array([[[0.25, 0.5, 0.75]]])
        assert _accepted_counts(u_outcome, mask, edges, scratch) == [[(0, 0, 0, BLOCK_SIZE)]]


def product_reference(law: Law) -> list[list[float]]:
    """The sampled law of a model with no joint law, point by point in Python floats:
    the products of the two sides' singles in outcome order, an undefined side at 1/2."""
    points = len(law.side1 if law.side1 is not None else law.side2)
    side1, side2 = ([[0.5, 0.5]] * points if s is None else s.tolist() for s in (law.side1, law.side2))
    return [[p1 * p2 for p1 in s1 for p2 in s2] for s1, s2 in zip(side1, side2)]


class TestOutcomeDistribution:
    def test_qm_uses_the_superposed_joint_law(self):
        ph = PhaseSettings(0.9, -0.2, 1.4)
        law = predict(QM, [ph], Subensemble.LONG)
        assert np.array_equal(_sampled_law(law), law.joint)

    def test_rnl_is_a_product_of_its_singles(self):
        distribution = _sampled_law(predict(RNL, [ZERO], Subensemble.LONG))[0]
        assert distribution == pytest.approx(
            (5 / 12, 1 / 12, 5 / 12, 1 / 12), abs=1e-12
        )

    def test_causal_uniform_completion_of_the_undefined_side(self):
        ordering_one = _sampled_law(predict(CAUSAL_1, [ZERO], Subensemble.LONG))[0]
        assert ordering_one == pytest.approx(
            (5 / 12, 1 / 12, 5 / 12, 1 / 12), abs=1e-12
        )
        ordering_two = _sampled_law(predict(CAUSAL_2, [ZERO], Subensemble.LONG))[0]
        assert ordering_two == pytest.approx((0.25,) * 4, abs=1e-12)

    @pytest.mark.parametrize("model", [RNL, CAUSAL_1, CAUSAL_2])
    def test_product_law_equals_the_python_products(self, model):
        # the scan-fine alpha grid, as compare builds it, and the tied setting
        grid = [PhaseSettings(alpha=float(a)) for a in np.linspace(0.0, 2 * math.pi, 1001)]
        law = predict(model, grid + [TIED])
        assert _sampled_law(law).tolist() == product_reference(law)

    @pytest.mark.parametrize("model", [RNL, CAUSAL_1, CAUSAL_2])
    @pytest.mark.parametrize("target", [Subensemble.SHORT, Subensemble.SATELLITE_LONG])
    def test_causal_rules_reject_targets_other_than_difference_L(self, model, target):
        # the causal singles law is built from the difference-L class's paths
        with pytest.raises(ValueError, match="difference-L class only"):
            sample([model], [ZERO], [0], 10, target)

    def test_qm_rejects_satellite_targets(self):
        with pytest.raises(ValueError):
            sample([QM], [ZERO], [0], 10, Subensemble.SATELLITE_LONG)


class TestAcceptanceRate:
    four_sigma = 4.0 * math.sqrt(0.375 * 0.625 / 200_000)

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_three_eighths_of_events_survive_selection(self, model):
        r, rejected = run(model, ZERO, 200_000, 11)
        assert sum(r) / (sum(r) + rejected) == pytest.approx(0.375, abs=self.four_sigma)

    def test_weights_are_the_documented_constants(self):
        intervals = list(_CLASS_INTERVALS.values())
        assert tuple(hi - lo for lo, hi in intervals) == (0.125, 0.375, 0.375, 0.125)
        # laid end to end over [0, 1), each class once, in draw order
        assert [lo for lo, _ in intervals] == [0.0] + [hi for _, hi in intervals[:-1]]
        assert intervals[-1][1] == 1.0 and set(_CLASS_INTERVALS) == set(Subensemble)
        assert list(_CLASS_INTERVALS).index(Subensemble.LONG) == 1

    def test_short_class_can_be_targeted(self):
        r, rejected = run(QM, ZERO, 200_000, 3, Subensemble.SHORT)
        assert sum(r) / (sum(r) + rejected) == pytest.approx(0.375, abs=self.four_sigma)
        side1, _ = marginals(r, sum(r))
        assert side1[0] == pytest.approx(5 / 6, abs=0.01)


class TestEstimator:
    def test_counter_asymmetry_and_binomial_error(self):
        value, std_error = estimate_E((10, 20, 30, 40))
        assert value == pytest.approx((10 + 20 - 30 - 40) / 100)
        p = 30 / 100
        assert std_error == pytest.approx(2 * math.sqrt(p * (1 - p) / 100))

    def test_single_count_edge_case(self):
        # all events on one side-1 detector: the z = 1 Wilson score
        # half-width on the E scale, 1/(n+1), not a zero error
        assert estimate_E((1, 0, 0, 0)) == (1.0, 0.5)
        assert estimate_E((0, 0, 3, 1)) == (-1.0, 1 / 5)

    def test_empty_tally_is_rejected(self):
        with pytest.raises(ValueError):
            estimate_E((0, 0, 0, 0))
        with pytest.raises(ValueError):
            estimate_E([(1, 0, 0, 0), (0, 0, 0, 0)])

    def test_qm_run_at_aligned_phases_reaches_minus_two_thirds(self):
        r, rejected = run(QM, ZERO, 1_000_000, 42)
        value, _ = estimate_E(r)
        # side-1 plus is the rarer outcome here, so the signed value is negative
        assert value == pytest.approx(-2 / 3, abs=0.01)
        row = _run_columns(
            "simulate", QM, law_of(QM, ZERO), np.array([r]), [ZERO], 1_000_000, [42]
        )
        assert abs(value) == pytest.approx(row["e_analytic_qm"][0], abs=0.01)
        # the dominant counter holds 3/4 of the accepted events
        assert r[OUTCOMES.index(Outcome.MINUS_PLUS)] / sum(r) == pytest.approx(0.75, abs=0.003)
        assert sum(r) / (sum(r) + rejected) == pytest.approx(0.375, abs=0.002)

    def test_rnl_run_is_consistent_with_zero(self):
        r, _ = run(RNL, ZERO, 1_000_000, 42)
        value, std_error = estimate_E(r)
        assert abs(value) <= 4.0 * std_error

    @pytest.mark.parametrize(
        "model, phases",
        [(QM, ZERO), (QM, PhaseSettings(0.9, -0.2, 1.4)), (RNL, PhaseSettings(0.3, 1.0, -0.5))],
    )
    def test_std_error_is_calibrated(self, model, phases):
        # the error bar is a one-sigma bar: over 400 seeds, |z| < 1 against
        # the signed law for 68.27% of the runs, within 5 binomial sigma
        runs, coverage = 400, 0.6827
        side1 = predict(model, [phases]).side1
        signed = side1[0, 0] - side1[0, 1]
        # run k from seed k, all in one sampler call
        _, [counts] = sample([model], [phases] * runs, list(range(runs)), 10_000)
        value, std_error = estimate_E(counts)
        inside = int(np.count_nonzero(np.abs(value - signed) < std_error))
        bound = 5 * math.sqrt(coverage * (1 - coverage) / runs)
        assert abs(inside / runs - coverage) <= bound, f"share {inside / runs}"

    @settings(max_examples=50)
    @given(counts=st.tuples(*[st.integers(min_value=0, max_value=1000)] * 4))
    def test_value_stays_in_the_unit_interval(self, counts):
        if sum(counts) == 0:
            return
        value, std_error = estimate_E(counts)
        assert -1.0 <= value <= 1.0
        assert std_error > 0.0


class TestStatisticalConsistency:
    """Estimated marginals track the analytic singles for every model."""

    # about 1e5 accepted events per point
    EVENTS = 266_667

    def _phases(self, k: int) -> PhaseSettings:
        return PhaseSettings(
            alpha=2 * math.pi * k / 12.0, beta=0.9 + 0.5 * k, gamma=0.4 - 0.3 * k
        )

    def _sigma(self, p: float, n: int) -> float:
        return math.sqrt(max(p * (1 - p), 1e-12) / n)

    @pytest.mark.parametrize(
        "model, seed", [(QM, 101), (RNL, 202), (CAUSAL_1, 303), (CAUSAL_2, 404)]
    )
    def test_marginals_within_four_sigma_on_a_twelve_point_grid(self, model, seed):
        for k in range(12):
            ph = self._phases(k)
            r, _ = run(model, ph, self.EVENTS, seed + k)
            n = sum(r)
            side1, side2 = marginals(r, n)

            if model.kind is TheoryKind.QM:
                joint = predict(QM, [ph], Subensemble.LONG).joint[0]
                side1_law, side2_law = marginals(joint)
                expected1 = side1_law[0]
                expected2 = side2_law[0]
            else:
                expected1 = 0.5 if model is not CAUSAL_1 else None
                expected2 = (
                    causal_singles_side2_closed_form(ph)[0]
                    if model is not CAUSAL_2
                    else None
                )

            if expected1 is not None:
                assert abs(side1[0] - expected1) <= 4 * self._sigma(expected1, n)
            if expected2 is not None:
                assert abs(side2[0] - expected2) <= 4 * self._sigma(expected2, n)

    def test_contrast_between_the_two_theories(self):
        qm_value, qm_error = estimate_E(run(QM, ZERO, 1_000_000, 77)[0])
        rnl_value, rnl_error = estimate_E(run(RNL, ZERO, 1_000_000, 78)[0])
        contrast = abs(qm_value) - abs(rnl_value)
        combined = 4.0 * math.hypot(qm_error, rnl_error)
        assert contrast == pytest.approx(2 / 3, abs=combined)


def chi2_survival_3dof(x: float) -> float:
    """P(X > x) for a chi-square variable with 3 degrees of freedom."""
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


class TestJointLaw:
    """Pearson chi-square (3 dof) of the four counters against the sampled law,
    so the correlations between the two sides are tested, not only the singles."""

    GRID = [
        PhaseSettings(0.0, 0.0, 0.0),
        PhaseSettings(0.5, -0.5, 1.0),
        PhaseSettings(1.3, 0.4, -0.9),
        PhaseSettings(2.2, 1.7, 0.3),
        PhaseSettings(-1.1, 2.9, 2.0),
        PhaseSettings(3.0, -2.4, -1.6),
    ]

    def test_survival_function_matches_tabulated_quantiles(self):
        assert chi2_survival_3dof(0.0) == pytest.approx(1.0)
        assert chi2_survival_3dof(7.8147) == pytest.approx(0.05, abs=1e-5)
        assert chi2_survival_3dof(11.3449) == pytest.approx(0.01, abs=1e-6)

    @pytest.mark.parametrize("model, seed", [(QM, 505), (RNL, 606)])
    def test_counters_follow_the_outcome_distribution(self, model, seed):
        for k, ph in enumerate(self.GRID):
            r, _ = run(model, ph, 200_000, seed + k)
            law = _sampled_law(predict(model, [ph], Subensemble.LONG))[0].tolist()
            expected = [sum(r) * p for p in law]
            chi2 = sum((n - e) ** 2 / e for n, e in zip(r, expected))
            assert chi2_survival_3dof(chi2) >= 1e-4, f"point {k}: chi2 = {chi2:.2f}"


def wilson_hilferty_z(chi2: float, dof: int) -> float:
    """The standard normal deviate of a chi-square statistic of ``dof`` degrees
    of freedom, by the cube-root transform of Wilson and Hilferty (1931)."""
    scale = 2 / (9 * dof)
    return ((chi2 / dof) ** (1 / 3) - (1 - scale)) / math.sqrt(scale)


def calibration_grid() -> list[PhaseSettings]:
    """200 phase points from one fixed generator, and 16 where a QM joint cell
    nearly vanishes: 8 points of the pi/3 lattice whose three unit phasors of
    one cell lie 120 degrees apart (each outcome cell vanishes at two of them,
    in either central class), and the same 8 with alpha moved by 0.1, where
    that cell holds 8.3e-4 of the law, about 16 of 18,750 accepted events."""
    random_points = np.random.default_rng(1931).uniform(-math.pi, math.pi, (200, 3))
    lattice = [(1, 2), (1, 5), (2, 1), (2, 4), (4, 2), (4, 5), (5, 1), (5, 4)]
    vanishing = [(0.0, beta * math.pi / 3, gamma * math.pi / 3) for beta, gamma in lattice]
    nudged = [(alpha + 0.1, beta, gamma) for alpha, beta, gamma in vanishing]
    return [PhaseSettings(*point) for point in [*random_points.tolist(), *vanishing, *nudged]]


class TestCalibration:
    """One Pearson chi-square of the four counters against the law the sampler
    reads, summed over a whole phase grid, turned into a z by Wilson-Hilferty.

    A per-point test misses a small bias that every point shares; the sum over
    216 points of 50,000 events sees it: moving one outcome threshold by
    0.0025 gives every case z > 4.  A cell whose probability is below 1e-12
    must stay empty and counts no degree of freedom.  The seeds were fixed
    before the first run.
    """

    EVENTS = 50_000
    EMPTY = 1e-12

    @pytest.mark.parametrize(
        "model, target, seed",
        [
            (QM, Subensemble.LONG, 1),
            (QM, Subensemble.SHORT, 2),
            (CAUSAL_1, Subensemble.LONG, 3),
            (CAUSAL_2, Subensemble.LONG, 4),
            (RNL, Subensemble.LONG, 5),
        ],
    )
    def test_the_summed_chi_square_is_calibrated(self, model, target, seed):
        grid = calibration_grid()
        [law], [counts] = sample([model], grid, point_seeds(seed, len(grid)), self.EVENTS, target)
        p = _sampled_law(law)
        expected = counts.sum(axis=1, keepdims=True) * p
        empty = p < self.EMPTY
        assert (counts[empty] == 0).all()
        if model is QM:
            assert empty[200:208].any(axis=1).all() and not empty[208:].any()
        kept = ~empty
        chi2 = float((((counts - expected) ** 2)[kept] / expected[kept]).sum())
        dof = int(kept.sum()) - len(grid)
        z = wilson_hilferty_z(chi2, dof)
        assert abs(z) < 4, f"chi2 = {chi2:.1f} on {dof} dof, z = {z:.2f}"


# seeds and spawn keys at the ends of their 32-bit words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 5, 2**64 - 1]
EDGE_KEYS = [0, 1, 2**32 - 1]


class TestSeeding:
    """Stream states and point seeds, hashed for a whole grid at once, are
    numpy's ``SeedSequence`` construction bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64 - 1),
                st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, 2**32 - 1)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example(pairs=[(seed, key) for seed in EDGE_SEEDS for key in EDGE_KEYS])
    def test_states_and_point_seeds_equal_numpys(self, pairs):
        seeds, keys = zip(*pairs)
        states = montecarlo._seed_words(seeds, keys, 4).tolist()
        point_seeds = montecarlo._seed_words(seeds, keys, 1)[:, 0].tolist()
        for (seed, key), words, point_seed in zip(pairs, states, point_seeds):
            sequence = np.random.SeedSequence(seed, spawn_key=(key,))
            assert words == sequence.generate_state(4, np.uint64).tolist()
            assert point_seed == int(sequence.generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_point_seeds_equal_numpys(self, seed):
        assert point_seeds(seed, 7) == [
            int(np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1, np.uint64)[0])
            for k in range(7)
        ]
        assert point_seeds(seed, 0) == []

    @pytest.mark.parametrize("key", [2**32, 2**32 + 1, 2**70, -1])
    def test_a_key_outside_32_bits_is_rejected(self, key):
        # numpy would hash such a key as two words (or reject a negative one);
        # the one-pass hash takes one word and never falls back to numpy
        with pytest.raises(ValueError, match=r"spawn key must be below 2\*\*32"):
            montecarlo._seed_words([0, 1], [0, key], 4)

    def test_block_2_to_the_32_is_rejected_before_any_draw(self, monkeypatch):
        # 2**48 events per seed fill blocks 0 to 2**32 - 1; one more event
        # would need block key 2**32
        monkeypatch.setattr(montecarlo, "_sample_streams", lambda *args: pytest.fail("drawn"))
        built = TestSharedStreams.count_streams(monkeypatch)
        with pytest.raises(ValueError, match=r"at most 2\*\*48"):
            sample([QM], [ZERO], [0], BLOCK_SIZE * 2**32 + 1)
        with pytest.raises(ValueError, match=r"at most 2\*\*48"):
            block_tallies([law_of(QM, ZERO)], [0], BLOCK_SIZE * 2**32 + 1)
        assert built == []


class TestScan:
    GRID = [0.0, math.pi / 2, math.pi]

    def test_analytic_side1_follows_the_fringe(self):
        [law], _ = sample([QM], *scan_points("alpha", self.GRID, ZERO, 9), 20_000)
        assert law.side1[:, 0].tolist() == pytest.approx([1 / 6, 0.5, 5 / 6], abs=1e-12)

    def test_causal_side1_is_flat(self):
        [law], _ = sample([CAUSAL_2], *scan_points("alpha", self.GRID, ZERO, 9), 20_000)
        assert law.side1[:, 0].tolist() == [0.5, 0.5, 0.5]
        assert law.side2 is None

    def test_single_point_grid(self):
        [law], counts = sample([RNL], *scan_points("beta", [0.25], ZERO, 4), 5_000)
        assert len(law.side1) == 1 and counts.shape == (1, 1, len(OUTCOMES))

    def test_each_point_is_replayable_from_its_provenance(self):
        settings, seeds = scan_points("gamma", self.GRID, ZERO, 123)
        _, [counts] = sample([QM], settings, seeds, 30_000)
        for phases, seed, r in zip(settings, seeds, counts.tolist()):
            _, replayed = sample([QM], [phases], [seed], 30_000)
            assert replayed.tolist() == [[r]]

    def test_point_seeds_are_stable(self):
        assert point_seeds(9, 1) == [5941392204501240012]
        first, second = point_seeds(9, 2)
        assert first == 5941392204501240012 and second != first

    @pytest.mark.parametrize(
        "seed, points, message",
        [(2**64, 1, "unsigned 64-bit"), (2**70, 1, "unsigned 64-bit"), (-1, 1, "unsigned 64-bit"),
         (1.0, 1, "must be an int"), (True, 1, "must be an int"),
         (0, True, "must be an int"), (0, 1.0, "must be an int"),
         (0, -1, r"from 0 to 2\*\*32"), (0, 2**32 + 1, r"from 0 to 2\*\*32")],
    )
    def test_point_seed_inputs_are_checked_before_any_array(
        self, seed, points, message, monkeypatch
    ):
        # numpy would take 2**64 and 2**70 as seeds, and True as one point;
        # 2**32 + 1 points would first ask for two arrays of 32 GiB
        for name in ("full", "arange"):
            monkeypatch.setattr(np, name, lambda *args, **kwargs: pytest.fail("allocated"))
        monkeypatch.setattr(montecarlo, "_seed_words", lambda *args: pytest.fail("hashed"))
        with pytest.raises(ValueError, match=message):
            point_seeds(seed, points)

    @pytest.mark.parametrize("model", [QM, RNL, CAUSAL_1, CAUSAL_2])
    def test_grid_points_equal_runs_made_point_by_point(self, model):
        # the analytic law comes from one grid call; row k of it must equal
        # the law of point k predicted alone, and the point's counters its
        # run made alone
        base = PhaseSettings(0.0, math.pi / 3, 2 * math.pi / 3)  # TIED at alpha = 0
        grid = [0.0, 0.4, math.pi / 2, -2.9, 2 * math.pi]
        settings, seeds = scan_points("alpha", grid, base, 21)
        [law], [counts] = sample([model], settings, seeds, 500)
        for k, (phases, seed, r) in enumerate(zip(settings, seeds, counts.tolist())):
            row = law._replace(
                **{name: f[k : k + 1] for name, f in zip(Law._fields[:3], law) if f is not None}
            )
            assert_same_law(row, law_of(model, phases))
            assert tuple(r) == run(model, phases, 500, seed)[0]

    @pytest.mark.parametrize(
        "events, message",
        [(0, "at least 1"), (-5, "at least 1"), (True, "must be an int"), (2.5, "must be an int")],
    )
    def test_scan_event_count_is_checked_before_any_draw(self, events, message, monkeypatch):
        monkeypatch.setattr(montecarlo, "_sample_streams", lambda *args: pytest.fail("drawn"))
        with pytest.raises(ValueError, match=message):
            sample([QM, RNL], *scan_points("alpha", self.GRID, ZERO, 0), events)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "unsigned 64-bit"), (2**64, "unsigned 64-bit"), (2**70, "unsigned 64-bit"),
         (1.0, "must be an int"), (True, "must be an int")],
    )
    def test_point_seeds_are_range_checked_before_any_draw(self, seed, message, monkeypatch):
        # every seed is checked, not only the first
        monkeypatch.setattr(montecarlo, "_sample_streams", lambda *args: pytest.fail("drawn"))
        settings, [first, _, last] = scan_points("alpha", self.GRID, ZERO, 0)
        with pytest.raises(ValueError, match=message):
            sample([QM, RNL], settings, [first, seed, last], 100)


class TestValueValidation:
    def test_run_bounds(self):
        with pytest.raises(ValueError):
            sample([QM], [ZERO], [0], 0)
        with pytest.raises(ValueError):
            sample([QM], [ZERO], [-1], 10)
        with pytest.raises(ValueError):
            sample([QM], [ZERO], [2**64], 10)
        for events, seed in ((True, 0), (2.5, 0), (10.0, 0), (10, True), (10, 1.0)):
            with pytest.raises(ValueError, match="must be an int"):
                sample([QM], [ZERO], [seed], events)

    def test_a_target_outside_the_domain_fails_before_sampling(self, monkeypatch):
        # sample's predict call rejects the target before any block is drawn
        monkeypatch.setattr(montecarlo, "block_tallies", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match="difference-L class only"):
            sample([RNL], [ZERO], [0], 10, Subensemble.SHORT)
