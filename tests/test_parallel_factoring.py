"""The rho stage of a scan's independent levels runs in forked workers.

The worker count is the size of the process's CPU affinity mask, so these
tests set it by monkeypatching `os.sched_getaffinity`.  Whatever the count,
and with no `os.fork` at all, a scan must report the same thing, and no
worker may outlive the call that forked it.
"""

import os
import re
import signal
import time

import pytest

from orbitprimes import InvariantError, RationalMap, galois, intplaces, zsigmondy
from orbitprimes.cli import main


class Stop(Exception):
    pass


def stop(signum, frame):
    raise Stop


@pytest.fixture(autouse=True)
def time_limit():
    """Every test here waits on forked workers: a hang fails it in 120 s."""
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def refuse_forks(monkeypatch):
    def refuse():
        raise AssertionError("this command must not fork")

    monkeypatch.setattr(os, "fork", refuse)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def scan(rmap_text, alpha, depth, budget, factor_cache=None):
    """A Q scan's square-free verdicts, every level's fields included."""
    report = zsigmondy.zsigmondy_report(RationalMap.parse(rmap_text), alpha, depth=depth,
                                        budget=budget, squarefree_depth=depth,
                                        factor_cache=factor_cache)
    levels = [(r.n, r.primitive_part, r.squarefree_witness, r.has_squarefree_primitive,
               r.squarefree_unresolved, r.factored) for r in report.records]
    return report, (levels, report.squarefree_zsigmondy_set, report.squarefree_unresolved)


# x^2 + 8 at 3, depth 8: levels 7 and 8 leave rho a leftover, and level 8 is
# unresolved at this budget; the towers of x^2 + 3 and x^2 - 3 to level 7
# leave two leftovers each.
SCAN = ("x^2+8", 3, 8, 3000)
TOWERS = ((3, 7), (-3, 7))


def test_a_scan_reports_the_same_on_one_and_two_workers(monkeypatch):
    use_cpus(monkeypatch, 1)
    forks = count_forks(monkeypatch)
    _, one = scan(*SCAN)
    towers_one = [galois.tower_report(a, level, budget=3000) for a, level in TOWERS]
    assert forks == []
    use_cpus(monkeypatch, 2)
    report, two = scan(*SCAN)
    towers_two = [galois.tower_report(a, level, budget=3000) for a, level in TOWERS]
    assert len(forks) == 1 + len(TOWERS)  # the caller is the second worker
    assert two == one and towers_two == towers_one
    assert report.squarefree_unresolved == (8,)
    assert_no_child_left()


def test_cached_levels_skip_the_rho_batch(monkeypatch):
    use_cpus(monkeypatch, 2)
    _, expected = scan(*SCAN)
    first, _ = scan("x^2+8", 3, 7, 3000)  # factors level 7 and caches it
    cache = {r.primitive_part: r.factored for r in first.records if r.factored is not None}
    assert first.records[6].primitive_part in cache
    batches = []
    finish = zsigmondy.finish_factoring
    monkeypatch.setattr(zsigmondy, "finish_factoring",
                        lambda trials, budget: batches.append(trials) or finish(trials, budget))
    _, mixed = scan(*SCAN, factor_cache=cache)
    assert mixed == expected
    assert len(batches) == 1 and len(batches[0]) == 1  # level 8's; level 7 is cached


# n -> its trial division: leftover 1, proved-prime leftovers (9973, and
# 99460723 < 9973^2) and negative n
SETTLED_TRIALS = {
    2**5 * 3**2: (1, ((2, 5), (3, 2)), 1),
    7919 * 9973: (1, ((7919, 1),), 9973),
    -2 * 99460723: (-1, ((2, 1),), 99460723),
    -12: (-1, ((2, 2),), 3),
    -36: (-1, ((2, 2), (3, 2)), 1),
    -1: (-1, (), 1),
}


def test_leftovers_that_trial_division_settles_never_fork(monkeypatch):
    expected = [intplaces.factor(n) for n in SETTLED_TRIALS]
    use_cpus(monkeypatch, 2)
    refuse_forks(monkeypatch)
    assert intplaces.finish_factoring(list(SETTLED_TRIALS.values()), 1000) == expected
    assert [intplaces.trial_division(n) for n in SETTLED_TRIALS] == list(SETTLED_TRIALS.values())


def test_a_small_factor_call_reads_no_affinity_and_no_pool(monkeypatch):
    # a leftover below 9973^2 leaves the rho batch empty: no pool is set up
    def refuse(*args):
        raise AssertionError("a small factor call reached the rho pool")

    monkeypatch.setattr(os, "sched_getaffinity", refuse)
    monkeypatch.setattr(intplaces, "_parallel_map", refuse)
    for n in (1, -36, 9973, 99460723, 2**40 * 9967):
        assert intplaces.factor(n).is_complete


def test_without_fork_a_scan_runs_in_sequence(monkeypatch):
    use_cpus(monkeypatch, 2)
    _, expected = scan(*SCAN)
    monkeypatch.delattr(os, "fork")
    _, alone = scan(*SCAN)
    assert alone == expected
    assert galois.tower_report(3, 7, budget=3000)[-1].status == "certified"


def test_results_come_back_in_item_order(monkeypatch):
    use_cpus(monkeypatch, 2)
    items = [5, 90, 3, 41, 41, 7, 200, 1]
    assert intplaces._parallel_map(lambda x: (x, x * x), items) == [(x, x * x) for x in items]
    assert_no_child_left()


def test_a_task_failing_in_a_worker_raises_and_leaves_no_worker(monkeypatch, capfd):
    use_cpus(monkeypatch, 2)

    def task(x):
        if intplaces._in_worker:
            raise ValueError(f"no task {x}")
        time.sleep(1)  # so the worker takes a task, whichever it is
        return x

    with pytest.raises(InvariantError, match=r"exit codes \[1\]"):
        intplaces._parallel_map(task, [1, 2])
    assert re.search(r"ValueError: no task [12]", capfd.readouterr().err)
    assert_no_child_left()


def test_a_task_failing_in_the_caller_raises_as_in_sequence(monkeypatch):
    use_cpus(monkeypatch, 2)

    def task(x):
        if not intplaces._in_worker:
            raise ValueError(f"no task {x}")
        time.sleep(60)

    with pytest.raises(ValueError, match=r"^no task [12]$"):  # whichever task it took
        intplaces._parallel_map(task, [1, 2])
    assert_no_child_left()


def test_an_interrupted_parent_kills_and_reaps_its_workers(monkeypatch):
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    with pytest.raises(Stop):
        intplaces._parallel_map(time.sleep, [60, 60])
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_workers_do_not_fork_again(monkeypatch):
    use_cpus(monkeypatch, 2)

    def task(x):
        if intplaces._in_worker:
            os.fork = None  # in this worker only: a nested fork would raise
        else:
            time.sleep(1)  # so the worker takes a task, whichever it is
        return intplaces._parallel_map(abs, [x, -x])

    assert intplaces._parallel_map(task, [1, 2]) == [[1, 1], [2, 2]]
    assert_no_child_left()


@pytest.mark.parametrize("argv", [
    ("orbit", "--map", "x^2+1", "--alpha", "1", "--max-n", "6"),
    ("classify", "--map", "x^2+1", "--alpha", "1"),
    ("roth-scan", "--F", "x^3-2", "--height-bound", "8"),
    ("abc", "--a", "1", "--b", "8", "--budget", "20000"),
    ("zsigmondy", "--map", "x^2+8", "--alpha", "3", "--max-n", "7", "--squarefree-max-n", "7",
     "--budget", "3000"),
], ids=["orbit", "classify", "roth-scan", "abc", "zsigmondy-one-leftover"])
def test_commands_without_two_leftovers_never_fork(monkeypatch, capsys, argv):
    use_cpus(monkeypatch, 2)
    refuse_forks(monkeypatch)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out


# (n, budget) -> (factor, steps used), pinned so that any change to the rho
# schedule shows.  The budget is checked only when the cycle length doubles,
# so a call may spend more than it was given: the last two overrun.
BRENT_SPLITS = [
    (1000003 * 1000033, 10**6, 1000033, 1022),
    (93604463 * 2200367677, 10**6, 93604463, 13950),
    ((2**67 - 1), 10**5, 193707721, 13822),
    (1000003 * 1000033, 100, None, 126),
    (80852481648220942189071096236914129511269 * 2200367677, 10_000, None, 16382),
]


@pytest.mark.parametrize("n, budget, found, used", BRENT_SPLITS)
def test_brent_split_schedule_is_pinned(n, budget, found, used):
    assert intplaces._brent_split(n, budget) == (found, used)
