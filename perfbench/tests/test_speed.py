"""Host-speed scaling: which probes a stretch of the run takes, what a
probe leaves out, and how latencies are scaled by them."""

import os
import subprocess
import sys

import pytest

from perfbench.phases import pooled_percentile, scaled_percentile
from perfbench.speed import MIN_PROBES, NOMINAL_S, HostSpeed, probe_once, slowdown


def _samples(probe_ms: list[float]) -> list[tuple[float, float]]:
    """One probe a second, at t = 0, 1, 2, ..., with the given times."""
    return [(float(at), ms / 1e3) for at, ms in enumerate(probe_ms)]


def test_slowdown_is_the_median_probe_inside_the_stretch_over_nominal():
    samples = _samples([NOMINAL_S * 1e3 * f for f in (1, 9, 2, 2, 2, 2, 2, 9, 1)])
    assert slowdown(samples, 1.5, 6.5) == pytest.approx(2.0)


def test_a_short_stretch_borrows_the_nearest_probes():
    samples = _samples([NOMINAL_S * 1e3 * f for f in (5, 5, 1, 1, 1, 1, 1, 5, 5)])
    # No probe ends inside [4.2, 4.4]; the five nearest are t = 2..6.
    assert slowdown(samples, 4.2, 4.4) == pytest.approx(1.0)
    # At the start of the run the nearest are the first five.
    assert slowdown(samples, -3.0, -2.0) == pytest.approx(1.0)
    assert MIN_PROBES == 5


def test_fewer_probes_than_needed_use_them_all():
    samples = _samples([NOMINAL_S * 1e3 * f for f in (1, 3)])
    assert slowdown(samples, 0.0, 0.0) == pytest.approx(2.0)


def test_no_probes_is_an_error():
    with pytest.raises(ValueError):
        slowdown([], 0.0, 1.0)


def test_host_speed_sorts_probes_from_two_threads():
    speed = HostSpeed()
    speed.samples.extend([(2.0, 3 * NOMINAL_S), (0.0, NOMINAL_S), (1.0, 2 * NOMINAL_S)])
    assert speed.slowdown(0.5, 1.5) == pytest.approx(2.0)


def test_a_probe_leaves_the_thread_free_to_use_every_cpu():
    cpus = frozenset(os.sched_getaffinity(0))
    assert probe_once(cpus) > 0
    assert frozenset(os.sched_getaffinity(0)) == cpus


def test_a_probe_leaves_out_waiting_behind_the_benchmarks_own_load():
    # Long probes (about 10 ms a CPU), so that a busy loop on the same CPU
    # takes turns with them and doubles their wall-clock time.
    cpus = frozenset(os.sched_getaffinity(0))
    quiet = min(probe_once(cpus, repeats=200) for _ in range(5))
    busy = [subprocess.Popen([sys.executable, "-c", "while True: pass"]) for _ in cpus]
    try:
        loaded = min(probe_once(cpus, repeats=200) for _ in range(5))
    finally:
        for process in busy:
            process.kill()
            process.wait()
    assert loaded < 1.5 * quiet


def test_latencies_are_scaled_by_their_rounds_slowdown_and_pooled():
    rounds = [[2.0, 2.0, 2.0], [1.0, 1.0]]
    assert pooled_percentile(rounds, 50) == 2.0
    # At half speed the first round's 2.0 reads 1.0 at the reference speed.
    assert scaled_percentile(rounds, [2.0, 1.0], 50) == 1.0
    assert scaled_percentile(rounds, [2.0, 1.0], 100) == 1.0
