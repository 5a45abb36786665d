"""Fixtures shared by the Monte Carlo and rate-scan tests."""

import threading

import pytest

from gkplat import channel_sim, concatenated


class CountingThread(threading.Thread):
    """threading.Thread that counts how many threads were built."""

    built = 0

    def __init__(self, *args, **kwargs):
        CountingThread.built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def on_cpus(monkeypatch):
    """on_cpus(cpus, call) runs call() with ``cpus`` usable CPUs for the
    worker streams; returns its result and the number of helper threads
    it built."""
    monkeypatch.setattr(threading, "Thread", CountingThread)

    def run(cpus, call):
        monkeypatch.setattr(channel_sim, "_usable_cpus", lambda: cpus)
        CountingThread.built = 0
        return call(), CountingThread.built
    return run


@pytest.fixture
def scan_evaluations(monkeypatch):
    """List that receives the length of every d array that scan_dimensions
    hands to its rate, for both optimizers."""
    evaluated, scan = [], concatenated.scan_dimensions

    def counting(rate, d_max, upper):
        return scan(lambda ds: evaluated.append(len(ds)) or rate(ds), d_max, upper)
    monkeypatch.setattr(concatenated, "scan_dimensions", counting)
    return evaluated
