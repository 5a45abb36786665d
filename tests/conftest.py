"""Fixtures shared by the Monte Carlo and rate-scan tests."""

import threading

import pytest

from gkplat import channel_sim, dit_rates


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
    """List that receives every d that optimize_dit_rate hands to dit_rate,
    for both optimizers: its length counts the scalar rate evaluations."""
    evaluated, rate = [], dit_rates.dit_rate

    def counting(d, p, k):
        evaluated.append(d)
        return rate(d, p, k)
    monkeypatch.setattr(dit_rates, "dit_rate", counting)
    return evaluated
