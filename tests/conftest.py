import os
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from timelens import EscortPulse, GaussianJSA, LensConfig, grid

import oracles


@pytest.fixture
def exp_state() -> GaussianJSA:
    return GaussianJSA(
        omega1=oracles.OMEGA1,
        omegah=oracles.OMEGAH,
        sigma1=oracles.SIGMA1,
        sigmah=oracles.SIGMAH,
        rho=oracles.RHO_IN,
    )


@pytest.fixture
def exp_escort() -> EscortPulse:
    return EscortPulse(center=oracles.OMEGAE, sigma=oracles.SIGMAE, chirp=oracles.AE)


@pytest.fixture
def exp_lens(exp_escort) -> LensConfig:
    return LensConfig(signal_chirp=oracles.A1, escort=exp_escort)


@pytest.fixture
def set_workers(monkeypatch):
    """Make grid's block loops at or above the gate run on exactly the given number of threads."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(grid, "_MAX_WORKERS", count)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_count


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that gets the name of every thread started while the test runs."""
    starts = []
    start = threading.Thread.start

    def counted(self):
        starts.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts
