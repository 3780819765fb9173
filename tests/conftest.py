import functools
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import settings

import cotsums
from cotsums import equidist, gseries

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=50)
settings.load_profile("suite")

SCAN_MODULI = (1009, 2003, 5003, 10007)


@functools.lru_cache(maxsize=None)
def mp_cot(p):
    # cot(pi k / p) for k = 0..p-1 in 30 digits; cospi is exactly 0 at k/p = 1/2
    with mpmath.workdps(30):
        half = [mpmath.cospi(mpmath.mpf(k) / p) / mpmath.sinpi(mpmath.mpf(k) / p)
                for k in range(1, p // 2 + 1)]
    return [mpmath.mpf(0)] + half + [-x for x in reversed(half[: (p - 1) // 2])]


@pytest.fixture(scope="session")
def emp_f14():
    # the reference distribution the scans are compared against
    return gseries.empirical_F(gseries.TruncatedGSeries(14), 100_000)


@pytest.fixture(scope="session")
def scan_reports(emp_f14):
    return {
        b: equidist.scan(
            equidist.ScanWindow(b, 0.6, 0.8),
            3,
            reference=emp_f14,
            deterministic=True,
        )
        for b in SCAN_MODULI
    }


@pytest.fixture(scope="session")
def hk14():
    return gseries.hk_table(6, gseries.TruncatedGSeries(14), 20011)


@pytest.fixture(scope="session")
def l2_pair():
    # both evaluators on the same randomly rotated 10^4-point grid
    u0 = np.random.default_rng(20260819).random()
    n = 10_000
    fs = gseries._f_offset_grid(n, u0, 20)
    gs = gseries._fourier_offset_grid(n, u0, 1 << 20)
    return fs, gs


@pytest.fixture
def child_env():
    # environment of a fresh interpreter that imports this same cotsums
    src = str(Path(cotsums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


# Linux carries a process's ru_maxrss across exec from the address space it
# replaces, so an interpreter spawned by this (large) test process starts at
# the test process's peak and a growth below it reads as 0.  A small
# interpreter in between spawns the measured one, whose peak starts near its own.
_SPAWN = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"


@pytest.fixture
def fresh_child(child_env):
    # stdout of `python -c script *args` in an interpreter whose ru_maxrss is its own
    def run(script, *args):
        argv = [sys.executable, "-c", _SPAWN, sys.executable, "-c", script, *args]
        return subprocess.run(argv, env=child_env, capture_output=True, check=True, text=True).stdout

    return run
