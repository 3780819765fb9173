import functools
import os
import subprocess
import sys
from fractions import Fraction
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


# The exact c0, Q and V from cot(pi k / b) in 200-bit fixed point.
_FIXED_BITS = 200


@functools.lru_cache(maxsize=None)
def _fixed_cots(b):
    # floor(cot(pi k / b) 2^200) for k = 1..(b-1)//2 as a (16-bit limbs, k) array.
    # cos and sin of k pi / b follow x_(k+1) = 2 cos(pi/b) x_k - x_(k-1) from
    # mpmath's values at k = 1; each step truncates by under 2^-200, the
    # recurrence grows those errors at most like k^2, so a cot is off by under
    # b^3 2^-200 (6e-43 at b = 10^6), and the sums by under b times that
    p, n = _FIXED_BITS, (b - 1) // 2
    with mpmath.workprec(p + 64):
        c = int(mpmath.nint(mpmath.cospi(mpmath.mpf(1) / b) * 2**p))
        s = int(mpmath.nint(mpmath.sinpi(mpmath.mpf(1) / b) * 2**p))
    width = (p + b.bit_length()) // 64 * 8 + 8  # bytes of each cot, with its sign bit free
    buf, c2 = bytearray(), 2 * c
    c_prev, s_prev = 1 << p, 0
    for _ in range(n):
        buf += ((c << p) // s).to_bytes(width, "little")
        c_prev, c = c, ((c2 * c) >> p) - c_prev
        s_prev, s = s, ((c2 * s) >> p) - s_prev
    return np.frombuffer(bytes(buf), dtype="<u2").reshape(n, width // 2).T.copy()


def _fixed_dot(w, b):
    # sum_k w_k floor(cot(pi k/b) 2^200) exactly: |w_k| < 2^31, so every int64
    # limb dot over a block of 2^16 values of k stays below 2^63
    limbs, total = _fixed_cots(b), 0
    for j in range(0, len(w), 1 << 16):
        dots = limbs[:, j : j + (1 << 16)].astype(np.int64) @ w[j : j + (1 << 16)]
        total += sum(int(x) << (16 * i) for i, x in enumerate(dots.tolist()))
    return total


def exact_sums(r, b, rows=("c0", "q", "v")):
    """The sums `rows` at r/b as Fractions, exact to far below float rounding.

    They are the paired sums of `core.direct_sums` with exact cotangents:
    c0 = sum_k ((b - 2 m_k)/b) cot(pi k/b), m_k = k rbar mod b, and likewise
    Q and V, over k < b/2.  Needs b < 2^31.
    """
    k = np.arange(1, (b - 1) // 2 + 1, dtype=np.int64)
    m = k * pow(r, -1, b) % b
    weights = {"c0": (b - 2 * m, b), "q": (2 * (m * r // b) - r + 1, 1), "v": (2 * (k * r % b) - b, b)}
    return tuple(Fraction(_fixed_dot(weights[row][0], b), weights[row][1] << _FIXED_BITS) for row in rows)


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
