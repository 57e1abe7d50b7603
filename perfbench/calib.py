"""Calibration workload: a fixed amount of work that gauges how fast the
machine runs this process at the moment.

On a shared host the speed a process gets drifts: the same work can
take twice as long at one moment as at another, in states that last
from seconds to minutes (see README.md, "Noise"). The child times this
workload just before and just after every timed call, in the same process, and scales
the call's times by REFERENCE_S over the mean of the two. The scaled
times are times at a fixed reference speed: the speed at which this
workload takes REFERENCE_S seconds.

The work is close to what the program does: dataclass copies in a
Python loop, sparse LP assembly with numpy and scipy.sparse, and small
HiGHS solves through scipy's `linprog`. Its inputs are fixed, so it does
the same work on every call, and it uses nothing from carbonsched, so a
change to the program does not change it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

REFERENCE_S = 0.2     # the calibration's time at the reference speed
STEPS = 24            # LPs per calibration
JOBS = 5              # charging jobs per LP
SLOTS = 96            # horizon of each LP


@dataclass(frozen=True)
class _Job:
    start: int
    end: int
    need: float
    rate: float


def _jobs(rng: np.random.Generator) -> list[_Job]:
    out = []
    for _ in range(JOBS):
        start = int(rng.integers(0, SLOTS // 2))
        end = int(rng.integers(start + SLOTS // 4, SLOTS + 1))
        out.append(_Job(start, end, float(rng.uniform(2.0, 6.0)), 7.0))
    return out


def _lp(jobs: list[_Job], price: np.ndarray):
    """min price·u  s.t.  each job's energy >= need, its running energy
    <= 1.5 need (every 8 slots), station power <= 14, 0 <= u <= rate
    inside the job's window and 0 outside it."""
    n, h = len(jobs), len(price)
    rows, cols, vals, rhs = [], [], [], []
    for i, job in enumerate(jobs):
        span = np.arange(job.start, job.end)
        rows.append(np.full(len(span), len(rhs)))
        cols.append(i * h + span)
        vals.append(np.full(len(span), -0.25))
        rhs.append(-job.need)
        for t in range(job.start, job.end, 8):
            upto = np.arange(job.start, t + 1)
            rows.append(np.full(len(upto), len(rhs)))
            cols.append(i * h + upto)
            vals.append(np.full(len(upto), 0.25))
            rhs.append(1.5 * job.need)
    for t in range(h):
        rows.append(np.full(n, len(rhs)))
        cols.append(np.arange(n) * h + t)
        vals.append(np.ones(n))
        rhs.append(14.0)
    a = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(rhs), n * h)).tocsr()
    bounds = np.zeros((n * h, 2))
    for i, job in enumerate(jobs):
        bounds[i * h + job.start:i * h + job.end, 1] = job.rate
    return np.tile(price, n), a, np.array(rhs), bounds


def run() -> float:
    """Seconds one calibration workload takes now."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    jobs = _jobs(rng)
    price = 200.0 + 50.0 * np.sin(np.arange(SLOTS) / 12.0) + rng.normal(0.0, 5.0, SLOTS)
    for step in range(STEPS):
        jobs = [replace(j, need=j.need * (1.0 + 0.01 * (step % 3))) for j in jobs]
        c, a, b, bounds = _lp(jobs, price)
        res = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"calibration LP failed: {res.message}")
    return time.perf_counter() - t0
