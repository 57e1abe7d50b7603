"""Benchmark workloads and their seeded inputs.

The benchmark generates every input from the run's seed and writes it to
CSV; the program only ever receives those files.

The seed draws the grid mix (and so the carbon signal the scheduler
prices) and, for the model workload, the load series. The sessions are
the same for every seed: they follow the distributions of
`ingest.synth_sessions`, drawn once by stratified sampling with
SESSIONS_SEED. Every seed then asks for the same decisions at different
prices, so the work per call is the same across seeds: online-perfect
makes 248 decisions per call for every seed, where seeded sessions gave
225 to 250, a spread that showed up in the timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from carbonsched import ingest
from carbonsched.timegrid import TimeGrid

SLOT_MINUTES = 5
SLOTS_PER_DAY = 1440 // SLOT_MINUTES


@dataclass(frozen=True)
class Workload:
    """One fixed input size and the way the program is driven over it.

    `cli_args` selects the policy of a CLI `simulate` call; None means
    the library path of the model-forecast online controller, which
    first fits the forecaster on `warmup_days` of history.
    """

    name: str
    days: int
    sessions_per_day: int
    lam: float
    power_cap_kw: float
    cli_args: tuple[str, ...] | None
    warmup_days: int = 0

    @property
    def n_sessions(self) -> int:
        return self.days * self.sessions_per_day

    @property
    def online(self) -> bool:
        return self.cli_args is None or "carbon-online" in self.cli_args


# lam = 15 keeps the carbon/delivery trade-off live for the default
# 50 kWh batteries; at lam <= 5 nothing is charged and the LPs are trivial.
# Why each workload (see README.md for the layer each one loads):
#   offline-month   a few large LPs, one per day; online and forecast idle.
#   online-perfect  many small LPs, one per pending slot; per-call overhead.
#   online-model    the same loop with forecast.rollout on every step; the
#                   library path, because CLI --online-forecast model fails
#                   on day 0 (no warm-up history).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="offline-month",
        days=28, sessions_per_day=60, lam=15.0, power_cap_kw=120.0,
        cli_args=("--policy", "carbon-offline")),
    Workload(
        name="online-perfect",
        days=2, sessions_per_day=20, lam=15.0, power_cap_kw=60.0,
        cli_args=("--policy", "carbon-online", "--online-forecast", "perfect")),
    Workload(
        name="online-model",
        days=1, sessions_per_day=20, lam=15.0, power_cap_kw=60.0,
        cli_args=None, warmup_days=56),
)}

PROBE_SESSIONS = 5
SESSIONS_SEED = 1


def _synth_load(timestamps, seed: int) -> np.ndarray:
    """Day-shaped system load in MW, the same shape the CLI synthesizes."""
    hours = np.array([ts.hour + ts.minute / 60.0 for ts in timestamps])
    rng = np.random.default_rng(seed)
    load = 24000.0 + 4000.0 * np.sin(2 * np.pi * (hours - 17.0) / 24.0) \
        + rng.normal(0, 150.0, size=len(timestamps))
    return np.maximum(load, 1.0)


def stratified_sessions(n_days: int, per_day: int, grid: TimeGrid,
                        seed: int) -> list[ingest.ChargingSession]:
    """`per_day` sessions on each of `n_days` days of `grid`.

    Arrival ~ N(9.5 h, 2.2 h) clipped to [0.25, 20] h, stay ~ lognormal
    with median 2 h and sigma 0.55 clipped to [0.5, 12] h, arrival SoC
    ~ U(0.2, 0.5) and requested gain ~ U(0.1, 0.4), as in
    `ingest.synth_sessions`. Each quantity takes the midpoint of each of
    `per_day` equal-probability strata once per day, in a seeded order.
    """
    rng = np.random.default_rng(seed)
    normal = NormalDist()
    slot = grid.slot_minutes

    def strata() -> np.ndarray:
        return (rng.permutation(per_day) + 0.5) / per_day

    out = []
    for day in range(n_days):
        arrive, stay, soc0, gain = strata(), strata(), strata(), strata()
        for j in range(per_day):
            arrive_h = min(max(9.5 + 2.2 * normal.inv_cdf(arrive[j]), 0.25), 20.0)
            stay_h = min(max(2.0 * math.exp(0.55 * normal.inv_cdf(stay[j])), 0.5), 12.0)
            t_arrival = min(day * SLOTS_PER_DAY + math.ceil(arrive_h * 60 / slot),
                            grid.n_slots - 1)
            t_depart = min(day * SLOTS_PER_DAY + math.floor((arrive_h + stay_h) * 60 / slot),
                           grid.n_slots)
            soc_arrival = 0.2 + 0.3 * float(soc0[j])
            out.append(ingest.ChargingSession(
                id=f"d{day:03d}-{j:03d}",
                t_arrival=t_arrival,
                t_depart=max(t_depart, t_arrival + 1),
                soc_arrival=soc_arrival,
                soc_target=min(soc_arrival + 0.1 + 0.3 * float(gain[j]),
                               ingest.DEFAULT_SOC_MAX),
                delta=ingest.DEFAULT_EFFICIENCY * grid.slot_hours,
            ))
    return out


def write_inputs(w: Workload, seed: int, dest: Path) -> None:
    """Write the workload's CSV inputs for `seed` into `dest`.

    Sessions lie on the simulated span, which starts after the warm-up
    prefix. The model workload also gets a load series and a few day-0
    sessions for the CLI model-forecast probe.
    """
    mix = ingest.synth_grid_mix(w.warmup_days + w.days, seed=seed,
                                slot_minutes=SLOT_MINUTES)
    start = mix.timestamps[w.warmup_days * SLOTS_PER_DAY]
    sim_grid = TimeGrid(start, SLOT_MINUTES, w.days * SLOTS_PER_DAY)
    sessions = stratified_sessions(w.days, w.sessions_per_day, sim_grid, SESSIONS_SEED)
    with open(dest / "mix.csv", "w", newline="") as mf, \
            open(dest / "factors.csv", "w", newline="") as ff:
        ingest.write_grid_mix(mix, mf, ff)
    with open(dest / "sessions.csv", "w", newline="") as f:
        ingest.write_sessions(sessions, sim_grid, f)
    if not w.warmup_days:
        return
    load = _synth_load(mix.timestamps, seed + 2)
    with open(dest / "load.csv", "w", newline="") as f:
        f.write("timestamp,load_mw\n")
        for ts, v in zip(mix.timestamps, load):
            f.write(f"{ts.isoformat()},{float(v)!r}\n")
    day0 = TimeGrid(mix.timestamps[0], SLOT_MINUTES, SLOTS_PER_DAY)
    with open(dest / "probe_sessions.csv", "w", newline="") as f:
        ingest.write_sessions(
            stratified_sessions(1, PROBE_SESSIONS, day0, seed + 3), day0, f)
