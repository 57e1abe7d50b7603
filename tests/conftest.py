from datetime import datetime, timezone

import numpy as np
import pytest

from carbonsched import baselines, scheduler
from carbonsched.carbon import CarbonIntensitySeries
from carbonsched.ingest import ChargingSession
from carbonsched.timegrid import TimeGrid

UTC = timezone.utc
DAY_SLOTS = 288


@pytest.fixture
def day_grid():
    return TimeGrid(datetime(2021, 4, 1, tzinfo=UTC), 5, DAY_SLOTS)


@pytest.fixture
def highs_only(monkeypatch):
    """Every `scheduler.solve` goes to HiGHS: the screen declines."""
    monkeypatch.setattr(scheduler, "_screen", lambda lp: None)


@pytest.fixture
def highs_runs(monkeypatch):
    """A list that gets one entry per HiGHS run, `scheduler._run_highs`."""
    runs = []
    run = scheduler._run_highs

    def counting(lp):
        runs.append(lp)
        return run(lp)

    monkeypatch.setattr(scheduler, "_run_highs", counting)
    return runs


def make_grid(n_days: int, start=datetime(2021, 1, 1, tzinfo=UTC),
              slot_minutes: int = 5) -> TimeGrid:
    return TimeGrid(start, slot_minutes, n_days * (1440 // slot_minutes))


def make_session(sid="s0", t_arrival=0, t_depart=288, soc_arrival=0.2,
                 soc_target=0.6, capacity_kwh=5.0, soc_max=1.0,
                 power_max_kw=7.5, delta=0.9 * 5 / 60) -> ChargingSession:
    return ChargingSession(id=sid, t_arrival=t_arrival, t_depart=t_depart,
                           soc_arrival=soc_arrival, soc_target=soc_target,
                           capacity_kwh=capacity_kwh, soc_max=soc_max,
                           power_max_kw=power_max_kw, delta=delta)


def edf_schedule(sessions, config, carbon) -> scheduler.ScheduleResult:
    """The ScheduleResult of `baselines.earliest_deadline_first`'s power."""
    return scheduler.result_from_power(
        sessions, baselines.earliest_deadline_first(sessions, config, carbon),
        config, carbon)


def flexible_sessions(grid: TimeGrid, count: int, seed: int,
                      capacity_kwh: float = 5.0):
    """Morning arrivals with stays long enough to cover the midday
    intensity dip; small batteries so lambda in [0.05, 0.5] spans the
    charge/skip trade-off at realistic intensities."""
    rng = np.random.default_rng(seed)
    slots_per_day = 1440 // grid.slot_minutes
    n_days = grid.n_slots // slots_per_day
    out = []
    for i in range(count):
        day = int(rng.integers(0, max(n_days, 1)))
        arrive_h = float(np.clip(rng.normal(9.0, 1.2), 6.5, 11.0))
        stay_h = float(rng.uniform(4.5, 7.5))
        a = day * slots_per_day + int(np.ceil(arrive_h * 12))
        d = min(day * slots_per_day + int((arrive_h + stay_h) * 12), grid.n_slots)
        soc_arr = float(rng.uniform(0.2, 0.4))
        out.append(make_session(sid=f"flex-{i:03d}", t_arrival=a, t_depart=d,
                                soc_arrival=soc_arr,
                                soc_target=soc_arr + float(rng.uniform(0.2, 0.4)),
                                capacity_kwh=capacity_kwh))
    return out


def duck_curve(grid: TimeGrid, night=0.20, dip=0.15, peak_hour=13.0,
               width_hours=3.0, noise=0.0, seed=0) -> CarbonIntensitySeries:
    """Duck-curve intensity: `night` baseline with a Gaussian midday dip
    of depth `dip`, plus optional clipped Gaussian noise."""
    rng = np.random.default_rng(seed)
    timestamps = grid.timestamps()
    values = np.empty(grid.n_slots)
    for k, ts in enumerate(timestamps):
        h = ts.hour + ts.minute / 60.0
        values[k] = night - dip * np.exp(-((h - peak_hour) ** 2) / (2 * width_hours ** 2))
    if noise > 0:
        values = np.maximum(values + rng.normal(0, noise, size=grid.n_slots), 0.0)
    return CarbonIntensitySeries(tuple(timestamps), values)
