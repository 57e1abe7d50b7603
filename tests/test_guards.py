"""The library constructors' own guards. The CLI checks its flags first,
so a CLI run never reaches these: each is called here directly, and each
case pins the error's type and message."""

import re
from datetime import datetime, timezone

import numpy as np
import pytest

from carbonsched import errors, ingest
from carbonsched.carbon import CarbonIntensitySeries
from carbonsched.forecast import ForecastModel
from carbonsched.online import PerfectForecaster, run_online
from carbonsched.scheduler import StationConfig
from carbonsched.timegrid import TimeGrid

from conftest import make_grid, make_session

START = datetime(2021, 1, 1, tzinfo=timezone.utc)
STAMPS = tuple(make_grid(1).timestamps()[:2])
POSITIVE = "power_cap_kw and slot_hours must be positive and finite"


def _online_short_carbon():
    carbon = np.full(10, 0.3)
    run_online([make_session("a", 0, 10)], PerfectForecaster(carbon), carbon[:5],
               StationConfig(10.0, 5 / 60, 0.3, 12), 10)


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: StationConfig(0.0, 5 / 60, 0.3, 12), ValueError, POSITIVE,
                 id="station-cap"),
    pytest.param(lambda: StationConfig(10.0, np.inf, 0.3, 12), ValueError, POSITIVE,
                 id="station-slot-length"),
    pytest.param(lambda: StationConfig(10.0, 5 / 60, -0.1, 12), ValueError,
                 "lam must be finite and >= 0", id="station-lambda"),
    pytest.param(lambda: StationConfig(10.0, 5 / 60, 0.3, 0), ValueError,
                 "horizon_slots must be >= 1", id="station-horizon"),
    pytest.param(lambda: TimeGrid(START, 0, 12), ValueError,
                 "slot_minutes must be positive", id="grid-slot-length"),
    pytest.param(lambda: TimeGrid(START, 5, 0), ValueError,
                 "n_slots must be >= 1", id="grid-slot-count"),
    pytest.param(lambda: ForecastModel(np.zeros(8), np.zeros(8), np.ones(8)), ValueError,
                 "beta must have 9 entries (intercept + 8 features)", id="model-beta-shape"),
    pytest.param(lambda: ForecastModel(np.array([0.0] * 8 + [np.nan]), np.zeros(8),
                                       np.ones(8)), ValueError,
                 "non-finite coefficients", id="model-beta-non-finite"),
    pytest.param(lambda: ingest.GridMixSeries(STAMPS, ("gas",), np.ones((2, 2)),
                                              np.array([0.4])), ValueError,
                 "power matrix shape (2, 2) != (2, 1)", id="mix-power-shape"),
    pytest.param(lambda: ingest.GridMixSeries(STAMPS, ("gas",), np.ones((2, 1)),
                                              np.array([0.4, 0.3])), ValueError,
                 "factors shape (2,) != (1,)", id="mix-factors-shape"),
    pytest.param(lambda: ingest.GridMixSeries(STAMPS, ("gas",), np.ones((2, 1)),
                                              np.array([np.inf])), errors.NonFiniteValue,
                 "non-finite value in emission factors", id="mix-factor-non-finite"),
    pytest.param(lambda: ingest.GridMixSeries(STAMPS, ("gas",), np.ones((2, 1)),
                                              np.array([-0.4])), errors.OutOfRange,
                 "emission factors must be >= 0", id="mix-factor-negative"),
    pytest.param(lambda: ingest.LoadForecastSeries(STAMPS, np.ones(3)), ValueError,
                 "load_mw length mismatch", id="load-length"),
    pytest.param(lambda: CarbonIntensitySeries(STAMPS, np.ones(3)), ValueError,
                 "values length mismatch", id="intensity-length"),
    pytest.param(_online_short_carbon, ValueError,
                 "need true carbon for every simulated slot", id="online-short-carbon"),
    pytest.param(lambda: ingest.synth_sessions(-1, make_grid(1), seed=0), ValueError,
                 "count must be >= 0", id="synth-negative-count"),
])
def test_constructor_guard(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
