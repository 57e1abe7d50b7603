"""Carbon-aware EV charging scheduling toolkit."""

from .carbon import CarbonIntensitySeries, compute_intensity
from .ingest import (ChargingSession, GridMixSeries, LoadForecastSeries,
                     parse_grid_mix, parse_sessions, synth_sessions)
from .scheduler import (ScheduleResult, StationConfig, build_lp,
                        carbon_schedule, select_lambda, solve)
from .timegrid import TimeGrid

__all__ = [
    "CarbonIntensitySeries", "ChargingSession", "GridMixSeries",
    "LoadForecastSeries", "ScheduleResult", "StationConfig", "TimeGrid",
    "build_lp", "carbon_schedule", "compute_intensity", "parse_grid_mix",
    "parse_sessions", "select_lambda", "solve", "synth_sessions",
]

__version__ = "0.1.0"
