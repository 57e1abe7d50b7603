"""Independent reference implementations used only by the tests.

The LP checker enumerates discretized schedules, and the matrix builder
assembles the constraint matrix densely, row by row, straight from the
constraint definitions; both avoid the library's own code paths. The
online reference reuses the library's LP but re-solves at every pending
slot, so it checks when the online controller may skip a solve.
"""

import itertools
from dataclasses import replace

import numpy as np

from carbonsched.ingest import ChargingSession
from carbonsched.online import lookahead_window
from carbonsched.scheduler import (StationConfig, build_lp, result_from_power,
                                   solve)

FEAS_EPS = 1e-9


def _per_ev_schedules(session: ChargingSession, price, config):
    """All feasible discretized schedules for one EV over its window.

    Returns (power matrix over full horizon, carbon cost, terminal gap)
    stacked over the enumeration.
    """
    T = config.horizon_slots
    lo, hi = max(0, session.t_arrival), min(T, session.t_depart)
    L = hi - lo
    g = session.delta / session.capacity_kwh
    levels = (0.0, session.power_max_kw / 2.0, session.power_max_kw)

    powers, costs, gaps = [], [], []
    for combo in itertools.product(levels, repeat=L):
        u = np.asarray(combo)
        cum = g * np.cumsum(u)
        if np.any(cum > session.soc_max - session.soc_arrival + FEAS_EPS):
            continue
        full = np.zeros(T)
        full[lo:hi] = u
        powers.append(full)
        costs.append(float(np.sum(price[lo:hi] * u) * config.slot_hours))
        gaps.append(abs(session.soc_arrival + cum[-1] - session.soc_target)
                    if L else abs(session.soc_arrival - session.soc_target))
    return np.asarray(powers), np.asarray(costs), np.asarray(gaps)


def brute_force_objective(sessions, price, config) -> float:
    """Best objective over schedules with u in {0, u_max/2, u_max} per slot.

    Supports up to two sessions; an upper bound on the true LP optimum.
    """
    assert 1 <= len(sessions) <= 2
    parts = [_per_ev_schedules(s, price, config) for s in sessions]
    lam = config.lam
    if len(sessions) == 1:
        p, c, gp = parts[0]
        feasible = np.all(p <= config.power_cap_kw + FEAS_EPS, axis=1)
        return float(np.min(c[feasible] + lam * gp[feasible]))
    (p1, c1, g1), (p2, c2, g2) = parts
    total = p1[:, None, :] + p2[None, :, :]
    feasible = np.all(total <= config.power_cap_kw + FEAS_EPS, axis=2)
    obj = (c1 + lam * g1)[:, None] + (c2 + lam * g2)[None, :]
    return float(np.min(obj[feasible]))


def resolution_bound(sessions, config) -> float:
    """Worst-case objective increase from rounding an LP solution down to
    the enumeration's half-power grid (only the slack term can grow)."""
    T = config.horizon_slots
    bound = 0.0
    for s in sessions:
        L = min(T, s.t_depart) - max(0, s.t_arrival)
        bound += config.lam * (s.delta / s.capacity_kwh) * (s.power_max_kw / 2.0) * L
    return bound


def naive_dense_lp(sessions, price, config):
    """Dense (c, A, b, upper) assembled independently, same documented
    variable and row ordering as scheduler.build_lp."""
    T = config.horizon_slots
    windows = []
    for s in sessions:
        windows.append(list(range(max(0, s.t_arrival), min(T, s.t_depart))))
    n_u = sum(len(w) for w in windows)
    n = len(sessions)
    n_vars = n_u + n

    def u_col(i, t):
        return sum(len(w) for w in windows[:i]) + windows[i].index(t)

    c = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    for i, s in enumerate(sessions):
        for t in windows[i]:
            c[u_col(i, t)] = price[t] * config.slot_hours
            upper[u_col(i, t)] = s.power_max_kw
        c[n_u + i] = config.lam

    rows = []
    b = []
    # SoC cap: x_i(t) <= soc_max for every t. With u >= 0 the partial sums
    # are nondecreasing, so the cap at the last window slot implies the
    # others: one row g * sum_t u_i(t) <= soc_max - soc_arrival.
    for i, s in enumerate(sessions):
        g = s.delta / s.capacity_kwh
        row = np.zeros(n_vars)
        for t in windows[i]:
            row[u_col(i, t)] = g
        rows.append(row)
        b.append(s.soc_max - s.soc_arrival)
    for i, s in enumerate(sessions):
        g = s.delta / s.capacity_kwh
        gap = s.soc_target - s.soc_arrival
        plus = np.zeros(n_vars)
        minus = np.zeros(n_vars)
        for t in windows[i]:
            plus[u_col(i, t)] = g
            minus[u_col(i, t)] = -g
        plus[n_u + i] = -1.0
        minus[n_u + i] = -1.0
        rows.append(plus)
        b.append(gap)
        rows.append(minus)
        b.append(-gap)
    for t in range(T):
        row = np.zeros(n_vars)
        for i in range(n):
            if t in windows[i]:
                row[u_col(i, t)] = 1.0
        rows.append(row)
        b.append(config.power_cap_kw)

    return c, np.asarray(rows), np.asarray(b), upper


def random_instance(rng: np.random.Generator, max_sessions: int, horizon: int,
                    power_cap: float | None = None, lam: float | None = None):
    """Random but always-valid scheduling instance."""
    n = int(rng.integers(1, max_sessions + 1))
    sessions = []
    for i in range(n):
        a = int(rng.integers(0, horizon))
        d = int(rng.integers(a + 1, horizon + 1))
        soc_arr = float(rng.uniform(0.0, 0.6))
        soc_max = float(rng.uniform(max(soc_arr, 0.5), 1.0))
        soc_tgt = float(rng.uniform(soc_arr, soc_max))
        sessions.append(ChargingSession(
            id=f"r{i}", t_arrival=a, t_depart=d,
            soc_arrival=soc_arr, soc_target=soc_tgt, soc_max=soc_max,
            capacity_kwh=float(rng.uniform(2.0, 60.0)),
            power_max_kw=float(rng.uniform(2.0, 10.0)),
            delta=float(rng.uniform(0.5, 1.0)) * 5 / 60,
        ))
    config = StationConfig(
        power_cap_kw=power_cap if power_cap is not None
        else float(rng.uniform(5.0, 50.0)),
        slot_hours=5 / 60,
        lam=lam if lam is not None else float(rng.uniform(0.0, 2.0)),
        horizon_slots=horizon,
    )
    price = rng.uniform(0.02, 0.5, size=horizon)
    return sessions, price, config


def always_resolve_online(sessions, forecaster, true_carbon, config,
                          total_slots):
    """Rolling-horizon control that rebuilds and re-solves the LP at every
    slot with a pending session and applies the first slot of the plan.

    Returns (schedule over total_slots, number of solves).
    """
    T = config.horizon_slots
    soc = np.array([s.soc_arrival for s in sessions])
    power = np.zeros((len(sessions), total_slots))
    solves = 0
    for k in range(total_slots):
        active = [i for i, s in enumerate(sessions)
                  if s.t_arrival <= k and s.t_depart > k]
        pending = [i for i in active if soc[i] < sessions[i].soc_target - 1e-9]
        if not pending:
            continue
        window = lookahead_window(k, T, forecaster)
        rel = []
        for i in active:
            s = sessions[i]
            x = min(float(soc[i]), s.soc_max)
            rel.append(replace(s, t_arrival=0, t_depart=min(s.t_depart - k, T),
                               soc_arrival=x,
                               soc_target=min(max(s.soc_target, x), s.soc_max)))
        step = solve(build_lp(rel, window, config))
        solves += 1
        for j, i in enumerate(active):
            u = float(step.power[j, 0])
            power[i, k] = u
            soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
    final = StationConfig(config.power_cap_kw, config.slot_hours, config.lam,
                          total_slots)
    return result_from_power(sessions, power, final,
                             np.asarray(true_carbon, dtype=float)[:total_slots]), solves
