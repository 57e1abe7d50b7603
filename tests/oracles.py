"""Independent reference implementations used only by the tests.

The LP checker enumerates discretized schedules, and the matrix builder
assembles the constraint matrix densely, row by row, straight from the
constraint definitions; both avoid the library's own code paths. The
epigraph builder writes the absolute terminal gap with one slack per
session and caps SoC at soc_max; with prices >= 0 its optimum is the
library's objective. The online reference reuses the library's LP but
re-solves at every pending slot, so it checks when the online controller
may skip a solve. The baseline references are self-contained slot loops
for equal sharing and earliest deadline first, which the library's equal
sharing and EDF, each a walk of `scheduler.active_sets`, must match bit
for bit. The LP reference solves through scipy's public `linprog`, on the
scipy.sparse matrix that `scipy_matrix` rebuilds from the library's CSC
arrays, and the SoC reference expands a power matrix one session at a
time; the library's direct HiGHS call and its vectorised expansion must
match them bit for bit. The CSV references write schedule.csv and
shift.csv one session and one slot at a time, shift.csv with its own EDF
reference per day, and decisions.csv one decision at a time; the CLI's
files must match them byte for byte. The relative sessions of a re-plan
are built one `replace` at a time, and the screen with a three-key sort;
the online controller's arrays and `scheduler._screen` must match them
bit for bit.
"""

import csv
import io
import itertools
import math
from dataclasses import replace

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from carbonsched.ingest import ChargingSession
from carbonsched.scheduler import (_HIGHS_OPTIONS, PENDING_EPS, StationConfig,
                                   build_lp, result_from_power, solve)

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
    variable and row ordering as scheduler.build_lp: no slack, each
    session capped at its target, the shortfall priced in the cost."""
    T = config.horizon_slots
    windows = [list(range(max(0, s.t_arrival), min(T, s.t_depart)))
               for s in sessions]
    cols = [(i, t) for i, w in enumerate(windows) for t in w]

    c = np.zeros(len(cols))
    upper = np.zeros(len(cols))
    for k, (i, t) in enumerate(cols):
        s = sessions[i]
        # price * h per kW, less lam per unit of SoC the kW delivers
        c[k] = price[t] * config.slot_hours - config.lam * (s.delta / s.capacity_kwh)
        upper[k] = s.power_max_kw

    rows = []
    b = []
    # SoC cap: x_i(t) <= soc_target for every t. With u >= 0 the partial
    # sums are nondecreasing, so the cap at the last window slot implies
    # the others: one row g * sum_t u_i(t) <= soc_target - soc_arrival.
    for i, s in enumerate(sessions):
        rows.append([s.delta / s.capacity_kwh if j == i else 0.0
                     for j, _ in cols])
        b.append(s.soc_target - s.soc_arrival)
    for t in range(T):
        rows.append([1.0 if u == t else 0.0 for _, u in cols])
        b.append(config.power_cap_kw)

    return c, np.asarray(rows).reshape(len(b), len(cols)), np.asarray(b), upper


def epigraph_dense_lp(sessions, price, config):
    """Dense (c, A, b, upper) of the charging LP with the absolute terminal
    gap written as an epigraph: u vars session by session, then one slack
    per session priced at lam. Rows: one SoC cap per session at soc_max,
    then +gap and -gap per session, then one station row per slot. Every
    schedule with a SoC within [0, soc_max] is feasible here, so its
    optimum is the reference for the library's shortfall-only LP."""
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


def epigraph_optimum(sessions, price, config) -> float:
    """Optimum of `epigraph_dense_lp` through `linprog(method="highs")`."""
    c, a, b, upper = epigraph_dense_lp(sessions, price, config)
    res = linprog(c, A_ub=a, b_ub=b,
                  bounds=np.column_stack([np.zeros(len(c)), upper]),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def objective_slack(lp, lam: float) -> float:
    """How far the objective of a schedule of `lp` that HiGHS, the screen
    or a baseline returns may lie from the LP's optimum OPT, derived from
    the library's HiGHS tolerances (eps_p primal, eps_d dual) and float
    rounding. With N columns, T slots, n sessions and C = max |c|:

    - above OPT: HiGHS's x is optimal for costs within eps_d of c over the
      LP with each row and bound loosened by eps_p, and an optimum of the
      LP is feasible there, so c.x <= OPT + eps_d * sum(upper + eps_p);
    - below OPT: clip x into its bounds (<= eps_p kW per column); a SoC
      row is then over by <= eps_p (1 + g N_i), which scaling the
      session's columns down removes with <= eps_p (1/g_i + N_i) kW; a
      slot is over its cap by <= eps_p (1 + N_t) kW, removed likewise. The
      result is feasible, so c.x >= OPT - C eps_p (3N + T + sum 1/g_i);
    - `solve` clips x at 0 (<= C eps_p N), and a session past its target
      by s counts lam s in the objective instead of -lam s, with
      s <= eps_p (1 + g N_i): together 2 lam eps_p (n + sum over columns of g);
    - rounding: each of the N columns' values and products is exact to
      about N float steps of C sum(upper).
    """
    eps_p = _HIGHS_OPTIONS.primal_feasibility_tolerance
    eps_d = _HIGHS_OPTIONS.dual_feasibility_tolerance
    n, T = lp.shape
    N = len(lp.c)
    g = lp.a_ub.data[::2]
    C = float(np.abs(lp.c).max(initial=0.0))
    inv_g = float(np.sum(1.0 / g[np.diff(lp.owner, prepend=-1) != 0]))  # sum 1/g_i
    return (eps_d * float(np.sum(lp.upper + eps_p))
            + C * eps_p * (4 * N + T + inv_g)
            + 2 * lam * eps_p * (n + float(g.sum()))
            + 4 * N * np.finfo(float).eps * C * float(lp.upper.sum()))


def flow_optimum(sessions, price, config, scale=2 ** 40):
    """The carbon LP's optimal objective from a min-cost flow, built from
    the definitions alone: (objective, tolerance), with the LP's optimum
    OPT in [objective - tolerance, objective].

    Divide each session's SoC row by its g = delta / capacity_kwh and every
    matrix entry is 1: the LP is a transportation problem. Source ->
    session i has capacity R_i = (soc_target - soc_arrival) / g_i kW;
    session i -> slot t, for each slot of its window, capacity power_max_i
    and cost c = price_t * slot_hours - lam * g_i per kW; slot t -> sink
    capacity power_cap_kw; a free source -> sink bypass carries the rest.
    The objective is the flow's cost plus lam * sum_i (soc_target -
    soc_arrival), the shortfall of a schedule that charges nothing.

    `networkx.network_simplex` takes integers, so capacities are floored
    to units of 1/scale kW and costs rounded to units of 1/scale per kW.
    Flooring only shrinks the feasible set, so the flow found is feasible
    for the LP and its cost in the true c is >= OPT. It is above OPT by at
    most the sum of:
    - flooring: the capacity floored away times max |c|. Cutting an LP
      optimum back into the floored capacities, arc by arc, removes at
      most that much flow, each kW changing the cost by at most max |c|;
    - cost rounding: 0.5/scale per kW of two flows, the one found and that
      cut-back optimum (the found flow is optimal for the rounded costs,
      and the network's integer flows reach its optimum), each at most
      F = sum_i min(R_i, power_max_i L_i) kW with L_i the window's length.
    """
    T = config.horizon_slots
    h, lam, cap = config.slot_hours, config.lam, config.power_cap_kw
    graph = nx.DiGraph()
    lost = 0.0
    flow_bound = 0.0
    cost = {}
    supply = 0

    def floored(kw):
        nonlocal lost
        units = math.floor(kw * scale)
        lost += kw - units / scale
        return units

    for t in range(T):
        graph.add_edge(("slot", t), "sink", capacity=floored(cap), weight=0)
    for i, s in enumerate(sessions):
        g = s.delta / s.capacity_kwh
        request = (s.soc_target - s.soc_arrival) / g
        window = range(max(0, s.t_arrival), min(T, s.t_depart))
        flow_bound += min(request, s.power_max_kw * len(window))
        units = floored(request)
        supply += units
        graph.add_edge("source", ("session", i), capacity=units, weight=0)
        for t in window:
            cost[i, t] = price[t] * h - lam * g
            graph.add_edge(("session", i), ("slot", t),
                           capacity=floored(s.power_max_kw),
                           weight=round(cost[i, t] * scale))
    graph.add_edge("source", "sink", capacity=supply, weight=0)
    graph.nodes["source"]["demand"] = -supply
    graph.nodes["sink"]["demand"] = supply

    _, flow = nx.network_simplex(graph)
    charged = math.fsum(cost[i, t] * flow[("session", i)][("slot", t)] / scale
                        for i, t in cost)
    objective = charged + lam * math.fsum(s.soc_target - s.soc_arrival for s in sessions)
    c_max = max((abs(c) for c in cost.values()), default=0.0)
    return objective, flow_bound / scale + lost * c_max


def scipy_matrix(a):
    """The scipy.sparse matrix of a `scheduler.CscMatrix`, from its arrays
    as they are."""
    return sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def linprog_solve(lp):
    """Solve an LpInstance through `linprog(method="highs")` with the
    library's presolve setting and tolerances, read from
    `_HIGHS_OPTIONS`: (x, objective, simplex iterations)."""
    res = linprog(lp.c, A_ub=scipy_matrix(lp.a_ub), b_ub=lp.b_ub,
                  bounds=np.column_stack([np.zeros(len(lp.c)), lp.upper]),
                  method="highs",
                  options={"presolve": _HIGHS_OPTIONS.presolve != "off",
                           "primal_feasibility_tolerance":
                               _HIGHS_OPTIONS.primal_feasibility_tolerance,
                           "dual_feasibility_tolerance":
                               _HIGHS_OPTIONS.dual_feasibility_tolerance})
    assert res.status == 0, res.message
    return res.x, float(res.fun), res.nit


def terminal_gaps(result, sessions):
    """Per-session absolute gap between final SoC and target."""
    return np.abs(result.soc[:, -1] - np.array([s.soc_target for s in sessions]))


def loop_soc_and_gaps(sessions, power):
    """SoC trajectories and terminal gaps built one session at a time."""
    soc = np.zeros((len(sessions), power.shape[1] + 1))
    gaps = np.zeros(len(sessions))
    for i, s in enumerate(sessions):
        soc[i, 0] = s.soc_arrival
        soc[i, 1:] = s.soc_arrival + np.cumsum(power[i]) * s.delta / s.capacity_kwh
        gaps[i] = abs(soc[i, -1] - s.soc_target)
    return soc, gaps


def relative_sessions(sessions, active, soc, k, h):
    """The sessions `active` at slot k as a re-plan at k sees them, one
    `replace` each: arrived at slot 0 with SoC soc[i], clipped to soc_max,
    gone by slot h, and with the target clipped to between that SoC and
    soc_max."""
    rel = []
    for i in active:
        s = sessions[i]
        x = min(float(soc[i]), s.soc_max)
        rel.append(replace(s, t_arrival=0, t_depart=min(s.t_depart - k, h),
                           soc_arrival=x,
                           soc_target=min(max(s.soc_target, x), s.soc_max)))
    return rel


def three_key_screen(lp):
    """`scheduler._screen` as a three-key sort on (owner, c, slot) and a
    rank from the session's first column in that order: the LP's x when
    the greedy fill keeps every slot within the cap, else None."""
    n, T = lp.shape
    g = lp.a_ub.data[::2]
    if not ((lp.b_ub[:n] >= 0).all() and (g > 0).all()):
        return None
    k = np.flatnonzero(lp.c < 0)
    k = k[np.lexsort((lp.slot[k], lp.c[k], lp.owner[k]))]
    owner, upper = lp.owner[k], lp.upper[k]
    at = np.arange(len(k))
    rank = at - np.maximum.accumulate(np.where(np.diff(owner, prepend=-1) != 0, at, 0))
    x = np.zeros(len(lp.c))
    x[k] = np.clip(lp.b_ub[owner] / g[k] - rank * upper, 0.0, upper)
    if (np.bincount(lp.slot, weights=x, minlength=T) <= lp.b_ub[n:]).all():
        return x
    return None


def always_resolve_online(sessions, forecaster, true_carbon, config,
                          total_slots):
    """Rolling-horizon control that rebuilds and re-solves the LP at every
    slot with a pending session and applies the first slot of the plan.
    Like `run_online`, it asks for a window that ends by total_slots, clips
    each departure to that window and pads the LP's prices with zeros to
    config.horizon_slots.

    Returns (schedule over total_slots, number of solves).
    """
    T = config.horizon_slots
    soc = np.array([s.soc_arrival for s in sessions])
    power = np.zeros((len(sessions), total_slots))
    solves = 0
    for k in range(total_slots):
        active = [i for i, s in enumerate(sessions)
                  if s.t_arrival <= k and s.t_depart > k]
        pending = [i for i in active
                   if soc[i] < sessions[i].soc_target - PENDING_EPS]
        if not pending:
            continue
        h = min(T, total_slots - k)
        window = np.asarray(forecaster.window(k, h), dtype=float)
        rel = relative_sessions(sessions, active, soc, k, h)
        step = solve(build_lp(rel, np.concatenate([window, np.zeros(T - h)]), config))
        solves += 1
        for j, i in enumerate(active):
            u = float(step[j, 0])
            power[i, k] = u
            soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
    final = StationConfig(config.power_cap_kw, config.slot_hours, config.lam,
                          total_slots)
    return result_from_power(sessions, power, final,
                             np.asarray(true_carbon, dtype=float)[:total_slots]), solves


_EPS = 1e-12


def _need_power_kw(session: ChargingSession, soc: float) -> float:
    """Power that would exactly reach the target SoC in one slot."""
    return max(session.soc_target - soc, 0.0) * session.capacity_kwh / session.delta


def _active(sessions, soc: np.ndarray, t: int) -> list[int]:
    return [i for i, s in enumerate(sessions)
            if s.t_arrival <= t < s.t_depart and soc[i] < s.soc_target - PENDING_EPS]


def _water_fill(budget: float, caps: list[float]) -> list[float]:
    """Split `budget` equally, redistributing the surplus of capped
    participants until a fixpoint."""
    alloc = [0.0] * len(caps)
    uncapped = list(range(len(caps)))
    remaining = budget
    while uncapped and remaining > _EPS:
        share = remaining / len(uncapped)
        newly = [i for i in uncapped if caps[i] <= share + _EPS]
        if not newly:
            for i in uncapped:
                alloc[i] = share
            return alloc
        for i in newly:
            alloc[i] = caps[i]
            remaining -= caps[i]
            uncapped.remove(i)
    return alloc


def loop_equal_sharing(sessions, config, carbon):
    """Each slot, divide the station cap equally among active unfinished
    sessions by water-filling over the per-EV caps."""
    T = config.horizon_slots
    power = np.zeros((len(sessions), T))
    soc = np.array([s.soc_arrival for s in sessions])
    for t in range(T):
        act = _active(sessions, soc, t)
        if not act:
            continue
        caps = [min(sessions[i].power_max_kw, _need_power_kw(sessions[i], soc[i]))
                for i in act]
        alloc = _water_fill(config.power_cap_kw, caps)
        for i, u in zip(act, alloc):
            power[i, t] = u
            soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
    return result_from_power(sessions, power, config, carbon)


def loop_earliest_deadline_first(sessions, config, carbon):
    """Each slot, grant max power to active sessions in deadline order
    (ties: arrival, then id) until the station budget is exhausted."""
    T = config.horizon_slots
    power = np.zeros((len(sessions), T))
    soc = np.array([s.soc_arrival for s in sessions])
    for t in range(T):
        act = _active(sessions, soc, t)
        act.sort(key=lambda i: (sessions[i].t_depart, sessions[i].t_arrival,
                                sessions[i].id))
        budget = config.power_cap_kw
        for i in act:
            if budget <= _EPS:
                break
            u = min(sessions[i].power_max_kw, _need_power_kw(sessions[i], soc[i]),
                    budget)
            power[i, t] = u
            soc[i] += u * sessions[i].delta / sessions[i].capacity_kwh
            budget -= u
    return result_from_power(sessions, power, config, carbon)


def cheapest_first_then_capped(sessions, price, config):
    """A schedule feasible for the LP of `price`, built one session and one
    slot at a time: each session charges at full power in the slots where a
    kW lowers the LP's cost, cheapest first (ties: earlier slot), until it
    reaches its target; then every slot over the cap is scaled down to it.
    Without the cap this is the LP's optimum, so it judges the optimum."""
    T = len(price)
    power = np.zeros((len(sessions), T))
    for i, s in enumerate(sessions):
        g = s.delta / s.capacity_kwh
        left = s.soc_target - s.soc_arrival
        window = range(max(0, s.t_arrival), min(T, s.t_depart))
        for t in sorted(window, key=lambda t: (price[t], t)):
            if price[t] * config.slot_hours - config.lam * g >= 0 or left <= 0:
                break
            power[i, t] = min(s.power_max_kw, left / g)
            left -= power[i, t] * g
    total = power.sum(axis=0)
    over = total > config.power_cap_kw
    power[:, over] *= config.power_cap_kw / total[over]
    return result_from_power(sessions, power, config, price)


def loop_schedule_csv(plans, results) -> str:
    """schedule.csv of a run from its day plans and per-day (sessions,
    result) pairs, one row per session and slot of its window, written by
    `csv.writer` with "\\n" line ends."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("session_id", "slot", "power_kw", "soc"))
    for day, (rel, res) in results.items():
        off = plans[day][0]
        for i, s in enumerate(rel):
            for t in range(s.t_arrival, s.t_depart):
                rows.writerow((s.id, off + t, repr(float(res.power[i, t])),
                               repr(float(res.soc[i, t + 1]))))
    return out.getvalue()


def loop_decisions_csv(plans, logs, intensity) -> str:
    """decisions.csv of an online run from its day plans and each day's
    decisions (slot, session, power, forecast intensity), one row per
    decision, written by `csv.writer` with "\\n" line ends."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("slot", "session_id", "power_kw", "forecast_c", "true_c"))
    for day, decisions in logs.items():
        off, horizon, rel = plans[day]
        cvals = intensity.values[off:off + horizon]
        for k, i, u, c in decisions:
            rows.writerow((off + k, rel[i].id, repr(float(u)), repr(float(c)),
                           repr(float(cvals[k]))))
    return out.getvalue()


def loop_shift_csv(plans, results, intensity, slot_hours, power_cap_kw) -> str:
    """shift.csv of a run: per slot of each day, the policy's and the EDF
    reference's emissions in kg. The reference is each day's
    `loop_earliest_deadline_first` under the station cap `power_cap_kw`."""
    out = ["slot,timestamp,policy_kg,baseline_edf_kg\n"]
    for day, (off, horizon, rel) in plans.items():
        cvals = intensity.values[off:off + horizon]
        edf = loop_earliest_deadline_first(
            rel, StationConfig(power_cap_kw, slot_hours, 0.0, horizon), cvals)
        pol = cvals * results[day][1].station_power * slot_hours
        ref = cvals * edf.station_power * slot_hours
        for t in range(horizon):
            out.append(f"{off + t},{intensity.timestamps[off + t].isoformat()},"
                       f"{float(pol[t])!r},{float(ref[t])!r}\n")
    return "".join(out)
