"""Seeded carbonsched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a source checkout (src/carbonsched must be there).
It writes the workload's inputs for the seed, then starts CHILDREN fresh
child interpreters (perfbench/child.py) one at a time. They share S
seconds of timed calls of the workload, and every call's output is
checked. Times are scaled to a reference machine speed (see calib.py).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of traced children with --trace 1.
The lines before it print every metric by name with its unit, plus
informational fields; --record appends the full record as a JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TIME_LIMIT_S = 170.0      # every run ends well within 180 s
MIN_STEPS = 200           # decisions timed per run, over all its calls
CHILDREN = 4              # fresh interpreters per run, so setup_s is a median of 4

END_TO_END = (("wall_s", "s"), ("sessions_per_s", "1/s"), ("step_p50_ms", "ms"),
              ("step_p95_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(CARBON_SCHED_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def git_sha() -> str:
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta() -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def model_forecast_probe(w, inputs: Path, work: Path, env, timeout: float) -> dict:
    """CLI --online-forecast model on day-0 sessions, run once untimed.
    Its exit code and error text are recorded, never gated on."""
    argv = [sys.executable, "-m", "carbonsched.cli", "simulate",
            "--policy", "carbon-online", "--online-forecast", "model",
            "--mix", str(inputs / "mix.csv"), "--factors", str(inputs / "factors.csv"),
            "--load", str(inputs / "load.csv"),
            "--sessions", str(inputs / "probe_sessions.csv"),
            "--lambda", repr(w.lam), "--power-cap-kw", repr(w.power_cap_kw),
            "--out-dir", str(work / "probe")]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stderr.strip().splitlines()
    return {"exit": proc.returncode, "error": lines[-1] if lines else ""}


class Runner:
    """Starts the children of one run, one at a time, and checks each
    call's output. A call is one attempted operation; a child that
    crashes or times out counts as one failed operation."""

    def __init__(self, w, seed: int, inputs: Path, work: Path, env, t_start: float):
        self.w, self.seed, self.inputs, self.work, self.env = w, seed, inputs, work, env
        self.t_start = t_start
        self.children: list[dict] = []
        self.failures: list[str] = []
        self.digest: str | None = None
        self.cells: dict[str, int] | None = None

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.t_start)

    def child(self, trace: bool, seconds: float) -> None:
        """One child with `seconds` for its calls; its checked
        measurements go to self.children."""
        n = len(self.children)
        out_dir, result = self.work / f"out{n}", self.work / f"result{n}.json"
        argv = [sys.executable, str(HERE / "child.py"), self.w.name, str(self.seed),
                str(self.inputs), str(out_dir), str(result), repr(seconds)] + (
            ["--trace"] if trace else [])
        entry: dict = {"trace": trace, "calls": []}
        self.children.append(entry)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return self.fail(entry, "timed out")
        entry["elapsed_s"] = time.monotonic() - t0
        try:
            entry.update(json.loads(result.read_text()))
        except (OSError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return self.fail(entry, f"exit {proc.returncode}, no result: {tail[0]}")
        for j, call in enumerate(entry["calls"]):
            call["scale"] = calib.REFERENCE_S / statistics.mean(entry["cal_s"][j:j + 2])
            if call["problem"] is None and self.digest not in (None, call["sha256"]):
                call["problem"] = f"report.json sha256 {call['sha256']} != {self.digest}"
            if call["problem"] is None:
                self.digest = self.digest or call["sha256"]
            else:
                self.failures.append(f"child {n} call {j}: {call['problem']}")
        if self.cells is None:
            self.cells = entry["non_numeric_cells"]
        if proc.returncode != 0 and not self.failures:
            self.fail(entry, f"exit {proc.returncode}")

    def fail(self, entry: dict, why: str) -> None:
        entry["crashed"] = True
        self.failures.append(f"child {len(self.children) - 1}: {why}")

    def measure(self, seconds: float, trace: bool) -> None:
        """CHILDREN children share `seconds`; with `trace`, untraced and
        traced children alternate so that both see the same machine state.
        Untraced, more children follow while fewer than MIN_STEPS decisions
        are timed and the time limit allows."""
        t0 = time.monotonic()
        overhead = 2.0          # per child, outside its calls; updated as children end
        i = 0
        while i < CHILDREN or not trace and self.steps() < MIN_STEPS:
            left = seconds - (time.monotonic() - t0)
            budget = max(0.0, left / max(1, CHILDREN - i) - overhead)
            self.child(trace and i % 2 == 1, budget)
            if self.failures or self.remaining() < 2 * (budget + overhead) + 5.0:
                return
            overhead = self.children[-1]["elapsed_s"] - budget
            i += 1

    def steps(self) -> int:
        return sum(len(c["steps_s"]) for c in self.calls(traced=False))

    def calls(self, traced: bool) -> list[dict]:
        return [c for ch in self.children if ch["trace"] == traced
                for c in ch["calls"] if c["problem"] is None]

    def counts(self) -> tuple[int, int]:
        """(operations attempted, operations failed)."""
        attempted = failed = 0
        for ch in self.children:
            attempted += len(ch["calls"]) or 1
            failed += sum(1 for c in ch["calls"] if c["problem"] is not None)
            failed += 1 if ch.get("crashed") and not ch["calls"] else 0
        return attempted, failed


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    calls = runner.calls(traced=False)
    children = [ch for ch in runner.children if ch["calls"] and not ch["trace"]]
    walls = [c["wall_s"] * c["scale"] for c in calls]
    # Every call makes the same decisions, so each decision's latency is
    # its median over the calls; the percentiles are taken over decisions.
    timed = sum(len(c["steps_s"]) for c in calls)
    if timed < MIN_STEPS:
        runner.failures.append(f"{timed} decision steps timed, fewer than {MIN_STEPS}")
    if len({len(c["steps_s"]) for c in calls}) > 1:
        runner.failures.append("the number of decisions differs between calls")
    per_call = [[s * c["scale"] for s in c["steps_s"]] for c in calls]
    decisions = [statistics.median(d) for d in zip(*per_call)] or [0.0]
    q1, wall, q3 = quartiles(walls)
    values = {
        "wall_s": wall,
        "sessions_per_s": runner.w.n_sessions / wall,
        "step_p50_ms": 1e3 * percentile(decisions, 50),
        "step_p95_ms": 1e3 * percentile(decisions, 95),
        "peak_rss_mb": statistics.median(ch["rss_mb"] for ch in children),
        "setup_s": statistics.median(ch["import_s"] * calib.REFERENCE_S / ch["cal_s"][0]
                                     for ch in children),
    }
    info = {"wall_s_quartiles": [q1, wall, q3], "calls": len(walls),
            "decisions_per_call": len(decisions), "steps_timed": timed,
            "setup_samples": len(children),
            "unscaled_wall_s": statistics.median(c["wall_s"] for c in calls),
            "unscaled_setup_s": statistics.median(ch["import_s"] for ch in children),
            "calibration_s": statistics.median(t for ch in children for t in ch["cal_s"])}
    return values, info


def per_layer(runner: Runner) -> tuple[dict, dict]:
    import spans
    traced = runner.calls(traced=True)
    layers = [spans.layer_metrics(c["spans"], c["scale"]) for c in traced]
    for name in spans.REPEATING_COUNTS:
        if len({m[name] for m in layers}) > 1:
            runner.failures.append(f"{name} differs between traced calls: "
                                   f"{[m[name] for m in layers]}")
    values = {name: statistics.median(m[name] for m in layers)
              for name, _, _, _ in spans.LAYER_METRICS}
    traced_wall = statistics.median(c["wall_s"] * c["scale"] for c in traced)
    plain_wall = statistics.median(c["wall_s"] * c["scale"] for c in runner.calls(traced=False))
    values["trace.overhead_s"] = traced_wall - plain_wall
    absent = next(ch["absent"] for ch in runner.children if ch["trace"] and ch["calls"])
    info = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "traced_calls": len(traced), "absent": spans.absent_metrics(absent)}
    return values, info


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return dict(END_TO_END)
    import spans
    out = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    out["trace.overhead_s"] = "s"
    return out


def run(args, work: Path) -> tuple[dict, dict]:
    from workloads import WORKLOADS, write_inputs
    w = WORKLOADS[args.workload]
    t_start = time.monotonic()
    env = child_env()
    inputs = work / "inputs"
    inputs.mkdir()
    write_inputs(w, args.seed, inputs)
    info: dict = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": bool(args.trace), **meta()}
    runner = Runner(w, args.seed, inputs, work, env, t_start)
    if w.warmup_days:
        info["model_forecast_probe"] = model_forecast_probe(
            w, inputs, work, env, timeout=min(60.0, runner.remaining() / 3))
    runner.measure(args.seconds, bool(args.trace))

    plain_ok = bool(runner.calls(traced=False))
    if plain_ok and (runner.calls(traced=True) or not args.trace):
        values, extra = per_layer(runner) if args.trace else end_to_end(runner)
        info.update(extra)
    else:
        values = dict.fromkeys(units(bool(args.trace)), 0.0)
    attempted, failed = runner.counts()
    info.update(failed_ops_frac=failed / attempted, failures=runner.failures,
                report_sha256=runner.digest, non_numeric_cells=runner.cells)
    info["children"] = [{k: v for k, v in ch.items() if k not in ("calls", "absent")}
                        | {"calls": [{"wall_s": c["wall_s"], "scale": c.get("scale"),
                                      "steps": len(c["steps_s"])} for c in ch["calls"]]}
                        for ch in runner.children]
    result = {"correct": not runner.failures and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units(bool(args.trace))[k]}
                          for k, v in values.items()}}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "carbonsched" / "__init__.py").is_file():
        print(f"error: no carbonsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run then kills and reaps the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result, info = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({**info, **result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
