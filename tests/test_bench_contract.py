"""The benchmark's contract with the program.

`perfbench/` drives the program through these names, and a change that
renames or reshapes one of them breaks the benchmark:

- `workloads.py` writes every input with `ingest.write_grid_mix` and
  `ingest.write_sessions`;
- `child.py` parses them with the `ingest.parse_*` functions, fits with
  `forecast.fit` (a 3-tuple), builds `StationConfig` from its four
  positional fields, calls `run_online` with five positional arguments,
  and reads `ScheduleResult.soc[i, -1]`, `.objective`, `.emissions_kg`,
  `.delivered_kwh` and `scheduler.max_constraint_violation`;
- `spans.py` times `carbon_schedule` once per block and the `window`
  method of each forecaster class in `online`, and records `build_lp`'s
  `a_ub.shape` and `a_ub.nnz`.

Each test writes one workload's seed-1 inputs and runs one traced call of
it in a fresh interpreter, as `perfbench/run.py` does.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module    # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_call_of_each_workload(tmp_path, name):
    w = workloads.WORKLOADS[name]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workloads.write_inputs(w, 1, inputs)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), name, "1", str(inputs),
         str(tmp_path / "out"), str(result), "0", "--trace"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    [call] = out["calls"]
    assert call["problem"] is None
    assert call["steps_s"]
    if w.cli_args is not None:
        assert out["non_numeric_cells"] == {"schedule.csv": 0, "shift.csv": 0}
    # scipy's `linprog` is wrapped only where the program imports it
    assert set(out["absent"]) <= {"scheduler.linprog"}
