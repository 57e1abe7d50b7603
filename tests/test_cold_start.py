"""Start-up and run imports: `import carbonsched.cli`, and a CLI run after
it, load numpy and scipy's HiGHS extension and no other scipy module:
not scipy itself, scipy.optimize, scipy.sparse or scipy.linalg.

Each check runs in a fresh interpreter, since this process has imported
all of scipy already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def run_fresh(*parts: str):
    """Run the code `parts` in a new interpreter that sees src/ and
    tests/; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")) if p)
    code = "".join(textwrap.dedent(p) for p in parts)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Solves a few random LPs with scheduler._run_highs and with linprog;
# prints whether every pair is equal bit for bit.
BITWISE = """
    import numpy as np
    from oracles import linprog_solve, random_instance
    rng = np.random.default_rng(11)
    equal = []
    for horizon in HORIZONS:
        lp = scheduler.build_lp(*random_instance(rng, 8, horizon))
        x, objective, nit = scheduler._run_highs(lp)
        ref_x, ref_objective, ref_nit = linprog_solve(lp)
        equal.append(bool(np.array_equal(x, ref_x)) and objective == ref_objective
                      and nit == ref_nit)
"""


def test_cli_import_leaves_heavy_scipy_modules_out():
    loaded = run_fresh("""
        import json, sys
        import carbonsched.cli
        print(json.dumps([m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg")
                          if m in sys.modules]))
    """)
    assert loaded == []


def test_cli_runs_load_no_scipy_module_but_the_highs_extension(tmp_path):
    # One run of each subcommand, the fitted-model forecast included.
    out = run_fresh(f"""
        import json, sys
        from pathlib import Path
        from carbonsched.cli import main
        from output_digest import MODEL, MODEL_SESSIONS
        tmp = Path({str(tmp_path)!r})
        (tmp / "model_sessions.csv").write_text(MODEL_SESSIONS)
        codes = [
            main(["forecast", "--synth-days", "60", "--out-dir", str(tmp / "forecast")]),
            main(["simulate", "--policy", "carbon-online", "--online-forecast", "model",
                  *(a.format(tmp=tmp) for a in MODEL), "--out-dir", str(tmp / "model")]),
            main(["lambda-sweep", "--lambdas", "0.1,1", "--out-dir", str(tmp / "sweep")]),
        ]
        print(json.dumps({{"codes": codes, "scipy": sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
    """)
    assert out["codes"] == [0, 0, 0]
    # The extension registers its own submodules (`cb`, `simplex_constants`),
    # built from the same file, under its name.
    core = "scipy.optimize._highspy._core"
    assert all(m == core or m.startswith(core + ".") for m in out["scipy"]), out["scipy"]


def test_scipy_imported_after_carbonsched_shares_the_binding():
    # The benchmark's order: carbonsched first, then scipy.optimize.
    out = run_fresh("""
        import json
        import carbonsched.cli
        from carbonsched import scheduler
        import scipy.optimize
        same = scheduler.highs is scipy.optimize._highspy._core
        HORIZONS = (6, 6, 48, 48, 288)
    """, BITWISE, """
        print(json.dumps({"same": same, "equal": equal}))
    """)
    assert out == {"same": True, "equal": [True] * 5}


def test_missing_extension_file_falls_back_to_scipy_import():
    out = run_fresh("""
        import json, sys
        from importlib.machinery import EXTENSION_SUFFIXES
        saved = EXTENSION_SUFFIXES[:]
        EXTENSION_SUFFIXES[:] = [".missing.so"]  # the loader finds no _core file
        from carbonsched import scheduler
        EXTENSION_SUFFIXES[:] = saved
        fell_back = "scipy.optimize" in sys.modules
        HORIZONS = (48,)
    """, BITWISE, """
        print(json.dumps({"fell_back": fell_back, "equal": equal}))
    """)
    assert out == {"fell_back": True, "equal": [True]}
