"""``import repro`` stays light: optimizers and interpolators load on use.

Nothing a simulation request needs comes from ``scipy.optimize`` or
``scipy.interpolate`` (which pull in ``scipy.special`` and
``scipy.fft``), so the modules that do use them import them on first
call.  A fresh interpreter checks that the import leaves both out of
``sys.modules`` and that the deferred callers still return the values
they returned with module-level imports.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).parent.parent

PROBE = """
import json, sys
import numpy as np
import repro
from repro.core.fitting import fit_delay_model
from repro.core.moments import two_pole_delay_50

loaded = sorted(m for m in ("scipy.optimize", "scipy.interpolate") if m in sys.modules)
line = repro.DriverLineLoad(rt=1000.0, lt=1e-7, ct=1e-12, rtr=500.0, cl=5e-13)
design = repro.numerical_optimal_design(line, repro.Buffer(r0=2000.0, c0=5e-15))
z = np.linspace(0.2, 3.0, 9)
fit = fit_delay_model(z, 2.9 * np.exp(-1.35 * z**1.12) + 1.48 * z)
print(json.dumps({
    "loaded": loaded,
    "rise_time_10_90": repro.rise_time_10_90(line),
    "elmore_delay_50": repro.elmore_delay_50(line),
    "two_pole_delay_50": two_pole_delay_50(line),
    "design": [design.h, design.k],
    "fit": list(fit.parameters),
}))
"""

# The values the same calls returned with module-level scipy imports.
EXPECTED = {
    "rise_time_10_90": 3.2431430480153792e-09,
    "elmore_delay_50": 1.2130075659799041e-09,
    "two_pole_delay_50": 1.3316508119363342e-09,
    "design": [12.950441394146432, 3.8888855444081853],
    "fit": [0.242902977526598, 4.337763216117049, 1.5288591535121039],
}


def test_import_repro_defers_optimize_and_interpolate():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report.pop("loaded") == []
    assert report == EXPECTED
