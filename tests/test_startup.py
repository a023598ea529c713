"""Start-up in a fresh interpreter.

No command loads scipy: tiltkit needs numpy alone at run time.  The
simplex search is tiltkit's own (``tuning._simplex_pass``), so every
command, ``tune`` included, runs without any ``scipy`` module.  The check
runs in a fresh interpreter, because the test process itself imports
scipy for its oracles.  ``python -m tiltkit.cli`` runs without a warning,
because the package does not import ``cli`` before runpy executes it.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import json, os, sys
import tiltkit, tiltkit.cli
import numpy as np
from tiltkit.cli import main
from tiltkit.logio import parse_log, read_columns, write_log
from tiltkit.reference import REF_ENCODER_PULSES_PER_REV as N_REF


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


tmp = sys.argv[1]
cfg = os.path.join(tmp, "run.cfg")
with open(cfg, "w") as fh:
    fh.write("dt_ms=10\nN_drive=65536\nduration_s=0.5\nseed=1\nvariant=wb\n"
             "alpha=0.00185\nbeta=-0.00018\nopt_max_iterations=4\nopt_restarts=1\n")
out = os.path.join(tmp, "out")
log = os.path.join(out, "log.csv")
codes = [
    main(["simulate", "--config", cfg, "--out", out]),
    main(["run", "--config", cfg, "--out", out, "--log", log]),
    main(["eval", "--config", cfg, "--out", out, "--log", os.path.join(out, "estimate.csv"),
          "--truth", os.path.join(out, "truth.csv")]),
    main(["spectrum", "--config", cfg, "--out", out, "--log", log]),
    main(["calibrate", "--config", cfg, "--out", out, "--log", log]),
]

# attach a reference channel: deflection calibrate and tune fit against it
raw = parse_log(log)
phi = read_columns(os.path.join(out, "truth.csv"))["phi_deg"]
raw.ref_count = np.diff(np.round(phi * N_REF / 360.0).astype(np.int64), prepend=0)
train = os.path.join(tmp, "train.csv")
write_log(train, raw)
codes.append(main(["calibrate", "--config", cfg, "--out", os.path.join(tmp, "deflection"),
                   "--log", train]))
codes.append(main(["tune", "--config", cfg, "--out", os.path.join(tmp, "tuned_lowpass"),
                   "--log", train, "--variant", "lowpass"]))
codes.append(main(["tune", "--config", cfg, "--out", os.path.join(tmp, "tuned_wb"),
                   "--log", train]))
after = scipy_modules()

# control: the same check sees scipy once something does load it
import scipy.optimize
control = scipy_modules()
print(json.dumps({"codes": codes, "after": after, "control": control}))
"""


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_no_command_loads_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 8
    assert report["after"] == []
    assert "scipy.optimize" in report["control"]


def test_python_m_cli_runs_without_a_warning(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt_ms=10\nN_drive=2000\nduration_s=0.5\nseed=1\n")
    proc = subprocess.run([sys.executable, "-m", "tiltkit.cli", "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "out" / "log.csv").exists()
