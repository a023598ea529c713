"""tiltkit: tilt measurement toolkit for a two-wheeled balancing robot.

Sensor simulation (``model``), deterministic measurement correction
(``correction``), a family of discrete tilt filters (``filters``),
MSE-based calibration and tuning (``tuning``), signal diagnostics and
reporting (``analysis``), plus CSV/config plumbing (``logio``, ``config``),
the errors they raise (``errors``) and the rig constants (``reference``).
Names are imported from their modules, for example
``from tiltkit.model import simulate_run``.  The batch CLI (``cli``) is
not imported here, so ``python -m tiltkit.cli`` runs without warning.
"""

from . import analysis, config, correction, errors, filters, logio, model, reference, tuning

__version__ = "0.1.0"
