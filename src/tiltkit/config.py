"""Flat key=value run configuration.

The format is intentionally plain text so that configs diff cleanly and
can be produced by anything::

    # comment
    dt_ms = 10
    N_drive = 1024
    variant = wb
    alpha = 0.00185
    beta = -0.00018

Floats serialise with ``repr`` so an echoed config re-parses to an equal
:class:`RunConfig`.  ``dt_ms`` and ``N_drive`` are required; the drive
encoder resolution is rig-specific and has no safe default.
"""

from dataclasses import dataclass, fields
from typing import Optional, get_args

import numpy as np

from .correction import CorrectionParams
from .errors import ConfigError, ParameterError, ParseError
from .filters import PARAMS, canonical_variant
from .logio import decoding, number
from .model import AccelErrorModel, GyroErrorModel
from .reference import (
    ACCEL_SATURATION_MPS2,
    GYRO_SATURATION_DPS,
    REF_ENCODER_PULSES_PER_REV,
)
from .tuning import OptimizerConfig


@dataclass
class RunConfig:
    """Everything a batch command needs, resolved and validated."""

    dt_ms: float
    N_drive: int
    seed: int = 0
    duration_s: float = 20.0
    profile: str = "dynamic"          # "zero" | "dynamic"

    gyro_bias_dps: float = 0.0
    gyro_noise_std_dps: float = 0.0
    gyro_saturation_dps: float = GYRO_SATURATION_DPS
    accel_bias_x_mps2: float = 0.0
    accel_bias_y_mps2: float = 0.0
    accel_noise_std_mps2: float = 0.0
    accel_saturation_mps2: float = ACCEL_SATURATION_MPS2
    poly_x_1: float = 0.0
    poly_x_2: float = 0.0
    poly_x_3: float = 0.0
    poly_x_4: float = 0.0
    poly_x_5: float = 0.0
    poly_y_1: float = 0.0
    poly_y_2: float = 0.0
    poly_y_3: float = 0.0
    poly_y_4: float = 0.0
    poly_y_5: float = 0.0

    R_m: float = CorrectionParams.R
    Rw_m: float = CorrectionParams.R_w
    N_ref: int = REF_ENCODER_PULSES_PER_REV
    T_omega_s: float = CorrectionParams.T_omega
    T_v_s: float = CorrectionParams.T_v

    variant: str = "wb"
    alpha: Optional[float] = None
    beta: Optional[float] = None
    theta: Optional[float] = None
    gamma: Optional[float] = None
    T_c: Optional[float] = None
    q1: Optional[float] = None
    q2: Optional[float] = None
    r: Optional[float] = None

    opt_max_iterations: int = 400
    opt_initial_scale: float = 1.0
    opt_tol_f: float = 1e-9
    opt_tol_x: float = 1e-7
    opt_restarts: int = 2

    @property
    def dt(self):
        return self.dt_ms / 1000.0

    def gyro_model(self):
        return GyroErrorModel(bias=self.gyro_bias_dps,
                              noise_std=self.gyro_noise_std_dps,
                              saturation=self.gyro_saturation_dps)

    def accel_model(self):
        return AccelErrorModel(
            bias_x=self.accel_bias_x_mps2, bias_y=self.accel_bias_y_mps2,
            scale_poly_x=self.scale_poly_x(), scale_poly_y=self.scale_poly_y(),
            noise_std=self.accel_noise_std_mps2,
            saturation=self.accel_saturation_mps2)

    def scale_poly_x(self):
        return (self.poly_x_1, self.poly_x_2, self.poly_x_3, self.poly_x_4, self.poly_x_5)

    def scale_poly_y(self):
        return (self.poly_y_1, self.poly_y_2, self.poly_y_3, self.poly_y_4, self.poly_y_5)

    def correction_params(self):
        return CorrectionParams(
            dt=self.dt, N_drive=self.N_drive, gyro_bias=self.gyro_bias_dps,
            accel_bias_x=self.accel_bias_x_mps2, accel_bias_y=self.accel_bias_y_mps2,
            scale_poly_x=self.scale_poly_x(), scale_poly_y=self.scale_poly_y(),
            R=self.R_m, R_w=self.Rw_m, T_omega=self.T_omega_s, T_v=self.T_v_s)

    def filter_params(self):
        """The parameter dict for the configured variant, keyed in
        :data:`tiltkit.filters.PARAMS` order, or None if any of the variant's
        parameters is missing."""
        names = PARAMS[canonical_variant(self.variant)]
        values = {name: getattr(self, name) for name in names}
        if any(v is None for v in values.values()):
            return None
        return values

    def optimizer_config(self):
        return OptimizerConfig(max_iterations=self.opt_max_iterations,
                               initial_scale=self.opt_initial_scale,
                               tol_f=self.opt_tol_f, tol_x=self.opt_tol_x,
                               restarts=self.opt_restarts, seed=self.seed)

    def to_text(self):
        """Serialise as key=value lines, unset keys left out; a float prints
        as its repr, so the text re-parses exactly."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{name}={value}\n" for name, value in values if value is not None)


# Each key's value type, int, str or float, as RunConfig annotates it
# (an Optional[float] key is a float one).
_KEY_TYPES = {f.name: (get_args(f.type) or (f.type,))[0] for f in fields(RunConfig)}


def parse_config_text(text):
    """Parse key=value text into a :class:`RunConfig`.  Each key may be set
    once, and an int or float value follows :func:`tiltkit.logio.number`."""
    values, key_lines = {}, {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=line_no)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TYPES:
            raise ParseError(f"unknown configuration key {key!r}", line=line_no)
        if key in key_lines:
            raise ParseError(f"key {key!r} is set twice, on lines {key_lines[key]} and {line_no}",
                             line=line_no)
        key_lines[key] = line_no
        kind = _KEY_TYPES[key]
        try:
            values[key] = kind(val) if kind is str else number(val, kind)
        except ValueError:
            raise ParseError(f"bad value {val!r} for key {key!r}", line=line_no) from None
    missing = {"dt_ms", "N_drive"} - values.keys()
    if missing:
        raise ParseError(f"missing required keys: {', '.join(sorted(missing))}")
    return RunConfig(**values)


def load_config(path):
    with decoding(path), open(path) as fh:
        text = fh.read()
    return parse_config_text(text)


def check_dt_matches(config, t):
    """Raise :class:`ConfigError` when the timestamp column ``t`` does not
    increase at every sample, or when its median step disagrees with the
    configured sample period (relative tolerance 1e-6)."""
    if len(t) < 2:
        raise ParameterError("cannot infer dt from fewer than two samples")
    steps = np.diff(t)
    bad = np.flatnonzero(~(steps > 0))
    if bad.size:
        k = bad[0] + 1
        raise ConfigError(f"t does not increase at sample {k}: "
                          f"{float(t[k])!r} after {float(t[k - 1])!r}")
    log_dt = float(np.median(steps))
    if abs(log_dt - config.dt) > 1e-6 * max(log_dt, config.dt):
        raise ConfigError(
            f"configured dt is {config.dt} s but the log is sampled at "
            f"{log_dt} s")
