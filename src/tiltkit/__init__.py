"""tiltkit: tilt measurement toolkit for a two-wheeled balancing robot.

Sensor simulation (``model``), deterministic measurement correction
(``correction``), a family of discrete tilt filters (``filters``),
MSE-based calibration and tuning (``tuning``), signal diagnostics and
reporting (``analysis``), plus CSV/config plumbing (``logio``, ``config``)
and a batch CLI (``cli``), not imported here, so ``python -m tiltkit.cli`` runs without warning.
"""

from . import analysis, config, correction, filters, logio, model, reference, tuning
from .analysis import Report, Spectrum, make_report, mse, noise_spectrum, snr_db, spectrum_area
from .config import RunConfig, load_config, parse_config_text
from .correction import (
    CorrectedSample,
    CorrectionParams,
    CorrectionState,
    correct_accel,
    correct_gyro,
    correction_pipeline_step,
    discrete_derivative,
    encoder_velocity,
    lowpass_step,
    run_correction,
)
from .errors import (
    ConfigError,
    FilterConfigError,
    FilterDesignError,
    OptimizationFailure,
    OrderingError,
    ParameterError,
    ParseError,
    SimulationError,
    TiltkitError,
)
from .filters import (
    FilterSpec,
    FilterState,
    KalmanState,
    StabilityReport,
    check_stability,
    filter_step,
    kalman_init_P,
    kalman_step,
    make_filter,
    make_kalman_state,
    run_filter,
)
from .logio import RawLog, RawSample, TruthLog, parse_log, write_log, write_truth
from .model import (
    AccelErrorModel,
    GyroErrorModel,
    MotionProfile,
    default_dynamic_profile,
    simulate_run,
    zero_motion_profile,
)
from .tuning import (
    OptimizerConfig,
    TuningResult,
    estimate_static_bias,
    fit_scale_factor,
    nelder_mead,
    tune_filter,
    tune_time_constants,
)

__version__ = "0.1.0"
