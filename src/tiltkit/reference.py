"""Reference constants measured on the original MPU6050 balancing-robot rig.

These numbers describe one concrete sensor set and its tuned processing
chain.  They serve as defaults for synthetic data generation, as seeds for
the tuners, and as fixtures for the regression suite.  None of them is
required for using the library with a different rig; every value is
overridable through :class:`tiltkit.model.GyroErrorModel`,
:class:`tiltkit.model.AccelErrorModel` and
:class:`tiltkit.correction.CorrectionParams`.
"""

from dataclasses import dataclass, field

GRAVITY = 9.80665  # m/s^2, standard gravity

# MPU6050 configuration used on the rig: +/-250 deg/s and +/-2 g full scale.
GYRO_SATURATION_DPS = 250.0
ACCEL_SATURATION_MPS2 = 2.0 * GRAVITY

# Geometry of the rig.
SENSOR_DISTANCE_M = 0.135      # distance of the IMU from the wheel axis
WHEEL_RADIUS_M = 0.0375
REF_ENCODER_PULSES_PER_REV = 2000

# Static calibration results (two-hour stationary logs).
GYRO_BIAS_DPS = -1.91195
GYRO_STATIC_MIN_DPS = -2.45802
GYRO_STATIC_MAX_DPS = -1.41985
ACCEL_BIAS_X_MPS2 = -0.02340
ACCEL_BIAS_Y_MPS2 = -0.63629
ACCEL_STATIC_Y_MIN_MPS2 = 8.98132
ACCEL_STATIC_Y_MAX_MPS2 = 9.39087
ACCEL_STATIC_X_MIN_MPS2 = -0.14610
ACCEL_STATIC_X_MAX_MPS2 = 0.14370

# Noise levels adopted for synthetic logs.  The gyro value is roughly one
# sixth of the static min-to-max spread above; the accelerometer value is a
# plausible MEMS figure chosen for the bundled fixtures.
GYRO_NOISE_STD_DPS = 0.17
ACCEL_NOISE_STD_MPS2 = 0.1

# Degree-5 scale-factor polynomials, zero intercept, argument is the
# bias-corrected measurement.  Coefficient i multiplies p**(i+1).
SCALE_POLY_X = (0.04537, -0.00576, -0.00143, 0.00005, 0.00001)
SCALE_POLY_Y = (0.12723, -0.05823, 0.00930, -0.00068, 0.00002)

# Acceleration MSE on the calibration trajectories, bias-only versus with
# the polynomial correction applied.
ACCEL_MSE_BIAS_ONLY = {"x": 0.04817, "y": 0.03465}
ACCEL_MSE_CORRECTED = {"x": 0.02720, "y": 0.02898}


@dataclass(frozen=True)
class LowpassTuning:
    """Tuned low-pass constants for one sample time, plus the tilt MSE
    measured on the rig before and after the deterministic correction."""

    dt_ms: float
    T_omega: float
    T_v: float
    mse_raw_arctan: float
    mse_corrected: float


# One row per sample time.  Note the negative T_v in the 20 ms row: the
# recurrence stays contractive as long as T_v > -dt/2, so the value is kept
# as tuned rather than clamped.
LOWPASS_TUNINGS = (
    LowpassTuning(2.0, 0.06874, 0.04607, 150.56951, 72.52314),
    LowpassTuning(5.0, 0.02392, 0.02031, 515.27065, 222.05807),
    LowpassTuning(10.0, 0.02557, 0.02045, 377.39749, 174.45667),
    LowpassTuning(20.0, 0.00774, -0.00065, 280.23692, 110.55792),
)


@dataclass(frozen=True)
class ReferenceTuning:
    """One tuned filter row: variant, sample time, parameters and the MSE
    obtained on the training and verification trajectories of the rig."""

    variant: str
    dt_ms: float
    params: dict = field(default_factory=dict)
    mse_training: float = float("nan")
    mse_verification: float = float("nan")


# Covariances obtained from the stationary-noise analysis (as opposed to the
# optimised kalman_star rows below).
KALMAN_NOISE_ANALYSIS = {"q1": 0.01076, "q2": 0.0, "r": 0.02792}

# The kalman rows at 5/10/20 ms reuse the noise-analysis covariances; the
# source table lists them once because the analysis does not depend on the
# sample time.
#
# Every parameter is printed to five decimals, so a gain printed as 0.0
# stands for any value in (-5e-6, 5e-6).  The gains printed as 0.0 are the
# wb 10/20 ms betas, the abtg 10 ms beta and every wa_a theta.  As printed,
# those rows classify marginal (wb, wa_a: an eigenvalue exactly at 1) or
# unstable (abtg 10 ms: with beta = 0 the rate eigenvalue is 1 - gamma, and
# gamma is -0.00002, so max |lambda| = 1.00002).  That is a rounding artifact:
# moving only the zero-printed gain within its rounding interval (a beta of
# -4.99e-6, a theta of +4.99e-6) makes each of them strictly stable.
FILTER_TUNINGS = (
    ReferenceTuning("wob", 2.0, {"alpha": 0.00227, "beta": 1.58242}, 1.98686, 0.82071),
    ReferenceTuning("wob", 5.0, {"alpha": 0.00866, "beta": 1.12381}, 6.18150, 3.07579),
    ReferenceTuning("wob", 10.0, {"alpha": 0.00103, "beta": 1.67836}, 1.60046, 11.94604),
    ReferenceTuning("wob", 20.0, {"alpha": 0.00165, "beta": 1.84408}, 2.32469, 3.34761),
    ReferenceTuning("wb", 2.0, {"alpha": 0.00185, "beta": -0.00018}, 1.93816, 0.78603),
    ReferenceTuning("wb", 5.0, {"alpha": 0.00858, "beta": -0.00007}, 6.16623, 3.05931),
    ReferenceTuning("wb", 10.0, {"alpha": 0.00080, "beta": 0.0}, 1.73683, 14.17050),
    ReferenceTuning("wb", 20.0, {"alpha": 0.00171, "beta": 0.0}, 3.07329, 4.05407),
    ReferenceTuning("abtg", 2.0,
                    {"alpha": 0.00204, "beta": -0.00001, "theta": 1.07026, "gamma": -0.00013},
                    0.74852, 1.33160),
    ReferenceTuning("abtg", 5.0,
                    {"alpha": 0.00668, "beta": -0.00005, "theta": 1.05866, "gamma": 0.00007},
                    3.91003, 2.12875),
    ReferenceTuning("abtg", 10.0,
                    {"alpha": 0.00088, "beta": 0.0, "theta": 1.05141, "gamma": -0.00002},
                    0.61819, 12.05841),
    ReferenceTuning("abtg", 20.0,
                    {"alpha": 0.00391, "beta": -0.00406, "theta": -0.04194, "gamma": 1.87665},
                    2.32142, 3.34578),
    ReferenceTuning("wa_a", 2.0, {"alpha": 0.00169, "beta": 1.21567, "theta": 0.0}, 1.94261, 0.86258),
    ReferenceTuning("wa_a", 5.0, {"alpha": 0.00850, "beta": 1.12964, "theta": 0.0}, 6.16275, 3.07526),
    ReferenceTuning("wa_a", 10.0, {"alpha": 0.00080, "beta": 1.67821, "theta": 0.0}, 1.58494, 13.92453),
    ReferenceTuning("wa_a", 20.0, {"alpha": 0.00165, "beta": 1.84410, "theta": 0.0}, 2.32469, 3.34753),
    ReferenceTuning("wa_b", 2.0, {"alpha": 0.00315, "beta": 0.28647, "theta": 0.00673}, 1.87487, 1.12021),
    ReferenceTuning("wa_b", 5.0, {"alpha": 0.00911, "beta": 0.32710, "theta": 0.01188}, 5.43600, 2.81706),
    ReferenceTuning("wa_b", 10.0, {"alpha": 0.00104, "beta": 0.69743, "theta": 0.06346}, 1.33276, 11.34403),
    ReferenceTuning("wa_b", 20.0, {"alpha": 0.00168, "beta": 1.01622, "theta": 0.17281}, 2.06774, 3.07125),
    ReferenceTuning("kalman", 2.0, dict(KALMAN_NOISE_ANALYSIS), 6.88674, 11.08092),
    ReferenceTuning("kalman", 5.0, dict(KALMAN_NOISE_ANALYSIS), 9.45858, 6.80941),
    ReferenceTuning("kalman", 10.0, dict(KALMAN_NOISE_ANALYSIS), 9.41660, 6.79686),
    ReferenceTuning("kalman", 20.0, dict(KALMAN_NOISE_ANALYSIS), 7.98366, 12.38334),
    ReferenceTuning("kalman_star", 2.0, {"q1": 0.00001, "q2": 0.0, "r": 2.30640}, 1.94297, 0.79206),
    ReferenceTuning("kalman_star", 5.0, {"q1": 0.00112, "q2": 0.0, "r": 17.16979}, 6.17602, 3.03979),
    ReferenceTuning("kalman_star", 10.0, {"q1": 0.0, "q2": 0.0, "r": 2.25847}, 1.73928, 13.73496),
    ReferenceTuning("kalman_star", 20.0, {"q1": 0.00001, "q2": 0.0, "r": 2.92997}, 3.07025, 4.10513),
    ReferenceTuning("complementary", 2.0, {"T_c": 1.06895}, 2.01177, 0.82619),
    ReferenceTuning("complementary", 5.0, {"T_c": 0.60307}, 6.39301, 3.38819),
    ReferenceTuning("complementary", 10.0, {"T_c": 9.74413}, 1.92216, 12.33891),
    ReferenceTuning("complementary", 20.0, {"T_c": 12.40721}, 3.31344, 4.30363),
)


def lowpass_tuning(dt_ms):
    """Return the :class:`LowpassTuning` row for a sample time in ms."""
    for row in LOWPASS_TUNINGS:
        if row.dt_ms == dt_ms:
            return row
    raise KeyError(f"no low-pass tuning for dt = {dt_ms} ms")


def filter_tuning(variant, dt_ms):
    """Return the :class:`ReferenceTuning` row for (variant, dt_ms)."""
    for row in FILTER_TUNINGS:
        if row.variant == variant and row.dt_ms == dt_ms:
            return row
    raise KeyError(f"no reference tuning for {variant} at dt = {dt_ms} ms")
