"""Calibration and parameter optimisation by MSE minimisation.

All tuners share one derivative-free simplex search (Nelder-Mead, the same
family of algorithm the original rig tuning used), run as best-of-restarts
from seeded perturbations.  Objectives return ``inf`` outside their
feasible region (non-contractive low-pass constants, unstable filter
gains), which the simplex handles by reflecting away.

The simplex pass repeats scipy's Nelder-Mead (without bounds or adaptive
coefficients) step for step, so the package needs numpy alone.  It takes
no evaluation cap (scipy's ``maxfev``): an iteration makes at most N+2
evaluations, so ``max_iterations`` already bounds a pass's cost.
The scale-factor fit is linear least squares and needs no search.

Each tuner takes columns, never per-sample objects: a channel array, an
(n, 2) array of (p, a_ref) rows, a RawLog or a (phi_bar, rate_bar) pair.

Determinism: every tuner is a pure function of (data, config); restart
perturbations come from a generator seeded by ``OptimizerConfig.seed``.
Objective evaluations are pure over immutable inputs, so candidates could
be evaluated concurrently; the simplex update itself is sequential.
"""

from dataclasses import dataclass, replace
from math import fsum, isfinite

import numpy as np

from .analysis import mse
from .correction import run_correction_arrays
from .errors import (
    FilterConfigError,
    FilterDesignError,
    OptimizationFailure,
    ParameterError,
)
from .filters import (
    KALMAN_VARIANTS,
    PARAMS,
    canonical_variant,
    check_stability,
    checked_arrays,
    convolution_filter,
    make_filter,
    run_filter_arrays,
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the simplex search.

    ``initial_scale`` sets the per-coordinate simplex step: scale times
    |x0_i|, or scale/100 for coordinates that start at zero.  ``restarts``
    is the total number of passes; passes after the first start from a
    seeded perturbation of the best point so far and the best result wins.
    """

    max_iterations: int = 2000
    initial_scale: float = 1.0
    tol_f: float = 1e-12
    tol_x: float = 1e-10
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, tol in (("tol_f", self.tol_f), ("tol_x", self.tol_x)):
            if not 0 < tol < float("inf"):
                raise ParameterError(f"{name} must be positive and finite, got {tol!r}")
        if not 0 < self.initial_scale < float("inf"):
            raise ParameterError(
                f"initial_scale must be positive and finite, got {self.initial_scale!r}")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ParameterError("max_iterations and restarts must be >= 1")
        if not self.seed >= 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptResult:
    """Best point found by :func:`nelder_mead`."""

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def _simplex_steps(x, scale):
    """Simplex step per coordinate: ``scale*|x_i|``, or ``scale*0.01`` at zero."""
    return scale * np.where(x == 0.0, 0.01, np.abs(x))


def _initial_simplex(x0, scale):
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] += _simplex_steps(x0, scale)  # the diagonal only
    return sim


def _simplex_pass(objective, sim, f0, max_iterations, xatol, fatol):
    """One Nelder-Mead pass over the (N+1, N) simplex ``sim``, whose vertex 0
    has the value ``f0``; returns (x, fun, iterations, converged).

    Reflection 1, expansion 2, contraction and shrink 0.5, with scipy's
    expressions, comparisons and sorts, so the result is scipy's bit for bit.
    """
    n = sim.shape[1]
    fsim = np.array([f0] + [objective(v) for v in sim[1:]], dtype=float)
    ind = np.argsort(fsim)  # scipy sorts the first simplex twice
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while True:
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if iterations >= max_iterations or (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = objective(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = objective(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = objective(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = objective(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = objective(sim[j])
        iterations += 1
    return sim[0], np.min(fsim), iterations, iterations < max_iterations


def nelder_mead(objective, x0, cfg: OptimizerConfig):
    """Minimise ``objective`` from ``x0`` with restarts; returns OptResult.

    ``cfg`` sets the pass count, the simplex step, the stop test and the
    restart seed; there is no default search.  Raises
    :class:`OptimizationFailure` when no trial start produces a finite
    objective value.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rng = np.random.default_rng(cfg.seed)

    best = None
    iterations = 0
    start = x0
    for _ in range(cfg.restarts):
        f0 = objective(start)
        if isfinite(f0):
            x, fun, nit, converged = _simplex_pass(
                objective, _initial_simplex(start, cfg.initial_scale), f0,
                cfg.max_iterations, cfg.tol_x, cfg.tol_f)
            iterations += nit
            if best is None or fun < best.fun:
                best = OptResult(x=x, fun=float(fun), iterations=iterations,
                                 converged=converged)
        anchor = x0 if best is None else best.x
        steps = _simplex_steps(anchor, cfg.initial_scale)
        start = anchor + rng.uniform(-0.5, 0.5, len(anchor)) * steps

    if best is None:
        raise OptimizationFailure("objective was non-finite at every trial start")
    best.iterations = iterations
    return best


@dataclass(frozen=True)
class BiasEstimate:
    """Mean of a static channel plus the spread diagnostics used to judge
    whether treating the bias as constant is reasonable."""

    bias: float
    minimum: float
    maximum: float
    window_means: tuple


BIAS_WINDOW = 100_000  # samples per block of BiasEstimate.window_means


def estimate_static_bias(values):
    """Bias of a channel recorded at rest: its compensated-sum mean.

    ``values`` is the channel's 1-D column (e.g. ``RawLog.gyro_dps``).
    Diagnostics report the min, max and the means over consecutive
    BIAS_WINDOW-sample blocks (a single block when the log is shorter than
    one window), so a caller can reject drifting logs.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ParameterError(f"a bias needs a nonempty 1-D column, got shape {values.shape}")
    n = values.size
    bias = fsum(values) / n
    n_windows = n // BIAS_WINDOW
    if n_windows == 0:
        means = (bias,)
    else:
        means = tuple(fsum(values[i * BIAS_WINDOW:(i + 1) * BIAS_WINDOW]) / BIAS_WINDOW
                      for i in range(n_windows))
    return BiasEstimate(bias=bias, minimum=float(np.min(values)),
                        maximum=float(np.max(values)), window_means=means)


@dataclass
class ScaleFactorFit:
    """Recovered scale-factor polynomial and the MSE it achieves."""

    coefficients: tuple
    mse: float


def fit_scale_factor(pairs, degree=5):
    """Fit the zero-intercept error polynomial from (p, a_ref) pairs.

    ``p`` is the bias-corrected measurement, ``a_ref`` the reference
    acceleration; the fit minimises the MSE between p - S(p) and a_ref.
    That MSE is linear least squares in the coefficients, so
    ``np.linalg.lstsq`` gives the optimum directly.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("pairs must be an (n, 2) array of (p, a_ref) rows")
    if not 1 <= degree <= 10:
        raise ParameterError(f"degree must be in 1..10, got {degree}")
    p = arr[:, 0]
    a_ref = arr[:, 1]
    if np.unique(p).size < degree + 1:
        raise ParameterError(
            f"need at least {degree + 1} distinct p values to fit degree {degree}")

    powers = np.vander(p, degree + 1, increasing=True)[:, 1:]  # p^1 .. p^degree
    target = p - a_ref

    c, *_ = np.linalg.lstsq(powers, target, rcond=None)
    resid = target - powers @ c
    return ScaleFactorFit(coefficients=tuple(float(v) for v in c),
                          mse=float(resid @ resid) / len(resid))


@dataclass
class TimeConstantResult:
    T_omega: float
    T_v: float
    mse: float
    opt: OptResult


def tune_time_constants(log, ref_phi, params, cfg: OptimizerConfig, x0=None):
    """Pick the two low-pass constants minimising corrected-tilt MSE.

    ``cfg`` is the search's :class:`OptimizerConfig`; ``x0`` defaults to
    (2*dt, 2*dt).  The objective is inf where :class:`CorrectionParams`
    refuses a constant (dt + 2*T <= 0, a non-contractive low-pass).  A
    non-finite ``params.gyro_bias`` is refused before the search: every
    trial would be non-finite.
    """
    ref = np.asarray(ref_phi, dtype=float)
    if len(ref) != len(log):
        raise ParameterError("log and reference must have equal length")
    if not isfinite(params.gyro_bias):
        raise ParameterError(f"gyro_bias must be finite, got {params.gyro_bias!r}")

    def objective(T):
        try:
            trial = replace(params, T_omega=float(T[0]), T_v=float(T[1]))
        except ParameterError:  # CorrectionParams owns the contractive bound
            return float("inf")
        phi_bar, _ = run_correction_arrays(log, trial)
        return mse(ref, phi_bar)

    if x0 is None:
        x0 = (2.0 * params.dt, 2.0 * params.dt)
    opt = nelder_mead(objective, x0, cfg)
    return TimeConstantResult(T_omega=float(opt.x[0]), T_v=float(opt.x[1]),
                              mse=opt.fun, opt=opt)


@dataclass
class TuningResult:
    """Outcome of one filter tuning run."""

    variant: str
    dt: float
    parameters: dict
    training_mse: float
    verification_mse: float = float("nan")
    iterations: int = 0
    converged: bool = False
    stability_report: object = None

    def __post_init__(self):
        if self.training_mse < 0:
            raise ParameterError("training_mse cannot be negative")


# Seed of each variant's search, in filters.PARAMS order.
_DEFAULT_X0 = {
    "wob": (0.1, 0.1),
    "wb": (0.01, -0.0001),
    "abtg": (0.01, -0.0001, 0.5, 0.01),
    "wa_a": (0.01, 0.5, 0.001),
    "wa_b": (0.01, 0.5, 0.01),
    "complementary": (1.0,),
    "kalman": (0.01, 0.0001, 1.0),
    "kalman_star": (0.01, 0.0001, 1.0),
}


def tune_filter(variant, corrected, ref_phi, dt, cfg: OptimizerConfig, x0=None,
                kalman_init_gains=None, verification=None):
    """Minimise estimate MSE over a variant's parameters.

    ``cfg`` is the search's :class:`OptimizerConfig`; ``x0`` defaults to
    the variant's seed in ``_DEFAULT_X0``.  Fixed-gain variants search
    their named gains directly and reject candidates that
    :func:`check_stability` classifies ``unstable``; the kalman variants
    search (q1, q2, r) through a squared reparameterisation that keeps
    them nonnegative, optionally pinning the first gain to
    ``kalman_init_gains`` = (alpha0, beta0).

    The search scores a fixed-gain candidate from
    :func:`convolution_filter`, whose estimates equal the filter loop's to
    rounding only, and a kalman candidate from :func:`run_filter_arrays`.
    The reported ``training_mse`` and ``verification_mse`` both come from
    :func:`run_filter_arrays` at the chosen point, so they are the MSEs
    that ``run`` gives there.  A near-tie between candidates may resolve
    differently than it would on the loop's MSEs, which can move the
    chosen point but not what is reported for it.

    ``corrected`` is a (phi_bar, rate_bar) column pair.  ``verification``,
    when given, is a second (corrected, ref_phi) set evaluated once at the
    tuned parameters.  Both streams (:func:`checked_arrays`) and both
    reference lengths are checked before the search.
    """
    variant = canonical_variant(variant)
    phi_bar, rate_bar = checked_arrays(*corrected)
    ref = np.asarray(ref_phi, dtype=float)
    if len(ref) != len(phi_bar):
        raise ParameterError("stream and reference must have equal length")
    if verification is not None:
        v_phi, v_rate = checked_arrays(*verification[0])
        v_ref = np.asarray(verification[1], dtype=float)
        if len(v_ref) != len(v_phi):
            raise ParameterError(f"verification reference has {len(v_ref)} samples, "
                                 f"its stream {len(v_phi)}")

    names = PARAMS[variant]
    is_kalman = variant in KALMAN_VARIANTS
    if is_kalman:
        def estimates(spec):
            return run_filter_arrays(spec, phi_bar, rate_bar)
    else:
        estimates = convolution_filter(variant, phi_bar, rate_bar)

    def params_from_vector(vec):
        if is_kalman:
            p = {name: float(v) * float(v) for name, v in zip(names, vec)}
            if kalman_init_gains is not None:
                p["alpha0"], p["beta0"] = kalman_init_gains
            return p
        return {name: float(v) for name, v in zip(names, vec)}

    def objective(vec):
        p = params_from_vector(vec)
        try:
            spec = make_filter(variant, p, dt)
            if not is_kalman:
                if check_stability(spec).classification == "unstable":
                    return float("inf")
            est = estimates(spec)
        except (ParameterError, FilterConfigError, FilterDesignError):
            return float("inf")
        err = mse(ref, est)
        return err if isfinite(err) else float("inf")

    if x0 is None:
        x0 = _DEFAULT_X0[variant]
    vec0 = np.asarray(x0, dtype=float)
    if is_kalman:
        if np.any(vec0 < 0):
            raise ParameterError("kalman seeds (q1, q2, r) must be nonnegative")
        vec0 = np.sqrt(vec0)

    try:
        opt = nelder_mead(objective, vec0, cfg)
    except OptimizationFailure:
        raise OptimizationFailure(
            f"no stable {variant} parameters found from seed {list(x0)}") from None

    params = params_from_vector(opt.x)
    spec = make_filter(variant, params, dt)
    report = None if is_kalman else check_stability(spec)
    training_mse = mse(ref, run_filter_arrays(spec, phi_bar, rate_bar))
    result = TuningResult(variant=variant, dt=dt, parameters=params,
                          training_mse=training_mse, iterations=opt.iterations,
                          converged=opt.converged, stability_report=report)
    if verification is not None:
        est = run_filter_arrays(spec, v_phi, v_rate)
        result.verification_mse = mse(v_ref, est)
    return result
