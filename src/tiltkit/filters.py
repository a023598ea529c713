"""Discrete linear tilt filters in the unified gain form.

Every variant is expressed as

    x_hat(k) = [A - KCA] x_hat(k-1) + [B - KCB] u(k-1) + K y_bar(k)

with variant-specific A, B, C, K.  Fixed-gain variants:

``wob``            two states [phi, phi_dot], measurements [phi_bar,
                   rate_bar], gains diag(alpha, beta).
``wb``             two states [phi, gyro-bias], rate input, tilt
                   measurement, gains [alpha, beta].
``abtg``           like ``wob`` but with the full 2x2 gain matrix
                   [[alpha, theta*dt], [beta/dt, gamma]].
``wa_a``/``wa_b``  three states [phi, phi_dot, phi_ddot]; the acceleration
                   is corrected from the tilt residual (a: gain theta/dt^2)
                   or the rate residual (b: gain theta/dt).
``complementary``  one state, current-sample inputs [phi_bar, rate_bar],
                   coefficients T_c/(dt+T_c) and dt/(dt+T_c); C = K = 0.

``kalman`` and ``kalman_star`` share the ``wb`` structure but recompute the
gain each step from the covariance recursion (identical algorithms, the
tags record whether the covariances came from noise analysis or from
optimisation).  The gain sequence depends only on (q1, q2, r, P0, dt) and
never on the data.  The scalar covariance recursion is written twice: in
the generator :func:`_kalman_gains`, which the steady-state search draws
from, and inline in the filter loop, where drawing from the generator cost
a Python call per sample; the tests hold the loop to the generator bit for
bit.  P0 is part of the spec: it comes from :func:`kalman_init_P` when the
spec carries ``alpha0``/``beta0`` (the first gain then equals them), else
it is the identity, and no function takes another.  :func:`kalman_step` is
the matrix-form reference of one cycle: covariance prediction uses
A P A^T + Q and P is re-symmetrised after every update to suppress
floating-point drift.

``PARAMS`` names each variant's parameters in the order the tuner searches
them; every other per-variant parameter list is derived from it.  Specs
refuse NaN and infinite parameters.

Stability of a spec is judged from the eigenvalues of [A - KCA]: strictly
stable when every magnitude is below 1 - 1e-9, marginal when the largest
magnitude sits within 1e-9 of one, unstable above 1 + 1e-9 or when any
magnitude is not finite.  Eigenvalues come from ``np.linalg.eigvals``,
as Python complex numbers; LAPACK refuses a matrix holding NaN or inf, so
such a matrix reports NaN eigenvalues instead.  For the kalman variants
the check runs the covariance recursion until the gain settles
(tolerance 1e-12, capped at 50000 iterations) and evaluates the error
dynamics at that gain.  With q2 = 0 the bias gain only decays towards
zero and never meets the tolerance, so the check always stops at the cap;
on the published rows it reports max |lambda| = 1 - c/50000 with c
between 1 and 3, a verdict set by the cap rather than by the filter.

A corrected stream enters as its phi_bar and rate_bar columns, which
:func:`checked_arrays` refuses when empty, unequal or non-finite.
:func:`run_filter_arrays` runs every fixed-gain variant through one loop
over plain floats, x(k) = M x(k-1) + G [a(k), b(k)] with M = A - KCA and
the state padded to three components: ``wb`` takes G = [B - KCB | K] on
(rate_bar(k-1), phi_bar(k)), the others G = B (complementary) or K on
(phi_bar(k), rate_bar(k)).  The padding adds exact zeros: an exact -0.0
estimate may read +0.0, and after a diverging filter overflows, a padded
zero times inf gives NaN where the estimate could have stayed +-inf.
:func:`_fixed_gain_form` makes these per-variant choices for both paths.

The same filters are linear and time-invariant, so
:func:`convolution_filter` computes the loop's estimates as a convolution,

    estimate(k) = (M^k x0)[0] + sum_{j=1..k} (M^(k-j) G)[0] [a(j), b(j)]^T:

the rows e1^T M^m by doubling (about log2(n) small matmuls; powers, not an
eigendecomposition, because M can be defective, as for ``wb`` with
alpha = beta = 0), then one rfft of the impulse response against the input
pair's rffts, taken once per stream.  The tuner scores its fixed-gain
candidates this way (Oppenheim & Schafer, *Discrete-Time Signal
Processing*, fast convolution with the DFT); ``run`` and every reported MSE
stay on the loop.  The sums are reassociated, so the result is not the
loop's bit for bit.  On specs :func:`check_stability` does not call
unstable the tests hold the difference to 1e-11 times the stream's largest
magnitude; over 1,738 random stable specs and streams of up to 3,000
samples it was at most 1.3e-14 times that.  On an unstable spec the powers
grow and so does the error, which is why the tuner only convolves
candidates that pass that check.

Specs are immutable and shareable; filter/Kalman states are single-owner
sequential values, so many (spec, log) pairs can be evaluated in parallel.
"""

from dataclasses import dataclass, field
from itertools import count, islice
from math import isfinite
from typing import Optional

import numpy as np

from .correction import check_lowpass_bound
from .errors import FilterConfigError, FilterDesignError, ParameterError

WOB = "wob"
WB = "wb"
ABTG = "abtg"
WA_A = "wa_a"
WA_B = "wa_b"
COMPLEMENTARY = "complementary"
KALMAN = "kalman"
KALMAN_STAR = "kalman_star"

# Each variant's parameters, in the order the tuner searches them.
PARAMS = {
    WOB: ("alpha", "beta"),
    WB: ("alpha", "beta"),
    ABTG: ("alpha", "beta", "theta", "gamma"),
    WA_A: ("alpha", "beta", "theta"),
    WA_B: ("alpha", "beta", "theta"),
    COMPLEMENTARY: ("T_c",),
    KALMAN: ("q1", "q2", "r"),
    KALMAN_STAR: ("q1", "q2", "r"),
}
KALMAN_VARIANTS = (KALMAN, KALMAN_STAR)
FIXED_GAIN_VARIANTS = tuple(v for v in PARAMS if v not in KALMAN_VARIANTS)
ALL_VARIANTS = tuple(PARAMS)
_KALMAN_INIT_GAINS = frozenset({"alpha0", "beta0"})  # optional first gain

_STABILITY_TOL = 1e-9
_RICCATI_TOL = 1e-12
_RICCATI_MAX_ITER = 50_000
_INIT_P_MARGIN = 1e-9


def canonical_variant(name):
    """Normalise a variant name ('WA-a', 'kalman*', ...) to its tag."""
    tag = str(name).strip().lower().replace("-", "_").replace("*", "_star")
    if tag not in ALL_VARIANTS:
        raise FilterConfigError(f"unknown filter variant {name!r}; "
                                f"choose from {', '.join(ALL_VARIANTS)}")
    return tag


@dataclass(frozen=True)
class FilterSpec:
    """Matrices and metadata of one filter variant at one sample time."""

    variant: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    K: Optional[np.ndarray]
    dt: float
    params: dict = field(default_factory=dict)

    @property
    def n_states(self):
        return self.A.shape[0]


@dataclass
class FilterState:
    """State vector of a fixed-gain filter; component 0 is the tilt estimate."""

    x_hat: np.ndarray


@dataclass
class KalmanState:
    """State, covariance and noise model of the time-varying filter."""

    x_hat: np.ndarray          # [phi_hat (deg), bias_hat (deg/s)]
    P: np.ndarray              # 2x2 estimate covariance
    Q: np.ndarray              # 2x2 process covariance, diag(q1*dt, q2)
    r: float                   # scalar measurement variance
    K_current: Optional[np.ndarray] = None  # last gain, 2-vector

    def __post_init__(self):
        if self.r < 0:
            raise ParameterError("measurement variance r must be >= 0")
        if self.Q[0, 0] < 0 or self.Q[1, 1] < 0:
            raise ParameterError("process covariances must be >= 0")


def make_filter(variant, params, dt):
    """Build the :class:`FilterSpec` of a variant from its named scalars.

    Raises :class:`FilterConfigError` when the parameter set does not match
    the variant (each variant's set is part of the error message) or when a
    parameter is NaN or infinite.
    """
    variant = canonical_variant(variant)
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    required = frozenset(PARAMS[variant])
    optional = _KALMAN_INIT_GAINS if variant in KALMAN_VARIANTS else frozenset()
    given = frozenset(params)
    if not (required <= given <= required | optional):
        raise FilterConfigError(
            f"variant {variant} takes parameters {sorted(required)}"
            + (f" (optional: {sorted(optional)})" if optional else "")
            + f", got {sorted(given)}")
    p = dict(params)
    bad = sorted(name for name, value in p.items() if not isfinite(value))
    if bad:
        raise FilterConfigError(
            f"variant {variant} needs finite parameters, got "
            + ", ".join(f"{name}={p[name]!r}" for name in bad))

    if variant in (WOB, ABTG):
        A = np.array([[1.0, dt], [0.0, 1.0]])
        B = np.zeros((2, 0))
        C = np.eye(2)
        if variant == WOB:
            K = np.array([[p["alpha"], 0.0], [0.0, p["beta"]]])
        else:
            K = np.array([[p["alpha"], p["theta"] * dt],
                          [p["beta"] / dt, p["gamma"]]])
    elif variant in (WA_A, WA_B):
        A = np.array([[1.0, dt, dt * dt / 2.0],
                      [0.0, 1.0, dt],
                      [0.0, 0.0, 1.0]])
        B = np.zeros((3, 0))
        C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        if variant == WA_A:
            K = np.array([[p["alpha"], 0.0],
                          [0.0, p["beta"]],
                          [p["theta"] / (dt * dt), 0.0]])
        else:
            K = np.array([[p["alpha"], 0.0],
                          [0.0, p["beta"]],
                          [0.0, p["theta"] / dt]])
    elif variant == COMPLEMENTARY:
        T_c = p["T_c"]
        check_lowpass_bound(T_c, dt, "T_c", FilterConfigError)
        den = dt + T_c
        A = np.array([[T_c / den]])
        B = np.array([[dt / den, T_c * dt / den]])
        C = np.zeros((1, 1))
        K = np.zeros((1, 1))
    else:  # wb, and the kalman variants whose K is produced per step
        A = np.array([[1.0, -dt], [0.0, 1.0]])
        B = np.array([[dt], [0.0]])
        C = np.array([[1.0, 0.0]])
        if variant == WB:
            K = np.array([[p["alpha"]], [p["beta"]]])
        elif p["q1"] < 0 or p["q2"] < 0 or p["r"] < 0:
            raise FilterConfigError("q1, q2 and r must be >= 0")
        else:
            K = None
    return FilterSpec(variant, A, B, C, K, dt, p)


def filter_step(spec, state, u=None, y_bar=None):
    """Advance a fixed-gain filter one sample.

    ``u`` is the input vector (previous sample, except for the
    complementary variant which takes the current one) and ``y_bar`` the
    measurement vector at the current sample.  Returns a new FilterState.
    """
    if spec.variant in KALMAN_VARIANTS:
        raise FilterConfigError("time-varying specs advance through kalman_step")
    x = np.asarray(state.x_hat, dtype=float)
    if x.shape != (spec.n_states,):
        raise ParameterError(f"state has shape {x.shape}, spec wants ({spec.n_states},)")

    K, C, A, B = spec.K, spec.C, spec.A, spec.B
    M = A - K @ C @ A
    x_new = M @ x

    if B.shape[1]:
        u_vec = np.atleast_1d(np.asarray(u, dtype=float))
        if u_vec.shape != (B.shape[1],):
            raise ParameterError(f"input has shape {u_vec.shape}, spec wants ({B.shape[1]},)")
        x_new = x_new + (B - K @ C @ B) @ u_vec
    elif u is not None and np.any(np.asarray(u)):
        raise ParameterError(f"variant {spec.variant} takes no input")

    if np.any(K):
        y_vec = np.atleast_1d(np.asarray(y_bar, dtype=float))
        if y_vec.shape != (K.shape[1],):
            raise ParameterError(f"measurement has shape {y_vec.shape}, "
                                 f"spec wants ({K.shape[1]},)")
        x_new = x_new + K @ y_vec

    return FilterState(x_hat=x_new)


def make_kalman_state(spec, phi0=0.0):
    """Initial :class:`KalmanState` for a kalman-variant spec: tilt ``phi0``,
    zero residual bias and the spec's P0 (see :func:`_initial_P`)."""
    if spec.variant not in KALMAN_VARIANTS:
        raise FilterConfigError(f"{spec.variant} is not a kalman variant")
    q1, q2, r = spec.params["q1"], spec.params["q2"], spec.params["r"]
    Q = np.diag([q1 * spec.dt, q2])
    return KalmanState(x_hat=np.array([phi0, 0.0]), P=_initial_P(spec), Q=Q, r=float(r))


def kalman_step(ks, u, y_bar, dt):
    """One predict/correct cycle of the time-varying filter.

    ``u`` is the corrected rate at the previous sample (deg/s), ``y_bar``
    the corrected tilt at the current one (deg).  Returns a new state; the
    gain that produced it is stored in ``K_current``.
    """
    A = np.array([[1.0, -dt], [0.0, 1.0]])
    B = np.array([dt, 0.0])
    x_pred = A @ ks.x_hat + B * u
    P_pred = A @ ks.P @ A.T + ks.Q
    s = P_pred[0, 0] + ks.r
    if s == 0.0:
        raise FilterDesignError("singular innovation covariance (C P C^T + r = 0)")
    K = P_pred[:, 0] / s
    x_new = x_pred + K * (y_bar - x_pred[0])
    P_new = P_pred - np.outer(K, P_pred[0, :])
    P_new = (P_new + P_new.T) / 2.0
    return KalmanState(x_hat=x_new, P=P_new, Q=ks.Q, r=ks.r, K_current=K)


def kalman_init_P(alpha, beta, Q, r, dt):
    """Initial covariance whose first computed gain equals [alpha, beta].

    Inverts one predict/gain cycle: the predicted covariance entries that
    the gain formula sees are fixed by (alpha, beta, r); the free (2,2)
    entry is set to the smallest value keeping P0 positive semidefinite,
    plus a fixed 1e-9 margin.  Raises :class:`FilterDesignError` when no
    PSD P0 can produce the requested gains.
    """
    if not 0 <= alpha < 1:
        raise FilterDesignError(f"alpha must be in [0, 1), got {alpha}")
    Q = np.asarray(Q, dtype=float)
    p_pred_11 = r * alpha / (1.0 - alpha)
    c2 = beta * r / (1.0 - alpha)
    denom = p_pred_11 - Q[0, 0]
    if beta == 0.0:
        s_min = 0.0
    else:
        if denom <= 0.0:
            raise FilterDesignError(
                f"gains (alpha={alpha}, beta={beta}) infeasible: need "
                f"r*alpha/(1-alpha) > q1*dt, got {p_pred_11} <= {Q[0, 0]}")
        s_min = c2 * c2 / denom
    s = s_min + _INIT_P_MARGIN
    p12 = c2 + dt * s
    p11 = p_pred_11 + 2.0 * dt * c2 - Q[0, 0] + dt * dt * s
    if p11 < 0.0:
        raise FilterDesignError(
            f"gains (alpha={alpha}, beta={beta}) infeasible: q1*dt exceeds "
            f"the implied predicted variance")
    P0 = np.array([[p11, p12], [p12, s]])
    if np.linalg.eigvalsh(P0)[0] < -1e-12 * max(1.0, p11, s):
        raise FilterDesignError("requested gains produced an indefinite P0")
    return P0


def _initial_P(spec):
    """P0 of a kalman spec: from :func:`kalman_init_P` when the spec carries
    ``alpha0`` (``beta0`` defaulting to 0), else the identity."""
    p, dt = spec.params, spec.dt
    if "alpha0" in p:
        return kalman_init_P(p["alpha0"], p.get("beta0", 0.0),
                             np.diag([p["q1"] * dt, p["q2"]]), p["r"], dt)
    return np.eye(2)


def _kalman_gains(spec, P0):
    """Yield the gains (k1, k2) of successive steps of the scalar covariance
    recursion from ``P0``; they depend on (q1, q2, r, P0, dt) alone."""
    q1, q2, r = spec.params["q1"], spec.params["q2"], spec.params["r"]
    dt = spec.dt
    q1dt = q1 * dt
    p11, p12, p22 = float(P0[0, 0]), float(P0[0, 1]), float(P0[1, 1])
    for step in count(1):
        a11 = p11 - 2.0 * dt * p12 + dt * dt * p22 + q1dt
        a12 = p12 - dt * p22
        a22 = p22 + q2
        s = a11 + r
        if s == 0.0:
            raise FilterDesignError(f"singular innovation covariance at step {step}")
        k1 = a11 / s
        k2 = a12 / s
        p11 = (1.0 - k1) * a11
        p12 = a12 * r / s  # equals both (1-k1)*a12 and a12 - k2*a11
        p22 = a22 - k2 * a12
        yield k1, k2


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues of the error dynamics [A - KCA] and their verdict."""

    eigenvalues: tuple
    magnitudes: tuple
    classification: str  # "stable" | "marginal" | "unstable"
    gain: Optional[tuple] = None  # converged gain, kalman variants only

    @property
    def max_magnitude(self):
        return max(self.magnitudes)

    @property
    def stable(self):
        return self.classification == "stable"

    @property
    def marginal(self):
        return self.classification == "marginal"


def _classify(magnitudes):
    m = max(magnitudes)
    if m > 1.0 + _STABILITY_TOL or not all(map(isfinite, magnitudes)):
        return "unstable"
    if m >= 1.0 - _STABILITY_TOL:
        return "marginal"
    return "stable"


def steady_kalman_gain(spec, max_iter=_RICCATI_MAX_ITER):
    """Iterate the covariance recursion from the spec's P0 until the gain settles.

    Returns ``(k1, k2)``: the first gain whose change from the step before
    is below ``_RICCATI_TOL`` in both entries, else the gain of step
    ``max_iter``.  With q2 = 0 the bias gain decays towards zero like 1/k
    (or faster while k1 is still falling) and never meets the tolerance, so
    the search always runs to ``max_iter`` and returns that truncation.
    """
    k1 = k2 = float("inf")
    for nk1, nk2 in islice(_kalman_gains(spec, _initial_P(spec)), max_iter):
        if abs(nk1 - k1) < _RICCATI_TOL and abs(nk2 - k2) < _RICCATI_TOL:
            return nk1, nk2
        k1, k2 = nk1, nk2
    return k1, k2


def check_stability(spec):
    """Eigenvalue stability of a spec's error dynamics.

    Fixed-gain variants evaluate [A - KCA] directly; kalman variants first
    converge the covariance recursion (see :func:`steady_kalman_gain`) and
    evaluate the error dynamics at that gain.  The eigenvalues are
    ``np.linalg.eigvals``'s, or NaN when the matrix is not finite.
    """
    K, gain = spec.K, None
    if spec.variant in KALMAN_VARIANTS:
        gain = steady_kalman_gain(spec)
        K = np.array([[gain[0]], [gain[1]]])
    M = spec.A - K @ spec.C @ spec.A
    if np.isfinite(M).all():
        eig = tuple(complex(z) for z in np.linalg.eigvals(M))
    else:  # LAPACK refuses NaN and inf: report a non-finite magnitude
        eig = (complex("nan"),) * len(M)
    mags = tuple(abs(z) for z in eig)
    return StabilityReport(eig, mags, _classify(mags), gain=gain)


def checked_arrays(phi_bar, rate_bar):
    """A corrected stream's (phi_bar, rate_bar) columns as float arrays.

    Raises :class:`ParameterError`, naming the first bad sample, when the
    stream is empty, the two differ in length or either holds NaN or inf.
    """
    phi, rate = np.asarray(phi_bar, dtype=float), np.asarray(rate_bar, dtype=float)
    if len(phi) == 0 or len(rate) != len(phi):
        raise ParameterError(f"unequal or empty stream: {len(phi)} phi_bar, {len(rate)} rate_bar")
    for name, col in (("phi_bar", phi), ("rate_bar", rate)):
        if not np.isfinite(col).all():
            k = int(np.flatnonzero(~np.isfinite(col))[0])
            raise ParameterError(f"{name}[{k}] is {float(col[k])!r}; filters take finite values")
    return phi, rate


def run_filter(spec, corrected):
    """:func:`run_filter_arrays` on a ``(phi_bar, rate_bar)`` column pair."""
    return run_filter_arrays(spec, *corrected)


def run_filter_arrays(spec, phi_bar, rate_bar):
    """Run a spec over a corrected stream's columns, refused as
    :func:`checked_arrays` refuses them; returns the tilt estimates.

    The state starts from the stream's first sample (see
    :func:`_default_x0`), so the first estimate is ``phi_bar[0]``.

    Every fixed-gain variant runs through one shared loop over plain
    floats (see the module notes), the kalman variants through a loop with
    the covariance recursion written in; both are algebraically identical
    to iterating :func:`filter_step` / :func:`kalman_step`.
    """
    phi, rate = checked_arrays(phi_bar, rate_bar)
    if spec.variant in KALMAN_VARIANTS:
        return _run_kalman(spec, phi, rate)

    M, G, (a, b), x0 = _fixed_gain_form(spec, phi, rate)
    out = np.empty(len(phi))
    out[0] = x0[0]
    n = spec.n_states
    M3, G3, x = np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3)
    M3[:n, :n], G3[:n], x[:n] = M, G, x0
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = M3.tolist()
    (g11, g12), (g21, g22), (g31, g32) = G3.tolist()
    x1, x2, x3 = x.tolist()
    est = memoryview(out)
    for k, ak, bk in zip(count(1), a.tolist(), b.tolist()):
        x1, x2, x3 = (m11 * x1 + m12 * x2 + m13 * x3 + g11 * ak + g12 * bk,
                      m21 * x1 + m22 * x2 + m23 * x3 + g21 * ak + g22 * bk,
                      m31 * x1 + m32 * x2 + m33 * x3 + g31 * ak + g32 * bk)
        est[k] = x1
    return out


def convolution_filter(variant, phi_bar, rate_bar):
    """Return ``estimates(spec)``: :func:`run_filter_arrays`'s estimates of
    a fixed-gain ``variant`` spec over this stream, by FFT convolution.

    The stream is refused as :func:`checked_arrays` refuses it, and the
    rffts of its input pair are taken here, once.  Each call then costs
    about log2(n) small matmuls, one rfft and one irfft.  The result equals
    the loop's to rounding, not bit for bit (see the module notes), and
    only for specs that :func:`check_stability` does not call unstable.
    """
    variant = canonical_variant(variant)
    if variant in KALMAN_VARIANTS:
        raise FilterConfigError(f"{variant} has no fixed gain to convolve with")
    phi, rate = checked_arrays(phi_bar, rate_bar)
    n = len(phi)
    nfft = 1 << max(2 * n - 4, 0).bit_length()  # >= 2n - 3: no wrap-around
    spectra = np.fft.rfft(_input_pair(variant, phi, rate), nfft)

    def estimates(spec):
        if spec.variant != variant:
            raise FilterConfigError(f"this stream was prepared for {variant}, "
                                    f"not {spec.variant}")
        M, G, _, x0 = _fixed_gain_form(spec, phi, rate)
        rows = np.zeros((n, len(M)))  # rows[m] = e1^T M^m, by doubling
        rows[0, 0] = 1.0
        done, power = 1, M
        while done < n:
            step = min(done, n - done)
            rows[done:done + step] = rows[:step] @ power
            done += step
            if done < n:
                power = power @ power
        out = rows @ x0
        response = np.fft.rfft(G.T @ rows[:-1].T, nfft)  # of the impulse response
        out[1:] += np.fft.irfft(response[0] * spectra[0] + response[1] * spectra[1],
                                nfft)[:n - 1]
        return out

    return estimates


def _input_pair(variant, phi, rate):
    """The input pair (a, b) of a fixed-gain variant's loop, one entry per
    step k = 1..n-1, in the term order of the variant's own equations."""
    if variant == WB:
        return rate[:-1], phi[1:]
    return phi[1:], rate[1:]


def _fixed_gain_form(spec, phi, rate):
    """The loop x(k) = M x(k-1) + G [a(k), b(k)] of a fixed-gain spec over a
    checked stream: returns (M, G, (a, b), x0) with M = A - KCA.  ``wb``
    takes G = [B - KCB | K], complementary G = B and the others G = K."""
    K = spec.K
    if spec.variant == WB:
        G = np.hstack([spec.B - K @ spec.C @ spec.B, K])
    else:
        G = spec.B if spec.variant == COMPLEMENTARY else K
    return (spec.A - K @ spec.C @ spec.A, G, _input_pair(spec.variant, phi, rate),
            _default_x0(spec, float(phi[0]), float(rate[0])))


def _default_x0(spec, phi0, rate0):
    if spec.variant in (WOB, ABTG):
        return np.array([phi0, rate0])
    if spec.variant in (WA_A, WA_B):
        return np.array([phi0, rate0, 0.0])
    if spec.variant == COMPLEMENTARY:
        return np.array([phi0])
    # wb and the kalman variants estimate the residual bias of the already
    # corrected rate, so it starts at zero; feeding raw rates with the
    # calibrated bias as the start value gives the identical tilt stream.
    return np.array([phi0, 0.0])


def _run_kalman(spec, phi, rate):
    # _kalman_gains' recursion, written into the loop: the same operations
    # in the same order, so the same bytes, without a generator per step
    q1, q2, r = spec.params["q1"], spec.params["q2"], spec.params["r"]
    dt = spec.dt
    q1dt, two_dt, dt_dt = q1 * dt, 2.0 * dt, dt * dt
    P0 = _initial_P(spec)
    p11, p12, p22 = float(P0[0, 0]), float(P0[0, 1]), float(P0[1, 1])
    x1, x2 = _default_x0(spec, float(phi[0]), float(rate[0])).tolist()
    out = np.empty(len(phi))
    out[0] = x1
    est = memoryview(out)
    for k, y, u in zip(count(1), phi[1:].tolist(), rate[:-1].tolist()):
        a11 = p11 - two_dt * p12 + dt_dt * p22 + q1dt
        a12 = p12 - dt * p22
        a22 = p22 + q2
        s = a11 + r
        if s == 0.0:
            raise FilterDesignError(f"singular innovation covariance at step {k}")
        k1 = a11 / s
        k2 = a12 / s
        p11 = (1.0 - k1) * a11
        p12 = a12 * r / s
        p22 = a22 - k2 * a12
        x1p = x1 - dt * x2 + dt * u
        resid = y - x1p
        x1 = x1p + k1 * resid
        x2 = x2 + k2 * resid
        est[k] = x1
    return out
