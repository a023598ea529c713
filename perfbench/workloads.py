"""The three benchmark workloads: seeded inputs, CLI jobs and output checks.

Every workload uses the synthetic rig at dt = 2 ms with the reference
biases, scale polynomials and noise levels (gyro 0.17 deg/s, accel
0.1 m/s^2), N_drive = 65536 and the dynamic profile.  ``setup`` builds a
workload's inputs from the workload seed and returns a :class:`Workload`;
``Workload.ops`` are the CLI commands one job runs, in order, through
``tiltkit.cli.main``; ``Workload.check`` inspects one job's artifacts.

The checks read artifacts with numpy and hashlib only, never with tiltkit,
so a defect in tiltkit's own readers cannot hide a defect in its writers.
"""

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from spans import TARGETS as TUNE_TARGETS, VARIANTS

DT_MS = 2.0
N_DRIVE = 65536
# The default N_ref of 2000 pulses is 0.18 deg per pulse, coarser than the
# profile's 0.15 deg tilt amplitude; 2**20 makes the reference exact enough
# to tune against.
N_REF = 2 ** 20

FIXED_GAIN_TARGETS = ("wb", "wa_b")

# Fixed sanity bound on each replay variant's eval MSE.  The unfiltered
# corrected tilt scores about 0.31 deg^2 against truth (accel noise of
# 0.1 m/s^2 is 0.58 deg rms); every filter must do better than that.
REPLAY_MSE_BOUND_DEG2 = 0.25

# Sizes: samples per workload input.  "tiny" is for the smoke check only.
SIZES = {
    "full": {"synth": 65536, "replay": 10000, "tune": 1000, "tune_iterations": 60},
    "tiny": {"synth": 600, "replay": 400, "tune": 200, "tune_iterations": 4},
}

NAMES = ("synth", "replay", "tune")


def sub_seed(seed, stream):
    """A 32-bit seed for one input stream, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def config_text(seed, n_samples, extra=()):
    """A key=value tiltkit config for the reference 2 ms rig."""
    from tiltkit import reference as ref
    lp = ref.lowpass_tuning(DT_MS)
    dt = DT_MS / 1000.0
    lines = [
        f"dt_ms={DT_MS!r}", f"N_drive={N_DRIVE}", f"N_ref={N_REF}", f"seed={seed}",
        # Half a sample past n * dt, so floor(duration / dt) is exactly n.
        f"duration_s={(n_samples + 0.5) * dt!r}", "profile=dynamic",
        f"gyro_bias_dps={ref.GYRO_BIAS_DPS!r}",
        f"gyro_noise_std_dps={ref.GYRO_NOISE_STD_DPS!r}",
        f"accel_bias_x_mps2={ref.ACCEL_BIAS_X_MPS2!r}",
        f"accel_bias_y_mps2={ref.ACCEL_BIAS_Y_MPS2!r}",
        f"accel_noise_std_mps2={ref.ACCEL_NOISE_STD_MPS2!r}",
        *(f"poly_x_{i}={c!r}" for i, c in enumerate(ref.SCALE_POLY_X, start=1)),
        *(f"poly_y_{i}={c!r}" for i, c in enumerate(ref.SCALE_POLY_Y, start=1)),
        f"T_omega_s={lp.T_omega!r}", f"T_v_s={lp.T_v!r}",
        *extra,
    ]
    return "\n".join(lines) + "\n"


def variant_lines(variant):
    """Config lines selecting a variant with its 2 ms reference tuning."""
    from tiltkit import reference as ref
    params = ref.filter_tuning(variant, DT_MS).params
    return [f"variant={variant}"] + [f"{k}={float(v)!r}" for k, v in params.items()]


def write_config(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def simulate_recording(cfg_path, seed, with_reference):
    """Simulate one recording with the library and write log.csv (and
    truth.csv) next to the config.  Returns (log_path, truth_path, rows)."""
    from tiltkit import config, logio, model
    cfg = config.load_config(cfg_path)
    profile = model.default_dynamic_profile(cfg.duration_s, cfg.dt)
    truth, log = model.simulate_run(profile, cfg.gyro_model(), cfg.accel_model(),
                                    cfg.correction_params(), seed)
    if with_reference:
        # simulate writes no ref_count; rebuild the reference-encoder pulses
        # from the true tilt, quantised to N_ref pulses per revolution.  The
        # rig starts vertical, so the cumulative count starts at zero.
        q = np.round(truth.phi_deg * (N_REF / 360.0)).astype(np.int64)
        log.ref_count = np.diff(q, prepend=np.int64(0))
    d = os.path.dirname(cfg_path)
    log_path = os.path.join(d, "log.csv")
    truth_path = os.path.join(d, "truth.csv")
    logio.write_log(log_path, log)
    logio.write_truth(truth_path, truth)
    return log_path, truth_path, len(log)


@dataclass
class Op:
    """One CLI command of a job and the artifacts its check reads."""

    name: str
    argv: list
    outputs: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    work_dir: str
    samples: int              # samples one job processes, for samples_per_s
    ops: list                 # the commands of one job, in order
    inputs: list              # set-up artifacts, digested to prove determinism
    rows: int                 # rows of the log a job writes or reads
    first_digests: dict = field(default_factory=dict)
    findings: dict = field(default_factory=dict)

    def input_digests(self):
        return {os.path.basename(p): sha256(p) for p in self.inputs}

    def check(self, op, inject_failure=False):
        """Check one op's artifacts; returns a list of problems (empty: ok).

        The first job's artifacts get the full check; later jobs must be
        byte-identical to it, which implies the same verdict.
        """
        digests = {os.path.relpath(p, self.work_dir): sha256(p) for p in op.outputs}
        first = self.first_digests.get(op.name)
        if first is not None:
            return [] if digests == first else [f"{op.name}: artifacts differ from the first job"]
        problems = _CHECKS[self.name](self, op, inject_failure)
        if not problems:
            self.first_digests[op.name] = digests
        return problems


def _read_csv(path):
    """Numeric columns of a CSV; the optional, here empty, ref_count is skipped."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    keep = [i for i, name in enumerate(header) if name != "ref_count"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=keep)
    return {header[i]: data[:, j] for j, i in enumerate(keep)}


def _check_synth(w, op, inject_failure):
    rows = w.rows + (1 if inject_failure else 0)
    problems = []
    cols = {}
    for path in op.outputs:
        c = _read_csv(path)
        name = os.path.basename(path)
        cols[name] = c
        n = len(next(iter(c.values())))
        if n != rows:
            problems.append(f"{name}: {n} rows, expected {rows}")
        if not all(np.all(np.isfinite(v)) for v in c.values()):
            problems.append(f"{name}: non-finite values")
    if not problems:
        log, truth = cols["log.csv"], cols["truth.csv"]
        raw_tilt = np.degrees(np.arctan2(log["acc_x_mps2"], log["acc_y_mps2"]))
        w.findings["mse_deg2"] = float(np.mean((raw_tilt - truth["phi_deg"]) ** 2))
    return problems


def _check_replay(w, op, inject_failure):
    rows = w.rows
    path = op.outputs[0]
    if op.name.startswith("run_"):
        c = _read_csv(path)
        n = len(c["phi_hat_deg"])
        problems = []
        if n != rows:
            problems.append(f"{op.name}: {n} estimate rows, expected {rows}")
        if not all(np.all(np.isfinite(v)) for v in c.values()):
            problems.append(f"{op.name}: non-finite estimate values")
        return problems
    if op.name.startswith("eval_"):
        with open(path) as fh:
            fields = dict(line.strip().split("=", 1) for line in fh if "=" in line)
        value = float(fields.get("mse_deg2", "nan"))
        variant = op.name[len("eval_"):]
        w.findings.setdefault("variant_mse_deg2", {})[variant] = value
        bound = 0.0 if inject_failure and variant == VARIANTS[0] else REPLAY_MSE_BOUND_DEG2
        if not (np.isfinite(value) and value < bound):
            return [f"{op.name}: mse {value!r} not under {bound}"]
        if int(fields.get("n", -1)) != rows:
            return [f"{op.name}: n={fields.get('n')}, expected {rows}"]
        return []
    c = _read_csv(path)  # spectrum
    n_bins = (1 << (rows - 1).bit_length()) // 2 + 1
    if len(c["magnitude"]) != n_bins or not np.all(np.isfinite(c["magnitude"])):
        return [f"{op.name}: expected {n_bins} finite bins"]
    return []


def _check_tune(w, op, inject_failure):
    target = op.name[len("tune_"):]
    if target == "lowpass":
        with open(op.outputs[0]) as fh:
            text = fh.read()
        fields = dict(tok.split("=", 1) for tok in text.replace("\n", " ").split() if "=" in tok)
        values = [float(fields.get(k, "nan")) for k in ("T_omega_s", "T_v_s", "mse")]
        w.findings.setdefault("target_mse_deg2", {})[target] = values[2]
        if not all(np.isfinite(values)):
            return [f"{op.name}: non-finite result {values}"]
        return []
    with open(op.outputs[0]) as fh:
        header = fh.readline().strip().split(",")
        row = dict(zip(header, fh.readline().strip().split(",")))
    value = float(row.get("mse_training") or "nan")
    w.findings.setdefault("target_mse_deg2", {})[target] = value
    problems = [] if np.isfinite(value) else [f"{op.name}: training mse {value!r}"]
    if target in FIXED_GAIN_TARGETS:
        # The tuner accepts any candidate whose largest eigenvalue magnitude
        # is at most 1 + 1e-9, so "marginal" is inside its documented
        # contract; it is counted as a finding, "unstable" fails.
        verdict = row.get("stability")
        w.findings.setdefault("stability", {})[target] = verdict
        if verdict not in ("stable", "marginal") or (inject_failure and target == "wb"):
            problems.append(f"{op.name}: stability {verdict!r}")
    return problems


_CHECKS = {"synth": _check_synth, "replay": _check_replay, "tune": _check_tune}


def setup(name, seed, work_dir, size="full"):
    """Build one workload's inputs under ``work_dir``; returns a Workload."""
    n = SIZES[size][name]
    os.makedirs(work_dir, exist_ok=True)
    out = os.path.join(work_dir, "out")
    base = write_config(os.path.join(work_dir, "base.cfg"),
                        config_text(sub_seed(seed, 0), n))

    if name == "synth":
        argv = ["simulate", "--config", base, "--out", out]
        outputs = [os.path.join(out, "log.csv"), os.path.join(out, "truth.csv")]
        return Workload(name, work_dir, n, [Op("simulate", argv, outputs)],
                        [base], n)

    if name == "replay":
        log, truth, rows = simulate_recording(base, sub_seed(seed, 1), with_reference=False)
        ops = []
        inputs = [base, log, truth]
        for v in VARIANTS:
            cfg = write_config(os.path.join(work_dir, f"{v}.cfg"),
                               config_text(sub_seed(seed, 0), n, variant_lines(v)))
            inputs.append(cfg)
            run_out = os.path.join(out, f"run_{v}")
            estimate = os.path.join(run_out, "estimate.csv")
            ops.append(Op(f"run_{v}", ["run", "--config", cfg, "--log", log,
                                       "--out", run_out], [estimate]))
            eval_out = os.path.join(out, f"eval_{v}")
            ops.append(Op(f"eval_{v}", ["eval", "--config", cfg, "--log", estimate,
                                        "--truth", truth, "--out", eval_out],
                          [os.path.join(eval_out, "eval.txt")]))
        spec_out = os.path.join(out, "spectrum")
        ops.append(Op("spectrum", ["spectrum", "--config", base, "--log", log,
                                   "--channel", "gyro_dps", "--out", spec_out],
                      [os.path.join(spec_out, "spectrum.csv")]))
        return Workload(name, work_dir, rows * len(VARIANTS), ops, inputs, rows)

    if name == "tune":
        log, truth, rows = simulate_recording(base, sub_seed(seed, 2), with_reference=True)
        # The default tolerances stop each pass wherever the simplex happens
        # to settle, so evaluations per target ranged 183..685 across seeds;
        # a fixed iteration budget with unreachable tolerances keeps the
        # work per job close to constant.  Restarts and step stay default.
        opt = [f"opt_max_iterations={SIZES[size]['tune_iterations']}",
               "opt_tol_f=1e-300", "opt_tol_x=1e-300"]
        ops = []
        inputs = [base, log]
        for target in TUNE_TARGETS:
            extra = opt if target == "lowpass" else opt + variant_lines(target)
            cfg = write_config(os.path.join(work_dir, f"tune_{target}.cfg"),
                               config_text(sub_seed(seed, 0), n, extra))
            inputs.append(cfg)
            tune_out = os.path.join(out, f"tune_{target}")
            argv = ["tune", "--config", cfg, "--log", log, "--out", tune_out]
            if target == "lowpass":
                argv += ["--variant", "lowpass"]
                outputs = [os.path.join(tune_out, "tune_lowpass.cfg")]
            else:
                outputs = [os.path.join(tune_out, "results.csv"),
                           os.path.join(tune_out, "report.txt")]
            ops.append(Op(f"tune_{target}", argv, outputs))
        return Workload(name, work_dir, rows * len(TUNE_TARGETS), ops, inputs, rows)

    raise ValueError(f"unknown workload {name!r}")
