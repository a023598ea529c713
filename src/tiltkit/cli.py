"""Command-line surface wiring the library into reproducible batch jobs.

Subcommands; each takes --config, --out and only the flags :data:`COMMANDS`
lists for it, and any other flag, like a missing --log, is a usage error::

    simulate   write truth.csv + log.csv for the configured profile/models
    calibrate  estimate static biases (and scale polynomials when a
               reference channel is present) from a log
    tune       tune the configured filter variant (or the low-pass
               constants with --variant lowpass) against the reference
               encoder channel
    run        correct a log and run the configured filter; write estimates
    eval       MSE between an estimate column and a reference column
    spectrum   magnitude spectrum of one log column

run, tune and spectrum (given a t column) refuse a log whose t does not
increase or is sampled at another period than the configured one.  Every
command echoes the resolved configuration and seed, writes artifacts into
--out, and never embeds timestamps, so identical inputs produce
byte-identical outputs.

Exit codes: 0 ok, 2 usage, 3 parse, 4 numeric/contract, 5 optimization
failure.
"""

import argparse
import csv
import functools
import os
import sys
from itertools import islice

import numpy as np

from . import analysis, filters, model, tuning
from .config import check_dt_matches, load_config
from .correction import correct_columns, run_correction_arrays
# Unused here; kept importable because per-module tracers patch it on cli.
from .correction import run_correction  # noqa: F401
from .errors import (
    ConfigError,
    OptimizationFailure,
    ParseError,
    TiltkitError,
)
from .logio import parse_log, read_columns, write_columns, write_log, write_truth
from .model import default_dynamic_profile, simulate_run, zero_motion_profile
from .reference import GRAVITY

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CONTRACT = 4
EXIT_OPTIMIZATION = 5


def accumulate_reference(ref_counts, N_ref):
    """Reference tilt from encoder pulse counts: cumulative 360*n/N degrees.

    The angle before the first sample is zero (the rig starts vertical), so
    sample k already includes that sample's pulses.
    """
    if N_ref < 1:
        raise ConfigError(f"N_ref must be >= 1, got {N_ref}")
    counts = np.asarray(ref_counts, dtype=float)
    return np.cumsum(counts) * (360.0 / N_ref)


# The flags besides --config and --out; COMMANDS gives each command its own.
FLAGS = {
    "--log": dict(required=True, help="input CSV log"),
    "--variant": dict(help="filter variant override"),
    "--dt-ms": dict(type=float, help="sample time override, ms"),
    "--seed": dict(type=int, help="seed override"),
    "--debug-intermediates": dict(action="store_true",
                                  help="include correction intermediates in run output"),
    "--truth": dict(help="reference CSV (e.g. simulate's truth.csv)"),
    "--est-column": dict(default="phi_hat_deg"),
    "--ref-column": dict(default="phi_deg"),
    "--channel": dict(default="gyro_dps", help="column to analyse"),
}


@functools.cache
def build_parser():
    """The one parser of every :func:`main` call in a process; a parse
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tiltkit", allow_abbrev=False,
        description="Tilt measurement toolkit: simulate, correct, filter, tune.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # a flag prefix is a usage error
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _resolve_config(args):
    config = load_config(args.config)
    opts = vars(args)
    if opts.get("dt_ms") is not None:
        config.dt_ms = args.dt_ms
    if opts.get("seed") is not None:
        config.seed = args.seed
    # lowpass is tune's mode for the correction's time constants, not a variant
    if opts.get("variant") is not None and (args.command, args.variant) != ("tune", "lowpass"):
        config.variant = filters.canonical_variant(args.variant)
    return config


def _echo(config):
    print("# resolved configuration")
    print(config.to_text(), end="")
    print(f"# seed={config.seed}")


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cmd_simulate(config, args):
    if config.profile == "zero":
        profile = zero_motion_profile(config.duration_s, config.dt)
    elif config.profile == "dynamic":
        profile = default_dynamic_profile(config.duration_s, config.dt)
    else:
        raise ConfigError(f"unknown profile {config.profile!r} (zero|dynamic)")
    truth, log = simulate_run(profile, config.gyro_model(), config.accel_model(),
                              config.correction_params(), config.seed)
    write_truth(_outpath(args, "truth.csv"), truth)
    write_log(_outpath(args, "log.csv"), log)
    print(f"# wrote truth.csv and log.csv ({len(log)} samples)")
    return EXIT_OK


def cmd_calibrate(config, args):
    """Two-stage sensor calibration.

    On a static log (no reference channel): estimate the three channel
    biases by averaging; the y accelerometer rests at +g so its bias is the
    mean minus gravity.  On a deflection log (reference channel present):
    fit the scale-factor polynomials against the reference tilt, removing
    the biases already stored in the config (run the static stage first).
    """
    log = parse_log(args.log)

    lines = []
    diag = []
    if log.ref_count is None:
        gyro_est = tuning.estimate_static_bias(log.gyro_dps)
        acc_x_est = tuning.estimate_static_bias(log.acc_x_mps2)
        acc_y_est = tuning.estimate_static_bias(log.acc_y_mps2)
        lines += [
            f"gyro_bias_dps={gyro_est.bias!r}",
            f"accel_bias_x_mps2={acc_x_est.bias!r}",
            f"accel_bias_y_mps2={acc_y_est.bias - GRAVITY!r}",
        ]
        diag += [
            f"# gyro min={gyro_est.minimum!r} max={gyro_est.maximum!r} "
            f"windows={len(gyro_est.window_means)}",
            f"# acc_x min={acc_x_est.minimum!r} max={acc_x_est.maximum!r}",
            f"# acc_y min={acc_y_est.minimum!r} max={acc_y_est.maximum!r}",
            "# no reference channel: static stage only, polynomials not fitted",
        ]
    else:
        ref_phi = accumulate_reference(log.ref_count, config.N_ref)
        ax_ref, ay_ref = model.true_accel_components(ref_phi, 0.0, 0.0)
        px = log.acc_x_mps2 - config.accel_bias_x_mps2
        py = log.acc_y_mps2 - config.accel_bias_y_mps2
        fit_x = tuning.fit_scale_factor(np.column_stack([px, ax_ref]))
        fit_y = tuning.fit_scale_factor(np.column_stack([py, ay_ref]))
        for i, c in enumerate(fit_x.coefficients, start=1):
            lines.append(f"poly_x_{i}={c!r}")
        for i, c in enumerate(fit_y.coefficients, start=1):
            lines.append(f"poly_y_{i}={c!r}")
        diag.append(f"# scale fit mse_x={fit_x.mse!r} mse_y={fit_y.mse!r}")

    text = "\n".join(lines + diag) + "\n"
    _write_text(_outpath(args, "calibration.cfg"), text)
    print(text, end="")
    return EXIT_OK


def cmd_tune(config, args):
    log = parse_log(args.log)
    check_dt_matches(config, log.t)
    if log.ref_count is None:
        raise ConfigError("tune needs a log with the reference channel (ref_count)")
    ref_phi = accumulate_reference(log.ref_count, config.N_ref)
    params = config.correction_params()
    cfg = config.optimizer_config()

    if args.variant == "lowpass":
        res = tuning.tune_time_constants(log, ref_phi, params, cfg)
        text = (f"T_omega_s={res.T_omega!r}\nT_v_s={res.T_v!r}\n"
                f"# mse={res.mse!r} iterations={res.opt.iterations} "
                f"converged={res.opt.converged}\n")
        _write_text(_outpath(args, "tune_lowpass.cfg"), text)
        print(text, end="")
        return EXIT_OK

    seed_params = config.filter_params()
    x0 = None if seed_params is None else list(seed_params.values())
    result = tuning.tune_filter(config.variant, run_correction_arrays(log, params), ref_phi,
                                config.dt, cfg=cfg, x0=x0)
    report = analysis.make_report([result])
    report.write(args.out)
    print(report.text, end="")
    return EXIT_OK


def cmd_run(config, args):
    log = parse_log(args.log)
    check_dt_matches(config, log.t)
    params = config.correction_params()
    corrected = correct_columns(log, params)

    filter_params = config.filter_params()
    if filter_params is None:
        raise ConfigError(f"variant {config.variant} parameters missing from config")
    spec = filters.make_filter(config.variant, filter_params, config.dt)
    phi_hat = filters.run_filter(spec, (corrected.phi_bar, corrected.rate_bar))

    header = ["t", "phi_hat_deg"]
    columns = [log.t, phi_hat]
    if args.debug_intermediates:
        header += ["phi_bar_deg", "rate_bar_dps", "a_c", "a_e", "a_t", "a_t_x", "a_t_y"]
        columns += [corrected.phi_bar, corrected.rate_bar]
        columns += [getattr(corrected, name) for name in header[4:]]
    write_columns(_outpath(args, "estimate.csv"), header, columns)
    print(f"# wrote estimate.csv ({len(log)} samples)")
    return EXIT_OK


def _column(columns, name, path):
    """``columns[name]``, as read_columns read it from ``path``; a missing
    column or an empty field (read as NaN) in it is a ConfigError, exit 4."""
    if name not in columns:
        raise ConfigError(f"column {name!r} not in {path}")
    bad = np.flatnonzero(np.isnan(columns[name]))
    if bad.size:  # find its line: np.loadtxt skips blank lines, csv reads them as []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            line = next(islice((reader.line_num for row in reader if row), bad[0] + 1, None))
        raise ConfigError(f"column {name!r} of {path} has an empty field on line {line}")
    return columns[name]


def cmd_eval(config, args):
    est_names = [args.est_column] if args.truth else [args.est_column, args.ref_column]
    est_cols = read_columns(args.log, est_names)
    ref_path = args.truth or args.log
    ref_cols = read_columns(args.truth, [args.ref_column]) if args.truth else est_cols
    est = _column(est_cols, args.est_column, args.log)
    ref = _column(ref_cols, args.ref_column, ref_path)
    if len(est) != len(ref):
        raise ConfigError(f"estimate has {len(est)} samples, reference {len(ref)}")
    value = analysis.mse(ref, est)
    text = f"mse_deg2={value!r}\nn={len(est)}\n"
    _write_text(_outpath(args, "eval.txt"), text)
    print(text, end="")
    return EXIT_OK


def cmd_spectrum(config, args):
    columns = read_columns(args.log, ["t", args.channel])
    if "t" in columns:
        check_dt_matches(config, _column(columns, "t", args.log))
    signal = _column(columns, args.channel, args.log)
    sp = analysis.noise_spectrum(signal, config.dt)
    write_columns(_outpath(args, "spectrum.csv"), ["frequency_hz", "magnitude"],
                  [sp.frequencies, sp.magnitudes])
    print(f"# wrote spectrum.csv ({len(sp.frequencies)} bins, "
          f"area={analysis.spectrum_area(sp)!r})")
    return EXIT_OK


# Each command's handler and the flags it reads besides --config and --out.
COMMANDS = {
    "simulate": (cmd_simulate, ("--dt-ms", "--seed")),
    "calibrate": (cmd_calibrate, ("--log",)),
    "tune": (cmd_tune, ("--log", "--variant", "--dt-ms", "--seed")),
    "run": (cmd_run, ("--log", "--variant", "--dt-ms", "--debug-intermediates")),
    "eval": (cmd_eval, ("--log", "--truth", "--est-column", "--ref-column")),
    "spectrum": (cmd_spectrum, ("--log", "--dt-ms", "--channel")),
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        config = _resolve_config(args)
        _echo(config)
        return args.handler(config, args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OptimizationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZATION
    except TiltkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
