"""Command-line front end: parameter sweeps, figure datasets, verification,
prediction queries, and fading-trace dumps.

Output is comma-separated text with '#'-prefixed metadata lines (version,
canonical flags, seed) ahead of the header; numbers carry 17 significant
digits so files round-trip through float64 exactly.  Cells that do not
apply at a grid point (an asymptote below its validity range, no
admissible pilot spacing) are left empty.  Exit codes: 0 on success, 1
when verification fails or a downstream reader closes the output pipe, 2
on usage errors and on grid points a bound cannot evaluate.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .entropy import entropy_gaps, h_y_lower, h_y_upper_refined
from .mcrates import rate_lower_cm, sethuraman_lower
from .model import ChannelParams, Jakes, RaisedCosine, Rectangular
from .prediction import PowerProfile, ToeplitzCov, pred_error_cm_infinite, pred_error_finite
from .quadrature import EULER_GAMMA
from .rates import (
    PeakConstraint,
    coherent_capacity,
    lapidoth_asymptotes,
    rate_lower_pg,
    rate_upper_pg_rect,
    rate_upper_pred_pg,
    rate_upper_pred_peak,
    sd_optimal_L,
    sethuraman_upper,
)
from .simulate import _fading_blocks, write_fading_dump
from .verify import run_suite

_LN2 = math.log(2.0)

# largest grid a sweep may request; the shipped sweeps and figures stay below 700 rows
_MAX_ROWS = 100_000
# largest --mc-n: the base draws z and w of a grid point take 24 bytes a sample
_MAX_MC_N = 100_000_000
# largest simulate request: at the cap, Jakes n 2^20 peaks at 524 MiB RSS and
# rect at 508 MiB, about 450-470 bytes per sample above the import, set by the
# m = 8n transform their set-up tries: one complex m-array transformed in
# place (128 MiB), two more inside numpy's FFT and the float spectrum (rc:0.2
# stops at m = 2n: 192 MiB); traces stream to the dump in blocks of about
# 1 MiB of complex64 (Cholesky: 1024 traces)
_MAX_TRACE_N = 1 << 20
_MAX_SIM_SAMPLES = 50_000_000
# largest --powers list: a past whose powers differ is a dense n x n system,
# about 202 MiB resident at the cap; a constant-power past streams its Schur
# columns in O(n) memory, about 56 MiB resident at the cap
_MAX_PAST = 4095
# largest --seed: make_rng keys its streams with unsigned 64-bit seeds
_MAX_SEED = 2**64 - 1


class _UsageError(Exception):
    pass


def _parse_psd(text):
    if text == "rect" or text == "jakes":
        return text, None
    if text.startswith("rc:"):
        try:
            rolloff = float(text[3:])
        except ValueError:
            raise _UsageError(f"bad roll-off in {text!r}")
        return "rc", rolloff
    raise _UsageError(f"unknown psd {text!r} (use rect, jakes, or rc:<rolloff>)")


def _make_model(psd_kind, rolloff, f_d, sigma_h2=1.0):
    try:
        if psd_kind == "rect":
            return Rectangular(f_d, sigma_h2)
        if psd_kind == "jakes":
            return Jakes(f_d, sigma_h2)
        return RaisedCosine(f_d, rolloff, sigma_h2)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _parse_float_list(text, flag):
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not vals:
        raise _UsageError(f"{flag} is empty")
    if not all(math.isfinite(v) for v in vals):
        raise _UsageError(f"{flag} values must be finite, got {text!r}")
    return vals


def _parse_snr_grid(text, max_count):
    """SNR values in dB from lo:hi:step or one value; refuses more than
    max_count values before building the list."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise _UsageError(f"--snr-db expects lo:hi:step or a single value, got {text!r}")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"--snr-db expects numbers, got {text!r}")
    if not all(math.isfinite(v) for v in nums):
        raise _UsageError(f"--snr-db values must be finite, got {text!r}")
    lo, hi, step = nums if len(nums) == 3 else (nums[0], nums[0], 1.0)
    if step <= 0 or hi < lo:
        raise _UsageError("--snr-db needs step > 0 and hi >= lo")
    try:
        10.0 ** (hi / 10.0)
    except OverflowError:
        raise _UsageError(f"--snr-db {hi:g} dB overflows the input power")
    if (hi - lo) / step + 1e-9 >= max_count:
        raise _UsageError(f"--snr-db {text!r} over the --fd list exceeds {_MAX_ROWS} rows")
    if len(nums) == 1:
        return nums
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


@dataclass(frozen=True)
class Bound:
    """One --bounds entry: its CSV columns as (name, is_rate) pairs and
    evaluate(params, model, peak, seed=, n=) returning one cell per column.
    seed and n matter to Monte Carlo entries only."""

    columns: tuple
    evaluate: Callable
    rect_only: bool = False

    @property
    def needs_beta(self):
        # a peak bound prints the on-fraction it chose
        return any(name.endswith("_alpha") for name, _ in self.columns)

    @property
    def monte_carlo(self):
        # a Monte Carlo bound prints its standard error
        return any(name.endswith("_stderr") for name, _ in self.columns)


# BoundValue field behind each column suffix (every bound and Monte Carlo
# estimate returns that one record), and whether the column is a rate
_SUFFIX_FIELDS = {"": ("value", True), "_stderr": ("stderr", True),
                  "_clamped": ("clamped", False), "_alpha": ("alpha_used", False)}


def _fields(name, suffixes, evaluate, rect_only=False):
    """Entry for an evaluator returning a BoundValue: column name+suffix
    carries the field the suffix names."""
    fields = [_SUFFIX_FIELDS[s][0] for s in suffixes]

    def cells(*args, **kwargs):
        b = evaluate(*args, **kwargs)
        return [getattr(b, f) for f in fields]

    return Bound(tuple((name + s, _SUFFIX_FIELDS[s][1]) for s in suffixes), cells, rect_only)


def _sd_cells(params, model, peak, **_):
    best_l, table = sd_optimal_L(params, model)
    if best_l is None:
        return [None, None, None]
    return [table[best_l]["lower"], table[best_l]["upper"], best_l]


def _lapidoth_cells(params, model, peak, **_):
    asym = lapidoth_asymptotes(params, model)
    return [asym["upper"], asym["lower"]]


# Evaluators look the bound functions up by name at call time, so a wrapper
# installed on this module's globals (a tracer, a test double) sees every call.
_PG = ("", "_clamped")
_PEAK = ("", "_clamped", "_alpha")
BOUNDS = {
    "lower_pg": _fields("lower_pg", _PG, lambda p, m, peak, **_: rate_lower_pg(p, m)),
    "upper_pg": _fields("upper_pg", _PG, lambda p, m, peak, **_: rate_upper_pg_rect(p),
                        rect_only=True),
    "upper_pred_pg": _fields("upper_pred_pg", _PG,
                             lambda p, m, peak, **_: rate_upper_pred_pg(p, m)),
    "coherent": _fields("coherent", ("",), lambda p, m, peak, **_: coherent_capacity(p.rho)),
    # the flat-density peak bound is the spectral one on Rectangular(f_d)
    "upper_peak": _fields("upper_peak", _PEAK, lambda p, m, peak, **_: sethuraman_upper(p, m, peak),
                          rect_only=True),
    "sethuraman_upper": _fields("sethuraman_upper", _PEAK,
                                lambda p, m, peak, **_: sethuraman_upper(p, m, peak)),
    "upper_pred_peak": _fields("upper_pred_peak", _PEAK,
                               lambda p, m, peak, **_: rate_upper_pred_peak(p, m, peak)),
    # the Monte Carlo bounds time-share when given the peak constraint
    "lower_cm": _fields("lower_cm", ("", "_stderr", "_clamped"),
                        lambda p, m, peak, **mc: rate_lower_cm(p, m, **mc)),
    "lower_cm_ts": _fields("lower_cm_ts", ("", "_stderr", "_clamped", "_alpha"),
                           lambda p, m, peak, **mc: rate_lower_cm(p, m, peak, **mc)),
    "sethuraman_lower": _fields("sethuraman_lower", ("", "_stderr"),
                                lambda p, m, peak, **mc: sethuraman_lower(p, m, **mc)),
    "sethuraman_lower_ts": _fields(
        "sethuraman_lower_ts", ("", "_stderr", "_alpha"),
        lambda p, m, peak, **mc: sethuraman_lower(p, m, peak, timeshare=True, **mc)),
    "sd": Bound((("sd_lower", True), ("sd_upper", True), ("sd_L", False)), _sd_cells),
    "lapidoth": Bound((("lap_upper", True), ("lap_lower", True)), _lapidoth_cells),
}


def _check_bounds(names, psd_kind, betas, mc_n):
    """Refuse bound selections and inputs the table cannot evaluate."""
    for name in names:
        if name not in BOUNDS:
            raise _UsageError(f"unknown bound {name!r}; choose from {', '.join(BOUNDS)}")
        bound = BOUNDS[name]
        if bound.rect_only and psd_kind != "rect":
            raise _UsageError(f"bound {name!r} is defined for --psd rect only")
        if bound.needs_beta and betas[0] is None:
            raise _UsageError(f"bound {name!r} requires --beta")
        if bound.monte_carlo and mc_n is not None and mc_n < 2:
            raise _UsageError(f"bound {name!r} needs --mc-n >= 2 for a standard error")
        if bound.monte_carlo and mc_n is not None and mc_n > _MAX_MC_N:
            raise _UsageError(f"--mc-n {mc_n} exceeds the cap of {_MAX_MC_N} samples")
    if not all(b is None or (math.isfinite(b) and b >= 1.0) for b in betas):
        raise _UsageError(f"--beta must be a finite peak-to-average ratio >= 1, got {betas[0]}")


def _evaluate_grid(bound_names, psd_kind, rolloff, fds, snrs, betas, seed, mc_n):
    """Rows in deterministic grid order (f_d, then SNR, then beta, a column
    of its own when the grid has more than one).  Every Monte Carlo cell is
    its library call at seed and n = mc_n, so all of them draw from stream
    (seed, 0): common random numbers across rows and bounds."""
    _check_bounds(bound_names, psd_kind, betas, mc_n)
    beta_axis = len(betas) > 1
    bounds = [BOUNDS[name] for name in bound_names]
    models = {f_d: _make_model(psd_kind, rolloff, f_d) for f_d in fds}
    columns = [("f_d", False), ("snr_db", False)]
    if beta_axis:
        columns.append(("beta", False))
    for bound in bounds:
        columns.extend(bound.columns)
    rows = []
    for f_d in fds:
        for db in snrs:
            for beta in betas:
                params = ChannelParams(f_d=f_d, sigma_x2=10.0 ** (db / 10.0))
                peak = PeakConstraint(beta) if beta is not None else None
                vals = [f_d, db] + ([beta] if beta_axis else [])
                for name, bound in zip(bound_names, bounds):
                    try:
                        cells = bound.evaluate(params, models[f_d], peak, seed=seed, n=mc_n)
                        if not all(v is None or math.isfinite(v) for v in cells):
                            raise ArithmeticError("non-finite value")
                    except (ValueError, ArithmeticError) as exc:
                        raise _UsageError(f"bound {name!r} cannot be evaluated at f_d {f_d:g}, "
                                          f"SNR {db:g} dB: {exc}")
                    vals.extend(cells)
                rows.append(vals)
    return columns, rows


def _cell(value, is_rate, units):
    if value is None:
        return ""
    value = float(value)
    if not math.isfinite(value):
        raise RuntimeError("refusing to emit a non-finite cell")
    if is_rate and units == "bit":
        value /= _LN2
    return f"{value:.17g}"


@contextmanager
def _writing(path):
    """An OSError from opening or writing --out becomes a usage error
    naming the path."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _check_out(path):
    """Refuse --out before any work, creating or truncating nothing: an existing
    file must be writable, a new one its directory; _writing catches the rest."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    for bad, reason in ((os.path.isdir(path), "Is a directory"),
                        (not os.path.isdir(parent), "No such file or directory"),
                        (not os.access(target, os.W_OK), "Permission denied")):
        if bad:
            raise _UsageError(f"cannot write --out {path}: {reason}")


def _csv_lines(args, flags, columns, rows):
    yield f"# fadingrate {__version__}\n"
    yield f"# flags: {flags}\n"
    yield f"# seed: {args.seed}\n"
    yield ",".join(name for name, _ in columns) + "\n"
    for row in rows:
        yield ",".join(_cell(v, r, args.units) for v, (_, r) in zip(row, columns)) + "\n"


def _write_csv(args, flags, columns, rows):
    """CSV to --out or stdout: metadata lines, header, 17-digit cells."""
    lines = _csv_lines(args, flags, columns, rows)
    if not args.out:
        sys.stdout.writelines(lines)
        return 0
    with _writing(args.out), open(args.out, "w") as out:
        out.writelines(lines)
    return 0


def cmd_sweep(args):
    psd_kind, rolloff = _parse_psd(args.psd)
    fds = _parse_float_list(args.fd, "--fd")
    snrs = _parse_snr_grid(args.snr_db, _MAX_ROWS // len(fds))
    if args.bounds:
        bound_names = [b.strip() for b in args.bounds.split(",") if b.strip()]
    else:
        bound_names = ["lower_pg", "upper_pg", "coherent"] if psd_kind == "rect" else [
            "lower_pg", "coherent"]
    columns, rows = _evaluate_grid(
        bound_names, psd_kind, rolloff, fds, snrs, [args.beta], args.seed, args.mc_n
    )
    flags = (
        f"sweep --psd {args.psd} --fd {args.fd} --snr-db {args.snr_db}"
        + (f" --beta {args.beta:g}" if args.beta is not None else "")
        + f" --bounds {','.join(bound_names)} --units {args.units} --seed {args.seed}"
        + (f" --mc-n {args.mc_n}" if args.mc_n else "")
    )
    return _write_csv(args, flags, columns, rows)


_FD_FINE = [round(f, 3) for f in np.arange(0.005, 0.4951, 0.005)]
_FD_COARSE = [round(f, 2) for f in np.arange(0.01, 0.4901, 0.01)]


# figure number -> (bounds, f_d values, SNR values in dB, beta values)
_FIGURES = {
    1: (["lower_pg", "upper_pg"], _FD_FINE, [0.0, 6.0, 12.0], [None]),
    2: (["upper_pg", "upper_peak", "lower_cm"], _FD_COARSE, [0.0, 12.0], [1.0, 2.0, 4.0]),
    3: (["lower_pg", "upper_pg", "lapidoth", "coherent"], [0.1, 0.3],
        [float(d) for d in range(-10, 51, 2)], [None]),
    4: (["sethuraman_upper", "upper_pred_peak", "sethuraman_lower", "sethuraman_lower_ts",
         "coherent"], [0.001, 0.01, 0.1], [float(d) for d in range(-10, 31, 5)], [2.0]),
    5: (["lower_pg", "upper_pg", "upper_pred_pg", "coherent"], _FD_FINE, [0.0, 6.0, 12.0],
        [None]),
    6: (["lower_pg", "upper_pg", "sd"], _FD_FINE, [0.0, 6.0, 12.0], [None]),
}


def _figure_rows(n, seed, mc_n):
    if n in _FIGURES:
        names, fds, snrs, betas = _FIGURES[n]
        return _evaluate_grid(names, "rect", None, fds, snrs, betas, seed, mc_n)
    if n == 7:
        columns = [("snr_db", False), ("delta_hy", True), ("delta_hy_refined", True),
                   ("delta_hy_refined_err", True), ("euler_gamma", True)]
        rows = []
        for db in range(-20, 61, 2):
            params = ChannelParams(sigma_x2=10.0 ** (db / 10.0))
            gap, _ = entropy_gaps(params)
            refined = h_y_upper_refined(params)
            delta2 = refined.value - h_y_lower(params).value
            rows.append([float(db), gap, delta2, refined.err_bound, EULER_GAMMA])
        return columns, rows
    raise _UsageError(f"figure must be 1..7, got {n}")


def cmd_figure(args):
    columns, rows = _figure_rows(args.n, args.seed, args.mc_n)
    flags = (
        f"figure {args.n} --units {args.units} --seed {args.seed}"
        + (f" --mc-n {args.mc_n}" if args.mc_n else "")
    )
    return _write_csv(args, flags, columns, rows)


def cmd_verify(args):
    results, ok = run_suite(args.level, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.runtime:6.2f} s)  {r.observed}")
        if not r.passed:
            print(f"       {'':<{width}}  expected: {r.expected}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed ({args.level} level, seed {args.seed})")
    return 0 if ok else 1


def cmd_predict(args):
    psd_kind, rolloff = _parse_psd(args.psd)
    model = _make_model(psd_kind, rolloff, args.fd, args.sigma_h2)
    if (args.power is None) == (args.powers is None):
        raise _UsageError("predict needs exactly one of --power (infinite past) and --powers "
                          "(finite past)")
    try:
        if args.power is not None:
            value = pred_error_cm_infinite(model, args.power, args.sigma_n2)
        else:
            powers = _parse_float_list(args.powers, "--powers")
            if len(powers) > _MAX_PAST:
                raise _UsageError(f"--powers has {len(powers)} values, over the cap of {_MAX_PAST}")
            cov = ToeplitzCov.from_model(model, len(powers) + 1)
            value = pred_error_finite(cov, PowerProfile(powers), args.sigma_n2)
    except (ValueError, ArithmeticError) as exc:
        raise _UsageError(str(exc))
    if not math.isfinite(value):
        raise _UsageError(f"prediction error is not finite ({value}) at these powers")
    print(f"{value:.17g}")
    return 0


def cmd_simulate(args):
    psd_kind, rolloff = _parse_psd(args.psd)
    model = _make_model(psd_kind, rolloff, args.fd, args.sigma_h2)
    if args.n > _MAX_TRACE_N:
        raise _UsageError(f"--n {args.n} exceeds the trace-length cap of {_MAX_TRACE_N}")
    if args.n * args.realizations > _MAX_SIM_SAMPLES:
        raise _UsageError(f"--n x --realizations = {args.n * args.realizations} exceeds "
                          f"the cap of {_MAX_SIM_SAMPLES} samples")
    try:
        # the set-up and its refusals come before --out is opened; the
        # traces then stream into the dump block by block
        blocks, m, share = _fading_blocks(model, args.n, args.realizations, args.seed,
                                          args.method)
    except ValueError as exc:
        raise _UsageError(str(exc))
    with _writing(args.out):
        write_fading_dump(args.out, blocks, model, args.seed)
    how = "cholesky" if m is None else f"embedding, m {m}, floored share {share:.3g}"
    print(f"wrote {args.realizations} x {args.n} trace(s) to {args.out} ({how})")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fadingrate",
        description="Rate bounds for stationary Rayleigh flat-fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--units", choices=("nat", "bit"), default="nat",
                       help="rate units in the output (default nat)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--mc-n", type=int, default=None,
                       help=f"Monte Carlo samples per point (default 100000, "
                            f"at most {_MAX_MC_N})")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("sweep", help="evaluate bounds over an (f_d, SNR) grid")
    p.add_argument("--psd", required=True, help="rect, jakes, or rc:<rolloff>")
    p.add_argument("--fd", required=True, help="comma-separated Doppler values")
    p.add_argument("--snr-db", required=True, help="lo:hi:step grid in dB, or one value")
    p.add_argument("--beta", type=float, default=None, help="nominal peak-to-average ratio")
    p.add_argument("--bounds", default=None,
                   help="comma-separated bound names: " + ", ".join(BOUNDS))
    common_output(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="emit the dataset behind one of the figures")
    p.add_argument("n", type=int, help="figure number, 1-7")
    common_output(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("predict", help="one-step prediction error variance")
    p.add_argument("--psd", required=True)
    p.add_argument("--fd", type=float, required=True)
    p.add_argument("--sigma-h2", type=float, default=1.0)
    p.add_argument("--sigma-n2", type=float, default=1.0)
    p.add_argument("--powers", default=None,
                   help=f"finite past: comma-separated transmit powers, most recent first "
                        f"(at most {_MAX_PAST})")
    p.add_argument("--power", type=float, default=None,
                   help="infinite past at this constant transmit power")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="synthesize fading traces to a binary dump")
    p.add_argument("--psd", required=True)
    p.add_argument("--fd", type=float, required=True)
    p.add_argument("--sigma-h2", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1024,
                   help=f"trace length (at most {_MAX_TRACE_N})")
    p.add_argument("--realizations", type=int, default=1,
                   help=f"number of traces (n x realizations at most {_MAX_SIM_SAMPLES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("embedding", "cholesky"), default="embedding")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        seed = getattr(args, "seed", 0)
        if seed < 0:
            raise _UsageError("seed and task_index must be nonnegative")
        if seed > _MAX_SEED:
            raise _UsageError(f"--seed {seed} exceeds {_MAX_SEED}")
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); keep the interpreter's
        # exit-time flush from tripping over the dead descriptor
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
