"""Output checks for the benchmark's jobs.

A job passes when the CLI exits 0 without a traceback and its output
passes the check of its kind:

- CSV (figure, sweep): the three '#' header lines, the column set and
  the row count match the stored reference; every analytic cell matches
  the reference within ANALYTIC_RTOL (relative) plus ANALYTIC_ATOL;
  every Monte Carlo lower-bound cell stays below the smallest analytic
  upper bound of its row plus MC_SLACK reported standard errors (the
  peak_bound_ordering rule of ``fadingrate verify``, widened from 3 to 4
  standard errors; see MC_SLACK).
- dump (simulate): the header fields and the payload size match the
  request, and the sample lag covariances at LAGS fall inside
  SIM_BAND standard errors of ``model.autocorr`` (the sim_laws rule).
- value (predict): one number, within the analytic tolerance of the
  reference.

Each output's SHA-256 is recorded as information.
"""

import csv
import hashlib
import math
import os
import struct

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
ANALYTIC_RTOL = 1e-9
ANALYTIC_ATOL = 1e-12
# In the low-SNR rows of figure 4 the lower and upper bounds agree to
# about 0.003 nats (n = 1e6), far inside the stderr at --mc-n 400, so about
# six cells per figure sit on the bound.  At 3 stderr each fails 0.13% of
# seeds, and a benchmark evaluation checks over a hundred figure-4 outputs.
MC_SLACK = 4.0
MC_LOWER = ("lower_cm", "lower_cm_ts", "sethuraman_lower", "sethuraman_lower_ts")
ANALYTIC_UPPER = ("sethuraman_upper", "upper_pred_peak", "upper_peak", "coherent")
LAGS = (0, 1, 3, 5)
SIM_BAND = 4.0
DUMP_HEADER = struct.Struct("<4sIQdQ")  # magic, version, N, f_d, seed


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_csv(path):
    """(comment lines, header, rows of cell strings)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not body:
        raise ValueError("no header row")
    return comments, body[0], body[1:]


def _mc_columns(header):
    # every column of a Monte Carlo bound family X (X, X_stderr, X_clamped,
    # X_alpha) depends on the samples; the rest is analytic
    families = [name[: -len("_stderr")] for name in header if name.endswith("_stderr")]
    return {name for name in header
            for fam in families if name == fam or name.startswith(fam + "_")}


def close(value, reference):
    return abs(value - reference) <= ANALYTIC_ATOL + ANALYTIC_RTOL * abs(reference)


def check_csv(path, ref_name, command, seed):
    comments, header, rows = read_csv(path)
    _, ref_header, ref_rows = read_csv(os.path.join(REFERENCE_DIR, ref_name + ".csv"))
    if len(comments) != 3 or not comments[0].startswith("# fadingrate "):
        return f"bad '#' header lines {comments[:3]}"
    if not comments[1].startswith(f"# flags: {command} ") or f"--seed {seed}" not in comments[1]:
        return f"bad flags line {comments[1]!r}"
    if comments[2] != f"# seed: {seed}":
        return f"bad seed line {comments[2]!r}"
    if header != ref_header:
        return f"columns {header} != reference {ref_header}"
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows != reference {len(ref_rows)}"
    mc_cols = _mc_columns(header)
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(header):
            return f"row {k} has {len(row)} cells"
        cells = dict(zip(header, row))
        for name, cell, ref_cell in zip(header, row, ref):
            if name in mc_cols:
                if not cell or not math.isfinite(float(cell)):
                    return f"row {k} {name}: Monte Carlo cell {cell!r} not finite"
            elif (cell == "") != (ref_cell == ""):
                return f"row {k} {name}: {cell!r} vs reference {ref_cell!r}"
            elif cell and not close(float(cell), float(ref_cell)):
                return f"row {k} {name}: {cell} vs reference {ref_cell}"
        uppers = [float(cells[u]) for u in ANALYTIC_UPPER if cells.get(u)]
        for low in MC_LOWER:
            if low in cells and uppers:
                excess = float(cells[low]) - min(uppers) - MC_SLACK * float(cells[low + "_stderr"])
                if excess > 0.0:
                    return f"row {k} {low}: exceeds the analytic upper bound by {excess:.3e} beyond {MC_SLACK:g} stderr"
    return None


def _model(psd, fd):
    from fadingrate.model import Jakes, RaisedCosine, Rectangular

    if psd == "rect":
        return Rectangular(fd)
    if psd == "jakes":
        return Jakes(fd)
    return RaisedCosine(fd, float(psd.split(":")[1]))


def check_dump(path, spec):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < DUMP_HEADER.size:
        return "dump shorter than its header"
    magic, version, n, fd, seed = DUMP_HEADER.unpack_from(raw)
    expected = (b"FADE", 1, spec["n"], spec["fd"], spec["seed"])
    if (magic, version, n, fd, seed) != expected:
        return f"dump header {(magic, version, n, fd, seed)} != {expected}"
    payload = len(raw) - DUMP_HEADER.size
    if payload != spec["realizations"] * n * 8:
        return f"payload of {payload} bytes is not {spec['realizations']} x {n} complex64"
    h = np.frombuffer(raw, dtype=np.complex64, offset=DUMP_HEADER.size)
    h = h.reshape(spec["realizations"], n).astype(np.complex128)
    model = _model(spec["psd"], spec["fd"])
    for lag in LAGS:
        per_trace = (h[:, lag:] * np.conj(h[:, : n - lag])).real.mean(axis=1)
        mean = float(per_trace.mean())
        se = float(per_trace.std(ddof=1) / math.sqrt(len(per_trace)))
        target = model.autocorr(lag)
        if abs(mean - target) > SIM_BAND * se:
            return f"lag {lag}: sample covariance {mean:.5f} outside {target:.5f} +- {SIM_BAND:g} x {se:.2e}"
    return None


def check_value(text, ref_name):
    lines = text.split()
    if len(lines) != 1:
        return f"expected one value, got {text[:80]!r}"
    with open(os.path.join(REFERENCE_DIR, ref_name + ".txt")) as fh:
        reference = float(fh.read())
    value = float(lines[0])
    if not close(value, reference):
        return f"value {value!r} vs reference {reference!r}"
    return None


def check_job(job, rc, stdout, stderr, workdir, seed):
    """(status, detail, rows, sha256) with status "ok", "refused" (the
    job's known refusal) or "failed"."""
    err_lines = stderr.strip().splitlines()
    if (job.refusal and rc == 2 and len(err_lines) == 1
            and err_lines[0].startswith("error:") and job.refusal in err_lines[0]):
        return "refused", err_lines[0], 0, None
    if rc != 0 or "Traceback" in stderr:
        return "failed", f"exit {rc}: {stderr.strip()[-300:]}", 0, None
    try:
        if job.kind == "value":
            return _status(check_value(stdout, job.ref), 1,
                           hashlib.sha256(stdout.encode()).hexdigest())
        path = os.path.join(workdir, job.argv[job.argv.index("--out") + 1])
        digest = sha256(path)
        if job.kind == "csv":
            rows = len(read_csv(path)[2])
            return _status(check_csv(path, job.ref, job.argv[0], seed), rows, digest)
        return _status(check_dump(path, job.dump), job.dump["realizations"], digest)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return "failed", f"unreadable output: {exc!r}", 0, None


def _status(problem, rows, digest):
    if problem is None:
        return "ok", "", rows, digest
    return "failed", problem, 0, digest
