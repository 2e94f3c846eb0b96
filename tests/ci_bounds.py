"""CI resource and dump-equality bounds: one table, run by CI and by hand.

    python tests/ci_bounds.py     # from a checkout: PYTHONPATH=src python tests/ci_bounds.py

Each row runs `python -m fadingrate.cli <argv> --out <temporary file>` in a
fresh child (Linux only: it needs `os.wait4`'s peak RSS in KiB and
`taskset`).  A `peak` row bounds that child's own peak RSS in MiB.  A
`same-bytes` row runs its argv pinned to one CPU with `taskset -c 0` and
then on every CPU, and the two outputs must have the same SHA-256.  Every
row runs before anything is decided, one line each, and the script exits 1
if any row failed.  It is not collected by pytest (no `test_` prefix);
tests/test_ci_bounds.py checks the table and the measuring helper.
"""

import hashlib
import os
import sys
import tempfile
import time
from typing import NamedTuple


class Row(NamedTuple):
    name: str
    argv: str  # after the program name, without --out
    kind: str  # "peak" or "same-bytes"
    bound: float | None  # MiB, for "peak" rows
    catches: str  # the regression this row is there to catch


ROWS = [
    Row("embedding-cpus-rc", "simulate --psd rc:0.2 --n 4096 --realizations 100 --fd 0.1",
        "same-bytes", None,
        "embedding rows run on every usable CPU, 32 rows per streamed block at n 4096 "
        "(three full blocks and a partial one); rc:0.2 n 4096 embeds in m = 8192 = 2 x 4096, "
        "the first size whose floored share (2.2e-9) is below 2^-24"),
    Row("embedding-cpus-rect", "simulate --psd rect --n 1009 --realizations 50 --fd 0.1",
        "same-bytes", None,
        "rect n 1009 embeds in m = 4036 = 4 x 1009, so its in-place inverse FFT runs on a "
        "plan with a large prime factor; the dump must not depend on the CPU count"),
    Row("cholesky-cpus",
        "simulate --method cholesky --psd rect --fd 0.1 --n 2048 --realizations 64 --seed 1",
        "same-bytes", None,
        "Cholesky traces are coloured by BLAS gemm over blocks of Schur columns; their dump "
        "must not depend on the CPU (and BLAS thread) count"),
    Row("mc-cpus", "figure 4 --mc-n 2000", "same-bytes", None,
        "Monte Carlo CSV bytes must not depend on the CPU count: every estimate draws "
        "from one seeded base, and the m-PSK kernel's table and blocks are per process; "
        "grid rows spread over CPUs must keep this"),
    Row("streamed-rc", "simulate --psd rc:0.2 --fd 0.1 --n 4096 --realizations 2048",
        "peak", 100,
        "simulate streams its dump one block at a time: 2048 traces of 4096 samples are a "
        "128 MiB batch, which held whole peaked at 189 MiB"),
    Row("long-rect", "simulate --psd rect --fd 0.1 --n 262144 --realizations 16",
        "peak", 300,
        "one 2^18-sample trace per streamed block, embedded in m = 2^20 and inverse "
        "transformed in place; an out-of-place transform or a held batch"),
    Row("cap-rc", "simulate --psd rc:0.2 --fd 0.1 --n 1048576 --realizations 4",
        "peak", 300,
        "the longest rc:0.2 trace embeds in m = 2n, evaluating only the 2n + 1 lags that size "
        "needs; all 4n + 1 lags up front and m doubled for a share already below the dump's "
        "rounding peaked at 696 MiB"),
    Row("cap-rect", "simulate --psd rect --fd 0.1 --n 1048576 --realizations 4",
        "peak", 600,
        "rect tries m = 2n, 4n and 8n at the cap: the set-up transforms each size in place in "
        "one complex m-array; a real copy, a complex cast and an out-of-place output of the "
        "m = 8n transform peaked at 698 MiB"),
    Row("cap-jakes", "simulate --psd jakes --fd 0.1 --n 1048576 --realizations 4",
        "peak", 600,
        "as cap-rect for Jakes, the largest peak of the package: 729 MiB with the "
        "out-of-place set-up transform"),
    Row("mc-large", "sweep --psd rect --fd 0.05 --snr-db 12 --bounds lower_cm,sethuraman_lower "
        "--mc-n 4000000", "peak", 240,
        "a Monte Carlo estimate fills its n samples one block at a time next to its 24 n-byte "
        "base: 4e6 samples peaked at 301 MiB when each held six n-long temporaries"),
    Row("cholesky-large",
        "simulate --method cholesky --psd rect --fd 0.1 --n 2048 --realizations 2048",
        "peak", 150,
        "a Cholesky product spans at most 4 traces: over a whole 1024-trace block, 2048 "
        "traces at n 2048 peaked at 182 MiB"),
]


def measure(argv):
    """(exit code, wall seconds, peak RSS in MiB) of the child argv, with
    stdout discarded.  The peak is the child's own, from os.wait4: the
    RUSAGE_CHILDREN peak would be the largest of every child so far.  Linux
    also counts the caller's peak at spawn in it, so measure from a small
    process such as this script, not from one that has loaded numpy."""
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ,
                          file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_row(row, tmp):
    """(passed, report line) for one row, its outputs written under tmp."""
    cli = [sys.executable, "-m", "fadingrate.cli", *row.argv.split()]
    out = os.path.join(tmp, row.name)
    if row.kind == "peak":
        code, wall, peak = measure([*cli, "--out", out])
        passed = code == 0 and peak <= row.bound
        line = (f"wall {wall:6.2f} s  peak {peak:6.1f} MiB  bound {row.bound:4.0f} MiB  "
                f"margin {row.bound - peak:6.1f} MiB")
    else:
        code, wall, _ = measure(["taskset", "-c", "0", *cli, "--out", out + ".one"])
        code_all, wall_all, _ = measure([*cli, "--out", out + ".all"])
        code = code or code_all
        one, every = (_sha256(out + ".one"), _sha256(out + ".all")) if code == 0 else ("-", "-")
        passed = code == 0 and one == every
        line = f"wall {wall:6.2f} + {wall_all:5.2f} s  one CPU {one}  all CPUs {every}"
    if code:
        line += f"  exit {code}"
    return passed, f"{'ok  ' if passed else 'FAIL'} {row.name:20s} {line}"


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            passed, line = run_row(row, tmp)
            print(line, flush=True)
            failed += not passed
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
