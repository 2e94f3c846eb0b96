"""The CI bounds table of tests/ci_bounds.py and its measuring helper."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from fadingrate import cli

_spec = importlib.util.spec_from_file_location(
    "ci_bounds", pathlib.Path(__file__).with_name("ci_bounds.py"))
ci_bounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_bounds)


@pytest.mark.parametrize("row", ci_bounds.ROWS, ids=lambda row: row.name)
def test_row_parses(row):
    args = cli._build_parser().parse_args([*row.argv.split(), "--out", "x"])
    assert args.func in (cli.cmd_simulate, cli.cmd_sweep, cli.cmd_figure)
    assert row.kind in ("peak", "same-bytes")
    assert (row.bound is not None) == (row.kind == "peak")
    assert row.catches


def test_row_names_unique():
    names = [row.name for row in ci_bounds.ROWS]
    assert len(set(names)) == len(names)


def test_measure_reads_each_child_own_peak():
    # a child that touches 100 MiB, then one that touches none: under
    # RUSAGE_CHILDREN the second would read the first's peak.  A child's
    # peak also counts its parent's at spawn, so the helper runs in a
    # fresh interpreter, as the script does, not in this one
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from ci_bounds import measure; "
             "print(*measure([sys.executable, '-c', 'b = bytearray(100 << 20)']), "
             "*measure([sys.executable, '-c', 'raise SystemExit(3)']))")
    out = subprocess.run([sys.executable, "-c", probe, str(pathlib.Path(__file__).parent)],
                         capture_output=True, text=True, check=True).stdout.split()
    (code, _, big), (code_none, _, small) = map(float, out[:3]), map(float, out[3:])
    assert code == 0 and big >= 100
    assert code_none == 3 and small < big / 2
