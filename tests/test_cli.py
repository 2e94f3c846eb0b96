"""Command-line interface: CSV contract, determinism, exit codes."""

import math

import numpy as np
import pytest

import fadingrate.cli as cli
from fadingrate.cli import main
from fadingrate.prediction import PowerProfile, ToeplitzCov, pred_error_finite
from fadingrate.quadrature import g_logmoment
from fadingrate.simulate import read_fading_dump
from fadingrate import verify
from fadingrate.verify import CheckResult

SWEEP = ["sweep", "--psd", "rect", "--fd", "0.1,0.2", "--snr-db", "0:10:5"]


def _parse_csv(text):
    lines = text.strip().split("\n")
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return meta, header, rows


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_sweep_header_and_shape(capsys):
    code, out = _run(capsys, SWEEP)
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert meta[0].startswith("# fadingrate ")
    assert meta[1].startswith("# flags: sweep --psd rect --fd 0.1,0.2 --snr-db 0:10:5")
    assert meta[2] == "# seed: 0"
    assert header == [
        "f_d", "snr_db",
        "lower_pg", "lower_pg_clamped",
        "upper_pg", "upper_pg_clamped",
        "coherent",
    ]
    assert len(rows) == 2 * 3  # two Doppler values, three SNR points


def test_sweep_spot_values(capsys):
    _, out = _run(capsys, SWEEP)
    _, header, rows = _parse_csv(out)
    row = {k: v for k, v in zip(header, rows[0])}
    assert float(row["f_d"]) == 0.1 and float(row["snr_db"]) == 0.0
    assert float(row["lower_pg"]) == pytest.approx(0.23799546847758307418, abs=1e-13)
    assert float(row["upper_pg"]) == pytest.approx(0.39447743117349738704, abs=1e-13)
    assert float(row["coherent"]) == pytest.approx(g_logmoment(1.0), abs=1e-15)
    assert row["lower_pg_clamped"] == "0"


def test_sweep_reruns_identically(capsys):
    _, first = _run(capsys, SWEEP)
    _, second = _run(capsys, SWEEP)
    assert first == second


def test_mc_bounds_rerun_identically_and_respect_seed(capsys):
    argv = ["sweep", "--psd", "rect", "--fd", "0.2", "--snr-db", "0",
            "--bounds", "lower_cm", "--mc-n", "20000"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    _, other = _run(capsys, argv + ["--seed", "1"])
    _, header, rows_a = _parse_csv(first)
    _, _, rows_b = _parse_csv(other)
    col = header.index("lower_cm")
    assert rows_a[0][col] != rows_b[0][col]
    col_se = header.index("lower_cm_stderr")
    assert float(rows_a[0][col_se]) > 0.0


def test_units_bit_divides_rate_columns(capsys):
    _, nat = _run(capsys, SWEEP)
    _, bit = _run(capsys, SWEEP[:]
                  + ["--units", "bit"])
    _, header, rows_n = _parse_csv(nat)
    _, _, rows_b = _parse_csv(bit)
    i_rate = header.index("upper_pg")
    i_flag = header.index("upper_pg_clamped")
    for rn, rb in zip(rows_n, rows_b):
        assert float(rb[i_rate]) == pytest.approx(float(rn[i_rate]) / math.log(2.0), rel=1e-15)
        assert rb[i_flag] == rn[i_flag]  # indicator columns never rescale


def test_out_file_matches_stdout(tmp_path, capsys):
    _, streamed = _run(capsys, SWEEP)
    path = tmp_path / "sweep.csv"
    code = main(SWEEP + ["--out", str(path)])
    capsys.readouterr()
    assert code == 0
    on_disk = path.read_text()
    # the flags line records --out-independent parameters only
    assert on_disk == streamed


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--psd", "jakes", "--fd", "0.1", "--snr-db", "0", "--bounds", "upper_pg"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--bounds", "upper_peak"],
        ["sweep", "--psd", "tri", "--fd", "0.1", "--snr-db", "0"],
        ["sweep", "--psd", "rc:x", "--fd", "0.1", "--snr-db", "0"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "10:0:5"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--bounds", "magic"],
        ["sweep", "--psd", "rect", "--fd", "0.6", "--snr-db", "0"],
        ["figure", "9"],
        ["predict", "--psd", "rect", "--fd", "0.1", "--infinite"],
        ["predict", "--psd", "rect", "--fd", "0.1"],
        ["simulate", "--psd", "jakes", "--fd", "0.1", "--n", "512", "--out", "/dev/null"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "nan"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "ten"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "4000"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0:1e9:1e-9"],
        ["sweep", "--psd", "rect", "--fd", "nan", "--snr-db", "0"],
        ["sweep", "--psd", "rect", "--fd", "1e999", "--snr-db", "0"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--beta", "nan",
         "--bounds", "upper_peak"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--beta", "0.5",
         "--bounds", "upper_peak"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--beta", "inf",
         "--bounds", "upper_peak"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--mc-n", "0",
         "--bounds", "lower_cm"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--mc-n", "-5",
         "--bounds", "lower_cm"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--mc-n", "1",
         "--bounds", "lower_cm"],
        ["figure", "4", "--mc-n", "1"],
        ["sweep", "--psd", "rect", "--fd", "0.01", "--snr-db", "3070", "--beta", "2",
         "--bounds", "upper_pred_pg"],
        ["sweep", "--psd", "rect", "--fd", "0.01", "--snr-db", "3070", "--beta", "2",
         "--bounds", "sethuraman_upper"],
        ["sweep", "--psd", "rect", "--fd", "0.01", "--snr-db", "3070", "--beta", "2",
         "--bounds", "upper_pred_peak"],
        ["sweep", "--psd", "rect", "--fd", "0.01", "--snr-db=-3300", "--bounds", "lapidoth"],
        ["sweep", "--psd", "jakes", "--fd", "0.01", "--snr-db", "3000", "--beta", "2",
         "--bounds", "sethuraman_upper"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--mc-n", "100000001",
         "--bounds", "lower_cm"],
        ["figure", "4", "--mc-n", "1000000000000"],
        ["simulate", "--psd", "rect", "--fd", "0.1", "--n", "1048577", "--out", "/dev/null"],
        ["simulate", "--psd", "rect", "--fd", "0.1", "--n", "1024", "--realizations", "48829",
         "--out", "/dev/null"],
        ["predict", "--psd", "rect", "--fd", "0.1", "--infinite", "--power", "inf"],
        ["predict", "--psd", "rect", "--fd", "0.1", "--infinite", "--power", "nan"],
        ["predict", "--psd", "rect", "--fd", "0.1", "--infinite", "--power", "1",
         "--sigma-n2", "inf"],
        ["predict", "--psd", "rect", "--fd", "0.1", "--infinite", "--power", "1e308"],
        ["predict", "--psd", "jakes", "--fd", "0.1", "--infinite", "--power", "inf"],
        ["predict", "--psd", "jakes", "--fd", "0.1", "--infinite", "--power", "1e308"],
        ["verify", "--seed", "-1"],
        ["verify", "--seed", "18446744073709551602"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--bounds", "lower_cm",
         "--seed", "-1"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0",
         "--seed", "18446744073709551616"],
        ["simulate", "--psd", "rect", "--fd", "0.1", "--seed", "18446744073709551616",
         "--out", "/dev/null"],
        ["figure", "1", "--seed", "-1"],
        ["sweep", "--psd", "jakes", "--fd", "0.1", "--snr-db", "3000", "--beta", "1e10",
         "--bounds", "sethuraman_upper"],
        ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "3000", "--beta", "1e10",
         "--bounds", "sethuraman_upper"],
    ],
    ids=["rect-only-bound", "peak-needs-beta", "bad-psd", "bad-rolloff", "bad-grid",
         "unknown-bound", "bad-fd", "bad-figure", "infinite-needs-power",
         "missing-powers", "infeasible-embedding", "snr-nan", "snr-not-a-number",
         "snr-overflow", "grid-over-row-cap", "fd-nan", "fd-overflow", "beta-nan",
         "beta-below-one", "beta-inf", "mc-n-zero", "mc-n-negative", "mc-n-one",
         "figure-mc-n-one", "pred-pg-float-edge", "sethuraman-non-finite",
         "pred-peak-non-finite", "lapidoth-zero-snr", "jakes-node-overflow", "mc-n-over-cap",
         "figure-mc-n-over-cap", "sim-n-over-cap", "sim-samples-over-cap",
         "pred-power-inf", "pred-power-nan", "pred-noise-inf", "pred-power-overflow",
         "pred-jakes-power-inf", "pred-jakes-overflow", "verify-seed-negative",
         "verify-seed-over-offset", "sweep-seed-negative", "sweep-seed-overflow",
         "sim-seed-overflow", "figure-seed-negative", "jakes-spectral-arg-inf",
         "rect-spectral-arg-inf"],
)
# a numpy warning would print to stderr beside the error line
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_usage_errors_exit_2(argv, capsys, request):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    reason = USAGE_REASONS.get(request.node.callspec.id)
    assert reason is None or err.endswith(reason + "\n"), err


# the stated reason of the refusals whose wording is part of the contract
USAGE_REASONS = {
    "pred-pg-float-edge": "argument must be finite, got inf",
    "mc-n-over-cap": "--mc-n 100000001 exceeds the cap of 100000000 samples",
    "figure-mc-n-over-cap": "--mc-n 1000000000000 exceeds the cap of 100000000 samples",
    "sim-n-over-cap": "--n 1048577 exceeds the trace-length cap of 1048576",
    "sim-samples-over-cap": "--n x --realizations = 50000896 exceeds the cap of 50000000 samples",
    "pred-power-nan": "power must be finite and nonnegative, got nan",
    "pred-noise-inf": "sigma_n2 must be finite and positive, got inf",
    "pred-power-overflow": "prediction error is not finite (inf) at these powers",
    "verify-seed-negative": "seed and task_index must be nonnegative",
    "verify-seed-over-offset": "--seed 18446744073709551602 exceeds 18446744073709551601",
    "sweep-seed-negative": "seed and task_index must be nonnegative",
    "sweep-seed-overflow": "--seed 18446744073709551616 exceeds 18446744073709551615",
    "sim-seed-overflow": "--seed 18446744073709551616 exceeds 18446744073709551615",
    "figure-seed-negative": "seed and task_index must be nonnegative",
    "jakes-spectral-arg-inf": "c must be finite, got inf",
    "rect-spectral-arg-inf": "c must be finite, got inf",
}


@pytest.mark.parametrize("psd", ["rect", "jakes", "rc:0.2"])
def test_extreme_snr_exits_cleanly(psd, capsys):
    """Far outside the plotted range every analytic bound either prints its
    cells or refuses the grid point with one error line; none raises."""
    names = [name for name, bound in cli.BOUNDS.items()
             if not bound.monte_carlo and (psd == "rect" or not bound.rect_only)]
    for db in (-300, -200, -100, -40, 300, 3000):
        for name in names:
            code = main(["sweep", "--psd", psd, "--fd", "0.1", f"--snr-db={db}",
                         "--beta", "2", "--bounds", name])
            captured = capsys.readouterr()
            assert code in (0, 2), (db, name)
            if code == 2:
                assert captured.err.startswith(f"error: bound {name!r} cannot be evaluated "
                                               f"at f_d 0.1, SNR {db} dB")
                assert captured.err.count("\n") == 1
            else:
                assert captured.err == ""


# the columns each --bounds entry contributes, in order; flags, on-fractions
# and the pilot spacing are not rates, everything else is
HEADERS = {
    "lower_pg": ["lower_pg", "lower_pg_clamped"],
    "upper_pg": ["upper_pg", "upper_pg_clamped"],
    "upper_pred_pg": ["upper_pred_pg", "upper_pred_pg_clamped"],
    "coherent": ["coherent"],
    "upper_peak": ["upper_peak", "upper_peak_clamped", "upper_peak_alpha"],
    "sethuraman_upper": ["sethuraman_upper", "sethuraman_upper_clamped",
                         "sethuraman_upper_alpha"],
    "upper_pred_peak": ["upper_pred_peak", "upper_pred_peak_clamped", "upper_pred_peak_alpha"],
    "lower_cm": ["lower_cm", "lower_cm_stderr", "lower_cm_clamped"],
    "lower_cm_ts": ["lower_cm_ts", "lower_cm_ts_stderr", "lower_cm_ts_clamped",
                    "lower_cm_ts_alpha"],
    "sethuraman_lower": ["sethuraman_lower", "sethuraman_lower_stderr"],
    "sethuraman_lower_ts": ["sethuraman_lower_ts", "sethuraman_lower_ts_stderr",
                            "sethuraman_lower_ts_alpha"],
    "sd": ["sd_lower", "sd_upper", "sd_L"],
    "lapidoth": ["lap_upper", "lap_lower"],
}
NOT_RATES = {"sd_L"} | {c for cols in HEADERS.values() for c in cols
                        if c.endswith(("_clamped", "_alpha"))}


@pytest.mark.parametrize("name", list(cli.BOUNDS))
def test_bound_header_contract(name, capsys):
    argv = ["sweep", "--psd", "rect", "--fd", "0.05", "--snr-db", "10", "--beta", "2",
            "--bounds", name, "--mc-n", "50"]
    _, nat = _run(capsys, argv)
    _, bit = _run(capsys, argv + ["--units", "bit"])
    _, header, rows_n = _parse_csv(nat)
    _, _, rows_b = _parse_csv(bit)
    assert header == ["f_d", "snr_db"] + HEADERS[name]
    for col, vn, vb in zip(header[2:], rows_n[0][2:], rows_b[0][2:]):
        if col in NOT_RATES:
            assert vb == vn
        else:
            assert float(vb) == pytest.approx(float(vn) / math.log(2.0), rel=1e-15)


def test_bounds_help_and_error_list_every_bound(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(HEADERS) in help_text
    assert main(["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0",
                 "--bounds", "magic"]) == 2
    err = capsys.readouterr().err
    assert err.split("choose from ")[1].strip().split(", ") == list(HEADERS)


def test_verify_levels_pin_check_order():
    fast = [chk.__name__ for chk in verify.FAST_CHECKS]
    assert fast == [
        "check_quadrature_routes", "check_entropy_ordering", "check_infinite_pred_identity",
        "check_sim_laws", "check_gap_envelope", "check_prelog", "check_euler_limit",
        "check_spot_values", "check_pred_convergence", "check_beta1_coincidence",
        "check_alpha_opt", "check_prediction_convexity", "check_mc_crosschecks",
        "check_sd_bounds",
    ]
    assert [chk.__name__ for chk in verify.FULL_CHECKS] == fast + [
        "check_peak_bound_ordering", "check_pred_convergence_deep", "check_periodogram",
        "check_mc_pg_ten_million",
    ]


def test_default_bounds_depend_on_density(capsys):
    _, out = _run(capsys, ["sweep", "--psd", "jakes", "--fd", "0.1", "--snr-db", "0"])
    _, header, _ = _parse_csv(out)
    assert "upper_pg" not in header  # flat-density bound offered only for rect
    assert header[:2] == ["f_d", "snr_db"]
    assert "lower_pg" in header and "coherent" in header


def test_beta_axis_adds_column(capsys):
    argv = ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0", "--beta", "2",
            "--bounds", "upper_peak"]
    _, out = _run(capsys, argv)
    _, header, rows = _parse_csv(out)
    assert "upper_peak_alpha" in header
    alpha = float(rows[0][header.index("upper_peak_alpha")])
    assert 0.0 <= alpha <= 1.0


def test_sd_cells_empty_when_no_spacing_admissible(capsys):
    argv = ["sweep", "--psd", "rect", "--fd", "0.45,0.05", "--snr-db", "10",
            "--bounds", "sd"]
    _, out = _run(capsys, argv)
    _, header, rows = _parse_csv(out)
    i = header.index("sd_lower")
    fast, slow = rows[0], rows[1]
    assert fast[i] == "" and fast[i + 1] == "" and fast[i + 2] == ""
    assert float(slow[i]) > 0.0
    assert int(float(slow[header.index("sd_L")])) >= 2


def test_lapidoth_upper_empty_below_unit_snr(capsys):
    # the leading dash needs the --flag=value spelling to clear argparse
    argv = ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db=-3:3:3",
            "--bounds", "lapidoth"]
    _, out = _run(capsys, argv)
    _, header, rows = _parse_csv(out)
    i_up = header.index("lap_upper")
    assert rows[0][i_up] == ""  # -3 dB
    assert rows[1][i_up] == ""  # 0 dB: iterated log undefined at rho = 1
    assert rows[2][i_up] != ""  # +3 dB
    # far below 0 dB the prediction error rounds to 1 and lap_lower is undefined
    _, out = _run(capsys, ["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db=-200",
                           "--bounds", "lapidoth"])
    _, header, rows = _parse_csv(out)
    assert rows[0][header.index("lap_lower")] == ""


def test_figure_1_rows_and_ordering(capsys):
    _, out = _run(capsys, ["figure", "1"])
    _, header, rows = _parse_csv(out)
    assert len(rows) == 99 * 3
    i_lo, i_up = header.index("lower_pg"), header.index("upper_pg")
    for row in rows:
        assert float(row[i_lo]) <= float(row[i_up]) + 1e-12


def test_figure_7_entropy_gap_columns(capsys):
    _, out = _run(capsys, ["figure", "7"])
    _, header, rows = _parse_csv(out)
    assert header == ["snr_db", "delta_hy", "delta_hy_refined",
                      "delta_hy_refined_err", "euler_gamma"]
    assert len(rows) == 41
    last = rows[-1]
    assert float(last[0]) == 60.0
    assert float(last[1]) == pytest.approx(0.5772, abs=1e-3)
    assert float(last[2]) < float(last[1])
    assert float(last[4]) == pytest.approx(0.5772156649015329, abs=1e-15)


def test_figure_4_carries_stderr_columns(capsys):
    _, out = _run(capsys, ["figure", "4", "--mc-n", "2000"])
    _, header, rows = _parse_csv(out)
    assert len(rows) == 3 * 9
    assert "sethuraman_lower_stderr" in header
    assert "sethuraman_lower_ts_alpha" in header
    i = header.index("sethuraman_lower_stderr")
    assert all(float(r[i]) > 0.0 for r in rows)


def test_verify_exit_codes(capsys, monkeypatch):
    good = CheckResult("alpha", True, "fine", "fine", 0.01)
    bad = CheckResult("beta", False, "off by 1", "zero", 0.02)

    monkeypatch.setattr(cli, "run_suite", lambda level, seed: ([good], True))
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] alpha" in out and "1/1 checks passed (fast level, seed 0)" in out

    monkeypatch.setattr(cli, "run_suite", lambda level, seed: ([good, bad], False))
    assert main(["verify", "--level", "full", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] beta" in out and "expected: zero" in out
    assert "1/2 checks passed (full level, seed 3)" in out

    # the largest seed whose derived check seeds stay inside make_rng's range
    assert main(["verify", "--seed", str(verify.MAX_SEED)]) == 1
    assert f"seed {2**64 - 15})" in capsys.readouterr().out


def test_predict_finite(capsys):
    code, out = _run(capsys, ["predict", "--psd", "rect", "--fd", "0.1",
                              "--powers", "1,1"])
    assert code == 0
    expect = pred_error_finite(
        ToeplitzCov.from_model(cli.Rectangular(0.1), 3), PowerProfile((1.0, 1.0)), 1.0
    )
    assert float(out) == pytest.approx(expect, abs=1e-16)
    assert float(out) == pytest.approx(0.49719510452390447, abs=1e-13)


def test_predict_infinite(capsys):
    code, out = _run(capsys, ["predict", "--psd", "rect", "--fd", "0.1",
                              "--infinite", "--power", "1"])
    assert code == 0
    assert float(out) == pytest.approx(6.0 ** 0.2 - 1.0, abs=1e-13)


def test_simulate_writes_readable_dump(tmp_path, capsys):
    path = tmp_path / "traces.fade"
    code, out = _run(capsys, ["simulate", "--psd", "rect", "--fd", "0.1",
                              "--n", "64", "--realizations", "2",
                              "--seed", "5", "--out", str(path)])
    assert code == 0
    assert out.strip() == f"wrote 2 x 64 trace(s) to {path}"
    back, meta = read_fading_dump(path)
    assert back.shape == (2, 64)
    assert meta["f_d"] == 0.1 and meta["seed"] == 5
    assert np.all(np.isfinite(back.view(np.float32)))


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed before --out was checked")


@pytest.mark.parametrize("argv,target", [
    (["sweep", "--psd", "rect", "--fd", "0.1", "--snr-db", "0"], "missing/x.csv"),
    (["figure", "1"], "."),
    (["figure", "2", "--mc-n", "20000"], "missing/x.csv"),
    (["simulate", "--psd", "rect", "--fd", "0.1", "--n", "64"], "missing/x.bin"),
], ids=["sweep-missing-dir", "figure-directory", "figure-missing-dir", "simulate-missing-dir"])
def test_unwritable_out_exits_2(argv, target, tmp_path, capsys, monkeypatch):
    # an --out that cannot be opened is a usage error naming the path, not
    # a traceback, and it is refused before anything is computed
    monkeypatch.setattr(cli, "_evaluate_grid", _must_not_run)
    monkeypatch.setattr(cli, "gen_fading_batch", _must_not_run)
    path = str(tmp_path / target)
    assert main(argv + ["--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {path}: ")
    assert captured.err.count("\n") == 1


def test_out_errors_after_the_check_still_exit_2(tmp_path, capsys, monkeypatch):
    # an --out that passes the up-front check but fails to open is refused
    # when it is written
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    path = str(tmp_path / "missing" / "x.csv")
    assert main(["figure", "1", "--out", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {path}: ")


def test_existing_out_needs_no_writable_directory(tmp_path, capsys, monkeypatch):
    # as for a user who may not write /dev or the output's directory: an
    # existing writable file (/dev/null among them) is still accepted, a new
    # file there is refused, and the command's own usage errors come through
    refused = {str(tmp_path), "/dev"}
    real_access = cli.os.access
    monkeypatch.setattr(cli.os, "access",
                        lambda path, mode: str(path) not in refused and real_access(path, mode))
    kept = tmp_path / "kept.bin"
    kept.write_bytes(b"")
    sim = ["simulate", "--psd", "rect", "--fd", "0.1", "--n", "64", "--out"]
    assert main(sim + [str(kept)]) == 0
    assert read_fading_dump(kept)[0].shape == (1, 64)
    new = tmp_path / "new.bin"
    assert main(sim + [str(new)]) == 2
    assert not new.exists()
    assert main(sim + ["/dev/null", "--n", "1048577"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {new}: Permission denied\n")
    assert err.endswith("error: --n 1048577 exceeds the trace-length cap of 1048576\n")


def test_refused_run_leaves_out_untouched(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["figure", "9", "--out", str(out)]) == 2
    assert not out.exists()
    out.write_text("kept\n")
    assert main(["figure", "9", "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
