"""End-to-end acceptance gate.

Each test drives one check from the verification registry, prints a single
pass/fail line (visible under pytest -s or in the failure report), and
enforces the check's wall-clock budget.  Run the same battery from the
command line with `fadingrate verify --level full`.
"""

from fadingrate import verify


def _gate(result, budget_s):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} — {result.observed} ({result.runtime:.2f} s)")
    assert result.passed, f"{result.name}: {result.observed}; expected {result.expected}"
    assert result.runtime < budget_s, (
        f"{result.name} took {result.runtime:.1f} s, budget {budget_s} s"
    )


def test_01_rate_gap_envelope_and_high_snr_limit():
    _gate(verify.check_gap_envelope(), 5.0)


def test_02_high_snr_prelog_slopes():
    _gate(verify.check_prelog(), 1.0)


def test_03_entropy_gap_reaches_euler_constant():
    _gate(verify.check_euler_limit(), 1.0)


def test_04_spot_values_against_independent_quadrature():
    _gate(verify.check_spot_values(), 1.0)


def test_05_finite_prediction_converges_to_spectral_limit():
    _gate(verify.check_pred_convergence(), 60.0)


def test_06_peak_bounds_coincide_without_headroom():
    _gate(verify.check_beta1_coincidence(), 5.0)


def test_07_peak_bound_ordering_with_mc_lower():
    _gate(verify.check_peak_bound_ordering(), 600.0)


def test_08_on_fraction_exactly_one_under_conditions():
    _gate(verify.check_alpha_opt(), 5.0)


def test_09_prediction_error_rational_convexity():
    _gate(verify.check_prediction_convexity(), 60.0)


def test_10_monte_carlo_cross_checks():
    _gate(verify.check_mc_crosschecks(), 300.0)


def test_11_pilot_bounds_closed_form_and_ordering():
    _gate(verify.check_sd_bounds(), 10.0)
