"""The benchmark's workloads: the fadingrate CLI jobs of one pass.

Every job is one CLI invocation; the workload seed goes in as --seed.
Why each workload exists is written in NOTES.md.
"""

from dataclasses import dataclass, field

# Analytic bounds of the density sweeps (all need --beta for the peak ones).
ANALYTIC_BOUNDS = "lower_pg,upper_pred_pg,sethuraman_upper,upper_pred_peak,sd,lapidoth,coherent"
MC_FIXED_BOUNDS = "lower_cm,sethuraman_lower,sethuraman_upper,coherent"
MC_TIMESHARE_N = 400
SWEEP_FD = "0.01,0.02,0.03,0.04,0.05,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2,0.22,0.24,0.26"
# argparse reads a value like "-10:30:1" as a flag, so the grid is glued to its option.
NEGATIVE_SNR_GRID = "--snr-db=-10:30:1"


@dataclass
class Job:
    """One CLI invocation and how its output is checked.

    kind is "csv" (figure/sweep written to --out), "dump" (simulate) or
    "value" (predict prints one number).  ref names the stored reference
    under reference/.  refusal, when set, is the stderr text of a known
    refusal that this job still hits: it then counts in fail_frac but is
    not an unexpected failure.
    """

    name: str
    argv: list
    kind: str
    ref: str = None
    dump: dict = field(default_factory=dict)
    refusal: str = None


def _csv(name, argv, seed):
    return Job(name, argv + ["--seed", str(seed), "--out", name + ".csv"], "csv", ref=name)


def _simulate(name, psd, fd, n, realizations, seed, method="embedding", refusal=None):
    argv = ["simulate", "--psd", psd, "--fd", str(fd), "--n", str(n),
            "--realizations", str(realizations), "--seed", str(seed),
            "--method", method, "--out", name + ".bin"]
    dump = {"psd": psd, "fd": fd, "n": n, "realizations": realizations, "seed": seed}
    return Job(name, argv, "dump", dump=dump, refusal=refusal)


PREDICT_PAST = 2047


def _predict():
    powers = ",".join(["1"] * PREDICT_PAST)
    return Job("predict_rc", ["predict", "--psd", "rc:0.2", "--fd", "0.1", "--powers", powers],
               "value", ref="predict_rc")


def mc_timeshare(seed, small=False):
    mc_n = 20 if small else MC_TIMESHARE_N
    return [_csv("figure4", ["figure", "4", "--mc-n", str(mc_n)], seed)]


def mc_fixed(seed, small=False):
    psds = ["rect"] if small else ["rect", "rc:0.2", "jakes"]
    extra = ["--mc-n", "2000"] if small else []
    return [
        _csv("mc_" + psd.replace(":", "").replace(".", ""),
             ["sweep", "--psd", psd, "--fd", "0.05", "--snr-db", "0:12:12", "--beta", "2",
              "--bounds", MC_FIXED_BOUNDS] + extra, seed)
        for psd in psds
    ]


def analytic(seed, small=False):
    figures = [3] if small else [1, 3, 5, 6, 7]
    jobs = [_csv(f"figure{k}", ["figure", str(k)], seed) for k in figures]
    for psd in ["jakes"] if small else ["jakes", "rc:0.2"]:
        jobs.append(_csv("sweep_" + psd.replace(":", "").replace(".", ""),
                         ["sweep", "--psd", psd, "--fd", SWEEP_FD, NEGATIVE_SNR_GRID,
                          "--beta", "2", "--bounds", ANALYTIC_BOUNDS], seed))
    return jobs


def oracle(seed, small=False):
    if small:
        return [_simulate("sim_rect", "rect", 0.1, 256, 64, seed), _predict()]
    return [
        _simulate("sim_rect", "rect", 0.1, 4096, 256, seed),
        _simulate("sim_rc", "rc:0.2", 0.1, 4096, 256, seed),
        _simulate("sim_jakes", "jakes", 0.1, 1024, 256, seed),
        # refused today after about 3 s ("negative mass"); kept so the defect
        # shows in fail_frac and the fix shows in run_s and pass_frac
        _simulate("sim_jakes512", "jakes", 0.1, 512, 256, seed, refusal="negative mass"),
        _simulate("sim_rect_chol", "rect", 0.1, 2048, 64, seed, method="cholesky"),
        _predict(),
    ]


WORKLOADS = {
    "mc_timeshare": mc_timeshare,
    "mc_fixed": mc_fixed,
    "analytic": analytic,
    "oracle": oracle,
}
