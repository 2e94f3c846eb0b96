"""Run one fadingrate CLI job in a fresh interpreter and time it.

Usage: python3 job.py RESULT_JSON LAUNCH_T TRACE -- CLI_ARGS...

LAUNCH_T is the parent's time.perf_counter() reading just before it
started this interpreter (CLOCK_MONOTONIC, shared across processes), so
set-up time runs from launch until ``fadingrate.cli`` is imported.  With
TRACE = 1 the layer functions are wrapped (see spans.py) after the
import, and the job's spans go into the result when the job ends.
The exit code of the CLI goes into the result; this script itself exits 0
once the result is written.
"""

import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kib():
    """Peak resident set of this process image.  ru_maxrss would do, but
    Linux carries the parent's peak across fork and exec into it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    result_path, launch_t, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    cli_argv = sys.argv[sys.argv.index("--") + 1:]
    import fadingrate.cli as cli

    imported_t = time.perf_counter()
    tracer = None
    entry = cli.main
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    try:
        rc = entry(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 1
    end = time.perf_counter()
    sys.stdout.flush()
    result = {
        "rc": rc,
        "setup_s": imported_t - launch_t,
        "run_s": end - start,
        "job": os.path.splitext(os.path.basename(result_path))[0],
        "maxrss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["mc_samples"] = tracer.mc_samples
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
