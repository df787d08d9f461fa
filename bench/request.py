"""Run one spectral-strata CLI request in this fresh interpreter, as the
installed console script does, against the package under src/.

    python3 bench/request.py strata enumerate --lines 5
    python3 bench/request.py --rss-out rss.txt --trace-out spans.json strata cr --lines 5

With --rss-out the process writes its peak resident set (MiB) to the file
when it ends.  With --calib-out a calibration.Sampler runs from before the
package is imported, and the reference task's time at each sample is
written to the file at exit, one a line.  With --trace-out the library's
public functions are wrapped (see tracing.py) before cli.main runs
in-process, and the spans, the b-polynomial cache counters included, are
written to the file at exit.
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def peak_rss_mib() -> float:
    """Peak resident set of this process's own memory, in MiB.

    VmHWM counts only the pages of the program now running.  The rusage
    maxrss a parent gets from wait4 also counts the pages the child held
    before exec, that is, the parent's own size at the fork.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> None:
    options = {}
    while argv[:1] in (["--rss-out"], ["--trace-out"], ["--calib-out"]):
        options[argv[0]], argv = argv[1], argv[2:]
    sampler = tracer = None
    try:
        if "--calib-out" in options:
            import calibration

            sampler = calibration.Sampler()
            sampler.start()
        from spectral_strata.cli import main as cli_main

        if "--trace-out" in options:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            cli_main = tracer.wrap(tracing.CLI_SPAN, cli_main)
        cli_main(args=argv, prog_name="spectral-strata")
    finally:
        if sampler is not None:
            sampler.stop()
            Path(options["--calib-out"]).write_text("".join(f"{d!r}\n" for _, d in sampler.samples))
        if tracer is not None:
            tracer.record_cache_info()
            tracer.dump(options["--trace-out"])
        if "--rss-out" in options:
            Path(options["--rss-out"]).write_text(f"{peak_rss_mib()}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
