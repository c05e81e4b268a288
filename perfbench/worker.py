"""One benchmark worker: a fresh interpreter that sets up and runs one workload.

perfbench/run.py spawns this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --preset toy_8_8 --T 200 --eval-cadence 200 \
        --seed 1 --csv OUT.csv --t0 MONOTONIC [--spans SPANS.tsv] [--setup-only]

Set-up is timed from ``--t0``, the parent's ``time.monotonic()`` taken just
before it spawned this process (CLOCK_MONOTONIC is system-wide), to a parsed
and validated config with the seed, T, eval-cadence and CSV-path overrides
applied.  The run is one ``cli.run_experiment`` call, timed in wall and CPU
seconds.  Each time is reported as measured (``*_wall_s``, ``cpu_raw_s``) and
in reference seconds (probe.py).  The result is printed as one JSON line on
standard output.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec, in MiB.

    VmHWM belongs to the current address space only; ``ru_maxrss`` can
    carry the spawning parent's peak across a vfork+exec, so it is the
    fallback, not the first choice.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    from metasgld import cli
    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    cfg = cli.load_config_file(cli.preset_path(args.preset))
    outputs = replace(cfg.outputs, csv_path=args.csv, plot_path=None,
                      eval_cadence=args.eval_cadence)
    if cfg.mode == cli.MODE_ALTERNATE:
        cfg = replace(cfg, outputs=outputs,
                      run=replace(cfg.run, seed=args.seed, T=args.T))
    else:
        cfg = replace(cfg, outputs=outputs,
                      joint=replace(cfg.joint, seed=args.seed, T=args.T))
    setup_wall = time.monotonic() - args.t0

    from probe import SpeedProbe
    probe = SpeedProbe()
    probe.burst()
    result = {"mode": cfg.mode, "setup_wall_s": setup_wall,
              "setup_s": probe.reference_s(setup_wall, slice(0, 0))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    start = len(probe.times)
    with probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        status = cli.run_experiment(cfg)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        end = len(probe.times)
    probe.burst()
    if status != 0:
        raise RuntimeError(f"run_experiment returned {status}")
    inside = slice(start, end)
    result.update(run_s=probe.reference_s(wall, inside),
                  cpu_s=probe.reference_s(cpu, inside),
                  run_wall_s=wall, cpu_raw_s=cpu, peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        result["layers"] = tracer.summary(time_scale=probe.scale())
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--preset", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--eval-cadence", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans", default=None,
                   help="trace the run and write its spans to this file")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main())
