"""Pipeline benchmark for the hybridskin CLI.

    python3 perfbench/run.py --workload {skin_build,arm_sweep,log_replay}
        --seed N --seconds S --trace {0,1} [--smoke]

Builds the workload's inputs from the seed in a child process, then runs
the workload's CLI commands in this process, round after round, for about
S seconds (at least one round), and checks every command's outputs (see
checks.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. An operation is one CLI
command; it fails when it exits non-zero or its outputs fail their check.

--trace 0 reports the end-to-end metrics: setup_s (process start to inputs
built and the package imported), wall_s (median host time of a round's
commands) and peak_rss_mb (peak resident memory of this process; set-up and
the checks run in child processes, so neither counts). --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics of tracer.py, with the tracing overhead as
the traced minus the untraced median round time. --smoke builds small
inputs; with --seconds 0 it runs exactly one round.
"""

import time

_SCRIPT_START = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402  (imports no numerical library)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
WORKLOADS = ("skin_build", "arm_sweep", "log_replay")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def process_age():
    """Seconds since the kernel started this process (script start if unknown)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.monotonic() - _SCRIPT_START


def cap_threads():
    """Cap numerical-library thread pools at the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


def import_cli():
    """hybridskin.cli from the checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "hybridskin" / "__init__.py").is_file():
        raise SystemExit(f"hybridskin sources not found under {src}")
    sys.path.insert(0, str(src))
    from hybridskin import cli
    return cli


def build_inputs(workload, seed, work, smoke):
    """Run workloads.py in a child process and load the spec it writes."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)] + (["--smoke"] if smoke else [])
    subprocess.run(cmd, check=True)
    return json.loads((work / "spec.json").read_text())


def run_round(cli, spec, work):
    """One round of the workload's commands, then their checks.

    Only the CLI calls are timed. The checks run in a child process (see
    checks.py). Returns (wall seconds, cpu seconds, attempted, failed).
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    wall = cpu = 0.0
    ok, failed = [], 0
    for command in spec["commands"]:
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(command["argv"])
        except Exception:  # a crash is one failed operation; keep measuring
            rc = -1
            sink.write(traceback.format_exc())
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if rc == 0:
            ok.append(command["name"])
        else:
            failed += 1
            print(f"{command['name']}: exit {rc}\n{sink.getvalue().strip()[-2000:]}",
                  file=sys.stderr)
    check = subprocess.run([sys.executable, str(HERE / "checks.py"), "--work", str(work),
                            "--commands", ",".join(ok)], capture_output=True, text=True)
    try:
        report = json.loads(check.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = {name: [f"checks crashed: {check.stderr.strip()[-2000:]}"] for name in ok}
    for name in ok:
        fails = report.get(name, ["no check result"])
        if fails:
            failed += 1
            print(f"{name}: check failed: " + "; ".join(fails), file=sys.stderr)
    return wall, cpu, len(spec["commands"]), failed


def measure(cli, spec, work, seconds, trace):
    """Rounds until `seconds` would be exceeded by one more (at least one)."""
    probes = tracer.Tracer() if trace else None
    plain, traced, cpus, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        wall, cpu, a, f = run_round(cli, spec, work)
        plain.append(wall)
        cpus.append(cpu)
        attempted, failed = attempted + a, failed + f
        if probes is not None:
            probes.reset()
            probes.install()
            try:
                wall, cpu, a, f = run_round(cli, spec, work)
            finally:
                probes.remove()
            traced.append(wall)
            layers.append(probes.metrics())
            attempted, failed = attempted + a, failed + f
        now = time.perf_counter()
        if now - start + (now - t_iter) > seconds:
            break
    return plain, traced, cpus, layers, attempted, failed


def per_layer(traced, plain, layers):
    """Median of each per-layer metric over the traced rounds."""
    out = {}
    for name, unit in tracer.METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit in ("count", "bytes"):  # counts repeat exactly; keep them whole
            value = statistics.median_low([m[name] for m in layers])
        else:
            value = statistics.median([m[name] for m in layers])
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="hybridskin pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs")
    args = parser.parse_args(argv)

    cap_threads()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = build_inputs(args.workload, args.seed, work, args.smoke)
        cli = import_cli()
        setup_s = process_age()
        plain, traced, cpus, layers, attempted, failed = measure(
            cli, spec, work, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: {len(plain)} round(s), wall "
          f"{[round(w, 3) for w in plain]} s, cpu {[round(c, 3) for c in cpus]} s, "
          f"traced {[round(w, 3) for w in traced]} s, setup {setup_s:.3f} s, "
          f"peak {peak_mb:.1f} MB", file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, plain, layers)
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(plain),
                  "peak_rss_mb": peak_mb}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
