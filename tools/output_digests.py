"""Print the sha256 of every output file of the benchmark's three workloads.

For each seed, builds the inputs of skin_build, arm_sweep and log_replay
with perfbench/workloads.py, runs each workload's CLI commands (generate,
simulate, reconstruct, snr) in process against this checkout's src/, and
prints one line per output file:

    workload seed file sha256

The resolved configs that the commands write name their input paths, so
two checkouts print the same lines for the same outputs only when they use
the same --work. Whether a change keeps every output byte-identical is then
one diff:

    python3 tools/output_digests.py --seeds 7-16 --work /tmp/digests > parent.txt
    python3 tools/output_digests.py --seeds 7-16 --work /tmp/digests > change.txt
    diff parent.txt change.txt

(the first line run in the parent's checkout, the second in the change's).
"""

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("skin_build", "arm_sweep", "log_replay")


def seed_range(text):
    """'7-16' -> range(7, 17); '7' -> range(7, 8)."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def import_cli():
    """hybridskin.cli from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(ROOT / "src"))
    from hybridskin import cli
    return cli


def build_inputs(workload, seed, work, smoke):
    """The workload's inputs written by perfbench/workloads.py in a child
    process that writes no bytecode next to it; returns its spec."""
    subprocess.run([sys.executable, "-B", str(ROOT / "perfbench" / "workloads.py"),
                    "--workload", workload, "--seed", str(seed), "--out", str(work)]
                   + (["--smoke"] if smoke else []), check=True)
    return json.loads((work / "spec.json").read_text())


def output_digests(cli, workload, seed, work, smoke):
    """(relative path, sha256) of every file the workload's commands write."""
    spec = build_inputs(workload, seed, work, smoke)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    for command in spec["commands"]:
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            rc = cli.main(command["argv"])
        if rc != 0:
            raise SystemExit(f"{workload} seed {seed}: {command['name']} exited {rc}\n"
                             f"{console.getvalue()}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        yield path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed or an inclusive range such as 7-16")
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for the inputs and outputs, one subdirectory "
                             "per workload and seed")
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' small smoke inputs")
    args = parser.parse_args(argv)
    cli = import_cli()
    for workload in WORKLOADS:
        for seed in args.seeds:
            work = args.work.resolve() / f"{workload}-{seed}"
            for name, digest in output_digests(cli, workload, seed, work, args.smoke):
                print(workload, seed, name, digest, flush=True)


if __name__ == "__main__":
    main()
