"""tools/output_digests.py on one seed of the workloads' smoke inputs."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def run_tool(work):
    done = subprocess.run([sys.executable, str(TOOL), "--seeds", "7", "--work", str(work),
                           "--smoke"], capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_output_digests_lists_every_output_file_of_every_workload(tmp_path):
    lines = run_tool(tmp_path)
    rows = [line.split(" ") for line in lines]
    assert all(len(row) == 4 and row[1] == "7" for row in rows)
    files = {(workload, name) for workload, _, name, _ in rows}
    assert {("skin_build", "gen/skin.obj"), ("arm_sweep", "gen/manifest.json"),
            ("arm_sweep", "sim/samples.jsonl"), ("arm_sweep", "rec/cloud.ply"),
            ("arm_sweep", "rep/snr.csv"), ("log_replay", "rec/cloud.ply"),
            ("log_replay", "rep/summary.txt")} <= files
    for workload, seed, name, digest in rows:
        out = tmp_path / f"{workload}-{seed}" / "out" / name
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # The same work directory gives the same lines: a diff of two runs
    # shows only output changes.
    assert run_tool(tmp_path) == lines
