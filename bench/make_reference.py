"""Write bench/reference.json: the check ids, verdicts and drift/gap values
of the all-cold scenario, against which every benchmark run is checked.

    python3 bench/make_reference.py

Runs the scenario through the CLI with seeds 0 and 1 and keeps only the
gap values both seeds agree on; values that depend on the seed (random
sample points) are checked by their verdict alone. Regenerate only when a
change to the checks is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_report(seed: int, workdir: Path) -> dict:
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(workloads.README_SCENARIO))
    out = workdir / f"seed{seed}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "kvnlab.cli", "run", str(scenario), "--out", str(out),
                    "--seed", str(seed)], env=env, check=True, stdout=subprocess.DEVNULL)
    return {c["id"]: c for c in json.loads((out / "report.json").read_text())["checks"]}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        first, second = (run_report(seed, Path(tmp)) for seed in (0, 1))
    checks = {}
    for cid, check in first.items():
        other = workloads.gap_values(second[cid])
        gaps = {k: v for k, v in workloads.gap_values(check).items() if other.get(k) == v}
        checks[cid] = {"verdict": check["verdict"], "gaps": gaps}
    reference = {"scenario": workloads.README_SCENARIO, "checks": checks}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(checks)} checks to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
