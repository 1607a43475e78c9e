"""Record the expected result of every input variant into expected.json.

Run once, from the repository root, at the commit that defines the
benchmark; later commits are checked against what it wrote:

    python3 perfbench/record_expected.py [workload ...]

Each variant runs once through the CLI. Its exit code and result digest are
stored, and its certificates must pass replay.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(names) -> int:
    run.pin_threads()
    signelim, _ = run.import_signelim()
    expected = {}
    if run.EXPECTED_PATH.exists():
        expected = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    try:
        for name in names or sorted(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            runner = run.Runner(signelim, workload, workdir, expected=None)
            table = {}
            for slot in workload.slots:
                rows = []
                for variant in range(workloads.VARIANTS):
                    result = runner.run(runner.prepare(slot, variant))
                    if result.error:
                        raise SystemExit(f"{name}/{slot.name}/{variant}: {result.error}")
                    rows.append([result.exit_code, result.digest])
                    print(f"{name} {slot.name} {variant} exit {result.exit_code} "
                          f"{result.latency:.3f} s", file=sys.stderr)
                table[slot.name] = rows
            expected[name] = table
    finally:
        shutil.rmtree(run.WORK_ROOT, ignore_errors=True)
    run.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
