"""Record the digest of every operation's output at seed 0.

    python3 perfbench/record_digests.py

Runs one batch of each workload at seed 0 and writes perfbench/digests.json,
the reference that every later run is checked against.  Run it only when the
benchmark's operations change, never to make a failing check pass.
"""

import json
import shutil

import run


def main():
    harness, _, workloads = run.import_package()
    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "record"
    try:
        for name, wl in workloads.WORKLOADS.items():
            gate = harness.Gate({}, check_full=True)
            run.time_batch(wl, wl.setup(0, str(workdir)), gate)
            if gate.wrong or any("no recorded digest" not in e for e in gate.errors):
                raise SystemExit(f"{name}: {gate.wrong + gate.errors}")
            recorded[name] = gate.observed
            print(name, len(gate.observed), "operations;",
                  len(gate.refused), "refused")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
