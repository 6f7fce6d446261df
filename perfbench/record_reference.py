"""Recompute ``reference.json``: the sweep-report digests every run checks.

    python3 perfbench/record_reference.py

For each scale it records the three sweep reports: ``checked``, the
violation count, and the sha256 of the report JSON without
``elapsed_ms``.  The corpus workloads need no record: their expected
values are computed in every run (``Workload.expected``).
Run it only on a commit whose results are trusted, and commit the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    workloads.import_program()
    out = {"sweep": {}}
    for scale in ("tiny", "full"):
        sweep = workloads.SweepOrder7(scale)
        out["sweep"][scale] = {}
        for item in ("extremal", "conjectures", "identities"):
            report = sweep.run(item)
            out["sweep"][scale][item] = {
                "checked": report.checked,
                "violations": len(report.violations),
                "sha256": workloads.report_digest(report),
            }
            print(scale, item, out["sweep"][scale][item], file=sys.stderr)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
