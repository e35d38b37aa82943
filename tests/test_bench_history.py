"""The committed BENCH_<k>.json files agree with one another.

Each file records, under ``counts``, exact work counts of one traced
benchmark round at its parent commit (``parent``) and with its change
applied (``change``), per workload. The parent of one file is the change
of the file before it, so wherever two consecutive files record the same
count of the same workload, the later ``parent`` must equal the earlier
``change``. A mismatch means a count moved without a file that says so.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_files():
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        if m := re.fullmatch(r"BENCH_(\d+)\.json", path.name):
            found.append((int(m.group(1)), path))
    return [path for _, path in sorted(found)]


def _counts(path):
    """{(workload, metric): {"parent": x, "change": y}} of one file."""
    counts = json.loads(path.read_text()).get("counts", {})
    return {
        (workload, metric): pair
        for workload, metrics in counts.items()
        if isinstance(metrics, dict)
        for metric, pair in metrics.items()
    }


def test_consecutive_files_chain_their_counts():
    files = _bench_files()
    assert len(files) >= 2
    shared = 0
    for earlier, later in zip(files, files[1:]):
        before, after = _counts(earlier), _counts(later)
        for key in sorted(before.keys() & after.keys()):
            assert after[key]["parent"] == before[key]["change"], (
                f"{later.name} records {key} at its parent as {after[key]['parent']}, "
                f"but {earlier.name} recorded it after its change as {before[key]['change']}"
            )
            shared += 1
    assert shared > 0
