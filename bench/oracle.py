"""Oracle child for the CLI's ``subprocess`` controller kind.

Usage: python3 oracle.py <spec.json> <counts.jsonl>

Answers each request line ``{"points": [[...], ...]}`` with
``{"controls": [[...], ...]}`` for the controller in <spec.json>.  When its
input closes, it appends ``{"batches": B, "points": P}`` to <counts.jsonl>,
which is how the benchmark counts oracle traffic without touching the CLI.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from controllers import evaluate  # noqa: E402


def main(argv: list[str]) -> int:
    spec_path, counts_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    batches = points = 0
    for line in sys.stdin:
        pts = json.loads(line)["points"]
        batches += 1
        points += len(pts)
        sys.stdout.write(json.dumps({"controls": evaluate(spec, pts).tolist()}) + "\n")
        sys.stdout.flush()
    with open(counts_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"batches": batches, "points": points}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
