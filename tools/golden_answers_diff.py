#!/usr/bin/env python3
"""Compare two serve transcripts on their answers only.

    python3 tools/golden_answers_diff.py OLD.ndjson NEW.ndjson

Lines are NDJSON responses of `wharf serve`.  Before comparing, each line
drops what describes how an answer was computed rather than the answer:
every "diagnostics" object (query reports and stream summary frames),
the store counters of "diagnostics" responses ("store", "slices",
"engine_store") and every "system_hash".  Prints each line that still
differs and exits 1 if any does, so a regenerated
tests/serve_smoke/golden.ndjson can be shown to change diagnostics only.
"""

import json
import sys

STRIPPED_EVERYWHERE = {"diagnostics", "system_hash"}
STRIPPED_FROM_DIAGNOSTICS_RESPONSES = {"store", "slices", "engine_store"}


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in STRIPPED_EVERYWHERE}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def answers(line):
    response = json.loads(line)
    if response.get("type") == "diagnostics":
        for key in STRIPPED_FROM_DIAGNOSTICS_RESPONSES:
            response.pop(key, None)
    return strip(response)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        old = f.read().splitlines()
    with open(argv[2]) as f:
        new = f.read().splitlines()
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} vs {len(new)}")
        return 1
    differing = [n for n, (a, b) in enumerate(zip(old, new), 1) if answers(a) != answers(b)]
    for n in differing:
        print(f"line {n} differs beyond diagnostics")
    raw = sum(1 for a, b in zip(old, new) if a != b)
    print(f"{len(old)} lines, {raw} differ as text, {len(differing)} differ in answers")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
