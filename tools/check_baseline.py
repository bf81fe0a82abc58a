#!/usr/bin/env python3
"""Checks a deterministic bench's metrics snapshot against its baseline.

usage: check_baseline.py <got.metrics.json> <want BENCH_*.json>

Every counter and gauge in the baseline, keyed by (kind, name, labels),
must appear in the snapshot with exactly the baseline's value. Exits
non-zero and prints the drift otherwise.
"""
import json
import sys


def baselined(path):
    # Counters and gauges, keyed by (kind, name, labels).
    with open(path) as f:
        snap = json.load(f)
    return {(kind, s['name'], json.dumps(s['labels'], sort_keys=True)): s['value']
            for kind in ('counters', 'gauges') for s in snap[kind]}


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    got = baselined(argv[1])
    want = baselined(argv[2])
    drift = {k: (want[k], got.get(k)) for k in want if got.get(k) != want[k]}
    if drift:
        sys.exit(f'counter/gauge drift vs {argv[2]}: {drift}')
    print(f'{len(want)} baseline counters and gauges match')


if __name__ == '__main__':
    main(sys.argv)
