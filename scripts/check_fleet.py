#!/usr/bin/env python3
"""Assert the fleet-smoke invariants over three loadgen reports.

Usage: check_fleet.py REPORT_1W.json REPORT_4W.json FLEET.prom REPORT_HOT.json

The first two reports come from identical open-loop runs (same rps,
duration, seed, jitter) against a single-worker and a four-worker fleet.
The third comes from a prewarmed two-worker run without batch jitter,
the only one that reaches the router hot tier.  The smoke asserts the
fleet's contract:

  * every request got a typed answer (no hangs, no protocol errors);
  * overload surfaced as shedding AND degradation, not as failures;
  * four workers serviced strictly more load than one;
  * the Prometheus exposition merges worker histograms losslessly and
    carries per-worker labelled series plus the router's own counters;
  * the prewarmed run answers repeats from the router hot tier, with no
    failures and no protocol errors.
"""

import json
import re
import sys


def fail(msg):
    print(f"check_fleet: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def check_answered(tag, r):
    if r["answered"] != r["offered"]:
        fail(f"{tag}: {r['offered'] - r['answered']} requests unanswered")
    if r["unanswered"] != 0:
        fail(f"{tag}: unanswered = {r['unanswered']}")
    if r["failed"] != 0:
        fail(f"{tag}: {r['failed']} typed failures")
    if r["router"]["protocol_errors"] != 0:
        fail(f"{tag}: {r['router']['protocol_errors']} protocol errors")
    if r["offered"] == 0:
        fail(f"{tag}: loadgen offered nothing")


def serviced(r):
    """Requests that got a real plan (full or degraded), not a shed."""
    return r["ok_full"] + r["degraded"]


def main():
    if len(sys.argv) != 5:
        fail(f"usage: {sys.argv[0]} REPORT_1W REPORT_4W FLEET_PROM REPORT_HOT")
    one, four, prom_path, hot = sys.argv[1:]
    r1, r4, rh = load(one), load(four), load(hot)

    check_answered("1-worker", r1)
    check_answered("4-worker", r4)

    # Saturation must surface as load shedding and ladder degradation.
    if r4["shed"] == 0:
        fail("4-worker run shed nothing: the smoke did not saturate")
    if r4["degraded"] == 0:
        fail("4-worker run degraded nothing: soft admission band inert")
    if r4["router"]["admission_degraded"] == 0:
        fail("router injected no deadlines")

    s1, s4 = serviced(r1), serviced(r4)
    if not s4 > 1.2 * s1:
        fail(
            f"4 workers serviced {s4} vs {s1} for one: "
            "no throughput win from sharding"
        )
    print(f"check_fleet: serviced 1w={s1} 4w={s4}  "
          f"shed 1w={r1['shed']} 4w={r4['shed']}  "
          f"degraded 4w={r4['degraded']}")

    # Fleet-wide latency quantiles must come from the merged stream.
    lat = r4["latency_ms"]
    for q in ("p50", "p90", "p99"):
        if not (isinstance(lat[q], (int, float)) and lat[q] >= 0):
            fail(f"latency {q} missing or negative")
    if lat["p99"] < lat["p50"]:
        fail("p99 below p50: quantiles inconsistent")

    with open(prom_path) as f:
        prom = f.read()

    # Merged (unlabelled) series, per-worker labelled series for every
    # slot, and the router's own counters.
    if not re.search(r"^chimera_requests \d+$", prom, re.M):
        fail("no merged chimera_requests series")
    for w in range(4):
        if f'{{worker="{w}"}}' not in prom:
            fail(f"no per-worker series for worker {w}")
    m = re.search(r"^chimera_fleet_workers (\d+)$", prom, re.M)
    if not m or int(m.group(1)) != 4:
        fail("chimera_fleet_workers != 4")
    m = re.search(r"^chimera_fleet_shed (\d+)$", prom, re.M)
    if not m or int(m.group(1)) == 0:
        fail("chimera_fleet_shed missing or zero")
    if not re.search(r"^chimera_solve_ms_bucket\{le=", prom, re.M):
        fail("no merged solve histogram buckets")

    # The merged solve histogram's cumulative buckets must be
    # monotonically non-decreasing (a broken merge shows up here).
    cum = [
        int(v)
        for v in re.findall(r'^chimera_solve_ms_bucket\{le="[^"]*"\} (\d+)$',
                            prom, re.M)
    ]
    if not cum:
        fail("no unlabelled solve buckets")
    if any(b < a for a, b in zip(cum, cum[1:])):
        fail("merged solve buckets not cumulative")

    # Client-side latency histogram covers every answer.
    m = re.search(r"^chimera_loadgen_latency_ms_count (\d+)$", prom, re.M)
    if not m or int(m.group(1)) != r4["answered"]:
        fail("loadgen latency histogram does not cover every answer")

    # The hot tier: a prewarmed fleet without jitter answers repeats at
    # the router.  Prewarming stores every request of the mix, so most
    # answers must come from there (a jittered run scores a stray hit).
    if rh["router"]["hot_hits"] <= 0:
        fail("prewarmed run: no router hot-tier hits")
    if 2 * rh["router"]["hot_hits"] < rh["offered"]:
        fail(f"prewarmed run: only {rh['router']['hot_hits']} of "
             f"{rh['offered']} answered from the hot tier")
    if rh["failed"] != 0:
        fail(f"prewarmed run: {rh['failed']} typed failures")
    if rh["router"]["protocol_errors"] != 0:
        fail(f"prewarmed run: {rh['router']['protocol_errors']} protocol errors")
    print(f"check_fleet: hot tier answered {rh['router']['hot_hits']} "
          f"of {rh['offered']}")

    print("check_fleet: OK")


if __name__ == "__main__":
    main()
