#!/usr/bin/env python3
"""Gate the heavy tail of the planner against the reference DV table.

Usage: check_reference_dv.py REQUESTS.jsonl ANSWERS.jsonl [EXPECTED.json]

REQUESTS.jsonl is the request file fed to
`chimera serve --verify strict` (scripts/reference_dv_requests.jsonl:
C1-C8 with relu off at batch 4 and 8 on cpu and npu, the requests
whose 720-order levels take longest to plan).  Each request's `id` is
its key in EXPECTED.json (default perfbench/expected_dv.json), the DV
table the reference engine produced; this script only reads it.
ANSWERS.jsonl is the serve loop's output.

Asserts, for every request:

  * exactly one answer carries its id, and it is ok;
  * the answer is the fused plan (`rung` is `fused`) and its
    certificate verdict is `certified`;
  * `units[0].dv_bytes` equals the reference table's entry exactly.
"""

import argparse
import json
import sys


def load_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("requests")
    ap.add_argument("answers")
    ap.add_argument("expected", nargs="?", default="perfbench/expected_dv.json")
    args = ap.parse_args()

    with open(args.expected) as f:
        expected = json.load(f)["dv_bytes"]
    ids = [r["id"] for r in load_jsonl(args.requests)]
    answers = {}
    for a in load_jsonl(args.answers):
        if "id" in a:
            answers.setdefault(a["id"], []).append(a)

    errors = []
    for rid in ids:
        got = answers.get(rid, [])
        if len(got) != 1:
            errors.append(f"{rid}: {len(got)} answers")
            continue
        a = got[0]
        if not a.get("ok"):
            errors.append(f"{rid}: not ok: {a.get('error')}")
            continue
        if a.get("rung") != "fused":
            errors.append(f"{rid}: rung {a.get('rung')!r}, want 'fused'")
        if a.get("certificate") != "certified":
            errors.append(f"{rid}: certificate {a.get('certificate')!r}")
        if rid not in expected:
            errors.append(f"{rid}: no reference entry")
            continue
        dv = a["units"][0]["dv_bytes"]
        if dv != expected[rid]:
            errors.append(f"{rid}: dv_bytes {dv!r} != reference {expected[rid]!r}")

    if not ids:
        errors.append("no requests")
    for e in errors:
        print("FAIL", e)
    if errors:
        return 1
    print(f"ok: {len(ids)} answers fused, certified and equal to the reference DV")
    return 0


if __name__ == "__main__":
    sys.exit(main())
