#!/usr/bin/env python3
"""Gate the certify job: every served plan must carry a checked
optimality certificate.

Usage: check_certify.py CERTIFY.jsonl [CERTIFY.prom] [--reuse BATCH.txt]

CERTIFY.jsonl is the output of
`chimera lint --workload all --arch all --certify --strict --json`:
one JSON object per workload x preset pair, each carrying an `ok`
flag, a `certificate` verdict and a `diagnostics` array (see
docs/CERTIFY.md).  The optional CERTIFY.prom is a Prometheus scrape
from a `--verify strict` fleet/loadgen run, used to confirm the
verdict counters are actually wired.  The optional BATCH.txt is the
table output of `chimera batch --verify strict` over a request file
that lists every request exactly twice
(scripts/certify_reuse_requests.jsonl), used to confirm that the second
answer, served on the verdict stored for the first, is the same answer.

Asserts:

  * every row parsed, is ok, and carries a certificate verdict;
  * every verdict is `certified` or `conditional` -- `failed` means a
    forged/broken certificate shipped, `uncertified` means an
    analytical plan lost its certificate somewhere in the pipeline;
  * at least one row is fully `certified` (the gate is vacuous
    otherwise);
  * no row carries a certificate-error diagnostic (CHIM036-042) or a
    coverage failure (CHIM040) at any severity;
  * when a scrape is given: chimera_verify_certified_total > 0 and
    chimera_verify_failures == 0;
  * when a batch table is given: every answer is `certified` or
    `conditional`, the two answers of each request agree in every
    column but `plan ms`, and the summary's verify_reused is at least
    the number of requests listed twice.
"""

import argparse

import json
import re
import sys

CERT_ERROR = re.compile(r"^CHIM03[6-9]$|^CHIM04[0-2]$")


def fail(msg):
    print(f"check_certify: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_rows(path):
    rows = []
    with open(path) as f:
        for i, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{path}:{i}: not JSON: {e}")
    if not rows:
        fail(f"{path}: no rows")

    verdicts = {}
    for row in rows:
        tag = f"{row.get('workload')}/{row.get('arch')}"
        if not row.get("ok", False):
            fail(f"{tag}: not ok")
        verdict = row.get("certificate")
        if verdict is None:
            fail(f"{tag}: no certificate verdict (was --certify passed?)")
        if verdict not in ("certified", "conditional"):
            fail(f"{tag}: certificate verdict {verdict!r}")
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        for d in row.get("diagnostics", []):
            code = d.get("code", "")
            if CERT_ERROR.match(code):
                fail(f"{tag}: certificate diagnostic {code}: "
                     f"{d.get('message', '')}")
    if verdicts.get("certified", 0) == 0:
        fail("no fully certified row at all")
    return len(rows), verdicts


def prom_value(text, name):
    total = None
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        m = re.match(r"^(\w+)(\{[^}]*\})?\s+([0-9eE.+-]+)$", line.strip())
        if m and m.group(1) == name:
            total = (total or 0.0) + float(m.group(3))
    return total


def check_prom(path):
    with open(path) as f:
        text = f.read()
    certified = prom_value(text, "chimera_verify_certified_total")
    if certified is None:
        fail(f"{path}: chimera_verify_certified_total missing")
    if certified <= 0:
        fail(f"{path}: chimera_verify_certified_total = {certified}")
    failures = prom_value(text, "chimera_verify_failures")
    if failures is not None and failures != 0:
        fail(f"{path}: chimera_verify_failures = {failures}")
    return certified


def check_reuse(path):
    with open(path) as f:
        lines = f.read().splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.split()[:2] == ["request", "status"])
    except StopIteration:
        fail(f"{path}: no batch table")
    header = lines[start].split()
    # "est us" and "plan ms" are two-word headers over one-word cells.
    columns = ["request", "status", "kernels", "est_us", "plan_ms", "cert", "order"]
    if header != ["request", "status", "kernels", "est", "us", "plan", "ms", "cert", "order"]:
        fail(f"{path}: unexpected batch columns {header}")
    answers = {}
    for line in lines[start + 2:]:
        if not line.strip():
            break
        row = dict(zip(columns, line.split()))
        tag = row["request"]
        if row.get("status") == "FAILED":
            fail(f"{tag}: failed: {line}")
        if row.get("cert") not in ("certified", "conditional"):
            fail(f"{tag}: certificate verdict {row.get('cert')!r}")
        del row["plan_ms"]
        answers.setdefault(tag, []).append(row)
    if not answers:
        fail(f"{path}: empty batch table")
    for tag, rows in answers.items():
        if len(rows) != 2:
            fail(f"{tag}: answered {len(rows)} times, expected twice")
        if rows[0] != rows[1]:
            fail(f"{tag}: the two answers differ: {rows[0]} vs {rows[1]}")
    reused = None
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] == "verify_reused":
            reused = int(parts[1])
    if reused is None:
        fail(f"{path}: verify_reused missing from the summary")
    if reused < len(answers):
        fail(f"{path}: verify_reused = {reused} < {len(answers)} repeated requests")
    return len(answers), reused


def main():
    ap = argparse.ArgumentParser(description="Gate the certify job.")
    ap.add_argument("jsonl")
    ap.add_argument("prom", nargs="?")
    ap.add_argument("--reuse", metavar="BATCH.txt")
    args = ap.parse_args()
    n, verdicts = check_rows(args.jsonl)
    census = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
    print(f"check_certify: OK: {n} rows ({census})")
    if args.prom is not None:
        certified = check_prom(args.prom)
        print(f"check_certify: OK: scrape certified_total = {certified:g}")
    if args.reuse is not None:
        pairs, reused = check_reuse(args.reuse)
        print(f"check_certify: OK: {pairs} requests answered twice alike, "
              f"verify_reused = {reused}")


if __name__ == "__main__":
    main()
