#!/usr/bin/env python3
"""Build and run the chimera fleet benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-strict --seed 1 --seconds 10 --trace 0

Builds the chimera binary the fleet workers run and the benchmark
executable (perfbench/fleetbench.ml) with dune, then runs the benchmark.
Build output goes to stderr; the benchmark's last stdout line is its JSON
result.  Everything it writes stays inside the repository: dune's _build/
and the .perfbench/ scratch directory (cache dirs, Chrome traces).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["./bin/chimera_cli.exe", "./perfbench/fleetbench.exe"]
EXE = os.path.join("_build", "default", "perfbench", "fleetbench.exe")
RUN_TIMEOUT_S = 170


def source_digest():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py", ".json")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="cold-strict | warm-hot | saturated | all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isfile("bin/chimera_cli.ml")
            and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project, bin/ and lib/ not found)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2

    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, CHIMERA_DOMAINS="1")
    build = subprocess.run([dune, "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env["PERFBENCH_COMMIT"] = source_digest()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so a timeout can stop the fleet workers too.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
