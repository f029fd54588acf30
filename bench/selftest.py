"""Self-test of the benchmark.

    python3 bench/selftest.py

Quick runs (one small case, one pass) of every workload, untraced and
traced, must pass their checks and report every metric BENCHMARK.json
names, with its unit.  A reference with one deliberately wrong value per
workload must be counted in `failed`.  Outside a checkout with sources the
benchmark must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def bench(workload: str, trace: int, reference: Path | None = None, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, cwd=script.parent.parent, capture_output=True, text=True, timeout=600)


def last_json(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    problems = []

    for workload in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json(bench(workload, trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed")
            print(f"{workload} trace={trace}: {len(got)} metrics, {result['attempted']} attempted")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference["sweep"]["cylinder"]["lambda1"] += 1
    reference["heavy"]["le"]["x^3+y^3+x*y*z"][0] += 1
    reference["cli"]["fixtures"]["exit"] = 3
    OUT.mkdir(exist_ok=True)
    wrong = OUT / "wrong-reference.json"
    wrong.write_text(json.dumps(reference), encoding="utf-8")
    for workload in names:
        result = last_json(bench(workload, 0, wrong))
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a wrong reference value was not counted as failed")
        print(f"{workload} with a wrong reference: {result['failed']}/{result['attempted']} failed")

    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(names[0], 0, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without sources the benchmark did not fail cleanly")
    print(f"without sources: exit {done.returncode}")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
