"""germlab benchmark: one workload per run, printed as one JSON line.

    python3 bench/run.py --workload {sweep,heavy,cli} --seed N --seconds S --trace {0,1}

With --trace 0 the run measures the end-to-end metrics with no tracing;
with --trace 1 it reports per-layer metrics from a traced pass, plus the
tracing overhead.  Every output is checked against bench/reference.json.
The last line of standard output is the result; a full record (machine,
seed, samples, failures) goes to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import IN_PROCESS, SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
IMPORT_PROBES = 5
CASE_LIMIT_S = 120.0

MACHINE_LIMITS = (
    "no CPU pinning",
    "no CPU frequency control",
    "the file cache cannot be dropped",
    "the machine is shared with other tenants",
)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Run:
    """Bookkeeping of one benchmark run: samples, failures and checks."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict = {}  # case key -> output of its first pass
        self.rendered: dict = {}  # case key -> rendered output of its first pass
        self.walls: dict = {}  # case key -> wall times of its checked runs

    def case(self, case, runner, meter, tracer=None, probe=None):
        """Run, time and check one case.  Returns (wall, cpu, steps, raw wall)
        with wall and cpu scaled to the reference speed by `probe` (by
        default the workload's), or None."""
        self.attempted += 1
        if meter is not None:
            meter.take()
        if tracer is not None:
            tracer.case = case.key
        try:
            with SpeedClock(probe or self.w.probe, self.w.cpu, sample=tracer is None) as clock:
                output = runner(case)
        except Exception:  # noqa: BLE001 - every raising case is counted, never dropped
            self.failures.append(f"{case.key}: {traceback.format_exc(limit=3)}")
            return None
        wall = clock.raw_wall
        steps = meter.take()[0] if meter is not None else 0
        problems = self.w.check(case, output)
        rendered = self.w.render(output)
        if case.key not in self.first:
            self.first[case.key] = output
            self.rendered[case.key] = rendered
        elif rendered != self.rendered[case.key]:
            problems.append(f"{case.key}: output differs from the first pass")
        if wall > CASE_LIMIT_S:
            problems.append(f"{case.key}: took {wall:.1f} s, over the {CASE_LIMIT_S:.0f} s limit")
        if problems:
            self.failures.append("; ".join(problems))
            return None
        self.walls.setdefault(case.key, []).append(wall)
        return clock.wall, clock.cpu_s, steps, wall

    def one_pass(self, runner, meter, tracer=None, probe=None):
        """(scaled case walls, scaled cpu, steps, raw wall) of one pass."""
        walls, cpus, steps, raw = [], 0.0, 0, 0.0
        for case in self.w.cases:
            got = self.case(case, runner, meter, tracer, probe)
            if got is not None:
                walls.append(got[0])
                cpus += got[1]
                steps += got[2]
                raw += got[3]
        return walls, cpus, steps, raw

    def checks(self, meter) -> None:
        try:
            attempted, problems = self.w.run_checks(self.first, meter)
        except Exception:  # noqa: BLE001
            attempted, problems = 1, [traceback.format_exc(limit=3)]
        self.attempted += attempted
        self.failures += problems


def end_to_end(workload, run: Run, seconds: float, quick: bool, record: dict) -> dict:
    from tracer import BudgetMeter

    # set-ups are spread over the run, like the passes, so both see the same
    # mix of fast and slow stretches of a shared machine
    setups_per_pass = 1 if quick else -(-SETUP_SAMPLES // workload.min_passes)
    setup, setup_raw, pass_wall, pass_raw, pass_cpu, pass_steps, case_walls = [], [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(setups_per_pass):
            with SpeedClock() as clock:
                workload.setup()
            setup.append(clock.wall)
            setup_raw.append(clock.raw_wall)
            gc.collect()  # free the modules the set-up replaced, so peak RSS is one import's
        meter = None if workload.name == "cli" else BudgetMeter(workload.gl.ideals.Budget)
        walls, cpu, steps, raw = run.one_pass(workload.run, meter)
        pass_wall.append(sum(walls))
        pass_raw.append(raw)
        pass_cpu.append(cpu)
        pass_steps.append(steps)
        case_walls += walls
        if quick:
            break
        elapsed = time.perf_counter() - start
        if len(pass_wall) >= workload.min_passes and elapsed + statistics.median(pass_raw) > seconds:
            break
    if workload.name == "cli":
        run.checks(BudgetMeter(workload.gl.ideals.Budget))
        pass_steps = [workload.steps_per_pass]
    else:
        run.checks(meter)
    if not case_walls:
        case_walls = [0.0]
    tail = percentile(case_walls, workload.tail_pct)
    record["probes"] = {p.name: p.ref_s for p in (IN_PROCESS, workload.probe)}
    record["unscaled"] = {
        "setup_s": statistics.median(setup_raw),
        "wall_s": statistics.median(pass_raw),
    }
    record["samples"] = {
        "setup_s": setup,
        "setup_unscaled_s": setup_raw,
        "pass_wall_s": pass_wall,
        "pass_wall_unscaled_s": pass_raw,
        "pass_cpu_s": pass_cpu,
        "pass_reduction_steps": pass_steps,
        "case_ms": [w * 1000 for w in case_walls],
    }
    record["case_ms_tail"] = {
        "percentile": workload.tail_pct,
        "samples": len(case_walls),
        "beyond": sum(1 for w in case_walls if w > tail),
    }
    record["passes"] = len(pass_wall)
    record["case_ms_median"] = {key: statistics.median(w) * 1000 for key, w in run.walls.items()}
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(pass_wall), "unit": "s"},
        "case_ms_p50": {"value": statistics.median(case_walls) * 1000, "unit": "ms"},
        "case_ms_tail": {"value": tail * 1000, "unit": "ms"},
        "cpu_s": {"value": statistics.median(pass_cpu), "unit": "s"},
        "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
        "reduction_steps": {"value": statistics.median_low(pass_steps), "unit": "count"},
    }


def interpreter_ms(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls for the exit at growing intervals
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (time.perf_counter() - t0) * 1000


def import_ms() -> float:
    """A fresh interpreter's `import germlab.cli` minus a bare start."""
    from workloads import child_env

    env = child_env()
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(interpreter_ms("pass", env))
        full.append(interpreter_ms("import germlab.cli", env))
    return statistics.median(full) - statistics.median(bare)


def traced(workload, run: Run, seconds: float, quick: bool, record: dict, tag: str) -> dict:
    from tracer import BudgetMeter, Tracer

    workload.setup()
    meter = BudgetMeter(workload.gl.ideals.Budget)
    inprocess = workload.run_inprocess if workload.name == "cli" else workload.run
    extra = {"cli.startup_ms": 0.0}
    if workload.name == "cli":
        child_walls = run.one_pass(workload.run, None)[0]
    untraced = []
    start = time.perf_counter()
    while not untraced or (not quick and time.perf_counter() - start < seconds / 3):
        untraced.append(sum(run.one_pass(inprocess, meter, probe=IN_PROCESS)[0]))
    if workload.name == "cli":
        per_child = (sum(child_walls) - statistics.median(untraced)) / max(len(child_walls), 1)
        extra["cli.startup_ms"] = per_child * 1000
    meter.reset()

    tracer = Tracer()
    tracer.install()
    try:
        tracer.case = "setup"
        workload.load_inputs()
        traced_wall = sum(run.one_pass(inprocess, meter, tracer, IN_PROCESS)[0])
    finally:
        tracer.uninstall()
    extra["cli.import_ms"] = import_ms()
    extra["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    metrics = tracer.layer_metrics(meter, extra)
    if workload.name != "cli":  # cli's in-process passes were already compared with its children
        run.checks(meter)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{tag}.jsonl"
    tracer.write_spans(spans_path)
    record["trace"] = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced_wall,
        "overhead_s": extra["trace.overhead_s"],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep", "heavy", "cli"))
    parser.add_argument("--seed", type=int, default=0, help="0 keeps the listed order and ladder rung 0")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one small case, one pass (self-test)")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "germlab" / "__init__.py").is_file():
        print(f"error: no germlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed, reference, args.quick)
    run = Run(workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_before": os.getloadavg(),
            "git_commit": git_commit(),
            "limits": MACHINE_LIMITS,
        },
    }
    if args.trace:
        metrics = traced(workload, run, args.seconds, args.quick, record, tag)
    else:
        metrics = end_to_end(workload, run, args.seconds, args.quick, record)
    record["machine"]["loadavg_after"] = os.getloadavg()
    record["inputs"] = workload.inputs_record()
    failed = len(run.failures)
    record.update(
        attempted=run.attempted,
        failed=failed,
        fail_ratio=failed / max(run.attempted, 1),
        failures=run.failures,
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>14.4f} {m['unit']}")
    if not args.trace:
        for name, value in record["unscaled"].items():
            print(f"{name} unscaled (median of raw wall times) {value:.4f} s")
        tail = record["case_ms_tail"]
        print(f"case_ms_tail is p{tail['percentile']} of {tail['samples']} cases ({tail['beyond']} beyond); "
              f"{record['passes']} passes")
    print(f"fail_ratio {failed}/{run.attempted}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
