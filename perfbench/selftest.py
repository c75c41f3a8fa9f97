"""Self-test of the benchmark at a tiny input size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json at ``--size tiny``, untraced and
   traced, and checks that the last output line names every metric of
   BENCHMARK.json with its unit, with all checks passed.
2. Copies a tree-encode output, flips one byte of one OM8 file in the copy,
   and checks that the output check then fails, so that ``failed_share``
   becomes non-zero.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import logging
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
from measure import Checks, check_tree_output  # noqa: E402  (needs the package on the path)


def check_metrics() -> list[str]:
    spec = run.benchmark_spec()
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            print(f"ok {label}: {len(got)} metrics, {result['attempted']} checked operations")
    return problems


def check_corruption_is_caught() -> list[str]:
    from octomidi.corpus import PipelineConfig, run_pipeline

    cfg = run.prepare("tree-encode", 7, "tiny")
    tmp = run.CACHE / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        good = tmp / "good"
        run_pipeline(cfg["tree"], good, PipelineConfig(workers=1))
        problems, reference = check_tree_output(good, cfg["expected"]["stats"], None)
        if problems:
            return [f"clean output flagged: {problems}"]
        bad = tmp / "bad"
        shutil.copytree(good, bad)
        victim = sorted(bad.rglob("*.om8"))[0]
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01
        victim.write_bytes(bytes(data))
        checks = Checks()
        checks.op(check_tree_output(bad, cfg["expected"]["stats"], reference)[0], "corrupted copy")
        print(f"ok one flipped byte in {victim.name}: failed_share {checks.failed_share}")
        return [] if checks.failed_share > 0 else ["a corrupted OM8 byte went unnoticed"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    logging.basicConfig(level=logging.ERROR)  # the rejected-file warnings are expected
    problems = check_metrics() + check_corruption_is_caught()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
