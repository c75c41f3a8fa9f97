"""octomidi benchmark: one run of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tree-encode --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (cached per seed under
``.perfbench_cache/``, never timed), measures set-up time, then runs the timed
loop in a fresh child process (``measure.py``) so that its peak RSS is the
workload's own. Prints a report, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Full results, with output hashes and an environment block,
go to ``.perfbench_cache/results/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
DEADLINE_S = 175.0
SETUP_SAMPLES = 11
KEEP_INPUT_SETS = 6

# Per size: distinct songs in the tree, and the bar counts of the long songs
# (about 23 notes a bar; the 300-bar song runs past bar 255).
SIZES = {
    "full": {"tree_songs": 600, "long_bars": (60, 120, 180, 300)},
    "tiny": {"tree_songs": 40, "long_bars": (12, 30)},
}


def env() -> dict:
    """This process's environment with the checkout's ``src`` first on the path."""
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [out.get("PYTHONPATH")] if p])
    return out


def tree_stats(counts: dict) -> dict:
    return {
        "files_seen": counts["files"],
        "songs_kept": counts["clean"],
        "songs_deduplicated": counts["duplicate"],
        "songs_rejected_malformed": counts["malformed"],
        "songs_rejected_blank": counts["blank"],
        "notes_dropped_bar_overflow": counts["notes_past_bar_limit"],
        "total_notes": counts["kept_notes"],
    }


def cached(name: str, build) -> tuple[Path, dict]:
    """Input set ``name``: built once into a temporary dir, then renamed."""
    final = CACHE / "inputs" / name
    meta = final / "expected.json"
    if meta.is_file():
        os.utime(final)
        return final, json.loads(meta.read_text())
    tmp = CACHE / "inputs" / f".{name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    expected = build(tmp)
    (tmp / "expected.json").write_text(json.dumps(expected, sort_keys=True))
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    sets = sorted((p for p in final.parent.iterdir() if not p.name.startswith(".")),
                  key=lambda p: p.stat().st_mtime)
    for old in sets[:-KEEP_INPUT_SETS]:
        shutil.rmtree(old, ignore_errors=True)
    return final, expected


def encode_untimed(src: Path, out: Path) -> None:
    from octomidi.corpus import PipelineConfig, run_pipeline

    run_pipeline(src, out, PipelineConfig(workers=1))


def prepare(workload: str, seed: int, size: str) -> dict:
    """Inputs and expected results for one run, as the child's config."""
    import measure  # needs the package on the path

    sizes = SIZES[size]
    tree_name = f"tree-{size}-{seed}"

    def build_tree(d: Path) -> dict:
        counts = gen.build_tree(d / "midi", seed, sizes["tree_songs"])
        return {"counts": counts, "stats": tree_stats(counts),
                "files": counts["files"], "input_notes": counts["input_notes"]}

    if workload == "tree-encode":
        d, exp = cached(tree_name, build_tree)
        return {"tree": str(d / "midi"), "expected": exp}

    if workload == "token-batches":
        tree_dir, _ = cached(tree_name, build_tree)

        def build_batches(d: Path) -> dict:
            encode_untimed(tree_dir / "midi", d / "om8")
            return measure.batch_expectations(d / "om8", [seed, seed + 1000])

        d, exp = cached(f"batches-{size}-{seed}", build_batches)
        return {"om8": str(d / "om8"), "expected": exp}

    def build_long(d: Path) -> dict:
        counts = gen.build_long_songs(d / "midi", seed, sizes["long_bars"])
        encode_untimed(d / "midi", d / "om8")
        stats = {
            "files_seen": counts["files"], "songs_kept": counts["files"],
            "songs_deduplicated": 0, "songs_rejected_malformed": 0, "songs_rejected_blank": 0,
            "notes_dropped_bar_overflow": counts["notes_past_bar_limit"],
            "total_notes": counts["kept_notes"],
        }
        return {"counts": counts, "stats": stats, "kept_notes": counts["kept_notes"],
                "masked_slots": measure.masked_note_slots(d / "om8", seed)}

    d, exp = cached(f"long-{size}-{seed}", build_long)
    return {"long": str(d / "midi"), "expected": exp}


def setup_seconds(speed: Speed) -> list[float]:
    """Wall time of a fresh ``python -m octomidi.cli --help``, several times."""
    cmd = [sys.executable, "-m", "octomidi.cli", "--help"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds times up to 50 ms.
        subprocess.run(cmd, env=env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        if i:  # the first call also writes the bytecode cache
            samples.append(time.perf_counter() - start)
            speed.sample()
    return samples


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment(seed: int) -> dict:
    import numpy

    sha, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
        if rev.returncode == 0:
            sha, dirty = rev.stdout.strip(), bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tree-encode", "token-batches", "long-songs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "octomidi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'octomidi'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(level=logging.ERROR)  # inputs are rejected on purpose while preparing
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_start = loadavg()
    cfg = prepare(args.workload, args.seed, args.size)
    setup_speed = Speed()
    setup = setup_seconds(setup_speed)

    tag = f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    work = CACHE / "work" / f"{tag}-{os.getpid()}"
    result_file = work / "result.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               work=str(work), spans_out=str(CACHE / "traces" / f"{tag}.spans.txt"))
    (work / "config.json").write_text(json.dumps(cfg))
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(work / "config.json"), str(result_file)],
            env=env(), cwd=ROOT, timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)),
        )
        if child.returncode != 0:
            print(f"error: measurement exited with {child.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_file.read_text())
    except subprocess.TimeoutExpired:
        print(f"error: measurement ran past {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(res.get("end_to_end") or res.get("per_layer"))
    measured["setup_s"] = statistics.median(setup) * setup_speed.scale()
    measured["peak_rss_mb"] = res["peak_rss_mb"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_share = res["failed"] / res["attempted"] if res["attempted"] else 1.0

    report = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed) | {"loadavg_start": load_start, "loadavg_end": loadavg()},
        "setup_s_samples": setup, "setup_speed_samples": setup_speed.samples,
        "setup_s_raw": statistics.median(setup), "failed_share": failed_share,
        "metrics": metrics, "child": res,
    }
    out = CACHE / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace} "
          f"passes {res['passes']}")
    print(f"  environment {json.dumps(report['environment'], sort_keys=True)}")
    raw = {name: (value, res["speed_scale"]) for name, value in res.get("end_to_end_raw", {}).items()}
    raw["setup_s"] = (statistics.median(setup), setup_speed.scale())
    for name, m in metrics.items():
        note = f"   (raw {raw[name][0]:.6g}, speed scale {raw[name][1]:.3f})" if name in raw else ""
        label = f"{name} ({res['names'][name]})" if name in res["names"] else name
        print(f"  {label:<45} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'failed_share':<45} {failed_share:>16.6g} ratio "
          f"({res['failed']} of {res['attempted']} checked operations)")
    for line in res.get("failures", []):
        print(f"  FAILED {line}")
    for name, digest in sorted(res["hashes"].items()):
        print(f"  sha256 {name} {digest}")
    if args.trace:
        print(f"  spans {res['spans']} written to {cfg['spans_out']}")
        print(f"  tracing overhead {measured['trace.overhead_share']:+.1%} "
              f"({measured['trace.traced_pass_s']:.4f} s traced vs "
              f"{measured['trace.untraced_pass_s']:.4f} s untraced per pass)")
        if res["missing"]:
            print(f"  missing wrapped names: {', '.join(res['missing'])}")
    print(f"  results in {out}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
