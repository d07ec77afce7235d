"""curvezeta benchmark: seeded CLI jobs run cold, one forked child per job.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 3 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones (``--workload all`` runs every workload in
turn).  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, and the spans of the last traced round, go to ``bench/out/``.

A run repeats rounds, each running every job of the workload once, until
``--seconds`` would be exceeded, and never fewer than two rounds, so every job
runs cold at least twice and its report bytes can be compared.  End-to-end
figures come from untraced rounds only.  In a traced run, untraced and traced
rounds alternate, and the difference of their median round times is the
tracing overhead.

Host speed drifts on small shared machines: nine cold runs of the standard
job on a 2-vCPU VM ranged from 8.9 to 16.4 s, while process CPU time stayed
within 2 % of wall time, so reading CPU time would not help.  Steadiness
comes from the run design instead: fixed workload shapes, at least two
rounds, medians, and job times scaled to a reference host speed measured
all through the run (see ``hostspeed.py``; raw times are in the results).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import curvezeta.cli; print(time.perf_counter() - t)"
)


def _git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(root: Path, speed: HostSpeed) -> list[tuple[float, float]]:
    """(raw, scaled) seconds to import curvezeta.cli in fresh interpreters, after one warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE], cwd=root, capture_output=True, text=True, timeout=60, check=True
        )
        end = time.perf_counter()
        speed.sample()
        if i:
            raw = float(proc.stdout.strip())
            samples.append((raw, raw * speed.factor(start, end)))
    return samples


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def _run_rounds(jobs: list, speed: HostSpeed, seconds: float, traced: bool, reference: dict[str, Path]):
    """Rounds of every job once, until --seconds would be exceeded (at least two).

    A job run fails when it raises, exits non-zero, has a false check, renders
    other bytes than its first run, or differs from the reference.
    """
    import coldrun

    rounds: list[dict] = []
    first_digest: dict[str, str] = {}
    samples: dict[str, int] = {job_name: 0 for job_name, _ in jobs}
    failures: list[str] = []
    rss: list[float] = []
    runs: list[list] = []
    start = time.perf_counter()
    while True:
        round_traced = traced and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        times, raw_times, traces = [], [], []
        for job_name, path in jobs:
            res = coldrun.run_job(path, speed, round_traced, reference.get(job_name))
            samples[job_name] += 1
            problems = []
            if "error" in res:
                problems.append(res["error"].strip().splitlines()[-1])
            else:
                times.append((job_name, res["seconds"]))
                raw_times.append(res["raw_seconds"])
                runs.append([job_name, round_traced, res["start"], res["end"], res["raw_seconds"]])
                if not round_traced:
                    rss.append(res["rss_mb"])
                if res["code"] != 0:
                    problems.append(f"exit code {res['code']}")
                problems += [f"check false: {c}" for c in res["failed_checks"]]
                if first_digest.setdefault(job_name, res["digest"]) != res["digest"]:
                    problems.append("report bytes differ between cold runs")
                problems += [f"differs from reference: {key}" for key in res["reference_mismatches"][:5]]
                if res["trace"] is not None:
                    res["trace"]["job"] = job_name
                    traces.append(res["trace"])
            if problems:
                failures.append(f"{job_name}: {'; '.join(problems)}")
        rounds.append(
            {"traced": round_traced, "wall_s": sum(t for _, t in times), "raw_wall_s": sum(raw_times),
             "elapsed_s": time.perf_counter() - round_start, "job_s": times, "traces": traces}
        )
        elapsed = time.perf_counter() - start
        longest = max(r["elapsed_s"] for r in rounds)
        if len(rounds) >= 2 and elapsed + longest > seconds:
            break

    return rounds, samples, failures, rss, first_digest, runs


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path, spec: dict) -> dict:
    import coldrun
    import tracing
    from workloads import DEFAULT_SEED, generate

    provenance = {
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }
    out_dir = BENCH_DIR / "out"
    job_dir = out_dir / f"jobs-{name}-s{seed}"
    job_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for job_name, text in generate(name, seed):
        path = job_dir / f"{job_name}.yaml"
        path.write_text(text)
        jobs.append((job_name, path))
    reference = {}
    archive = BENCH_DIR / "reference" / f"{name}.tsv.gz"
    if seed == DEFAULT_SEED and archive.is_file():
        reference = coldrun.unpack_reference(archive, out_dir / f"reference-{name}")

    with HostSpeed() as speed:
        setup = measure_setup(root, speed)
        coldrun.assert_cold()
        rounds, samples, failures, rss, digests, runs = _run_rounds(jobs, speed, seconds, traced, reference)

    attempted = sum(samples.values())
    plain = [r for r in rounds if not r["traced"]]
    job_times = [t for r in plain for _, t in r["job_s"]]
    end_to_end = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "job_p50_s": statistics.median(job_times) if job_times else 0.0,
        "job_p90_s": percentile(job_times, 0.9) if job_times else 0.0,
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": max(rss, default=0.0),
    }
    result = {
        "workload": name,
        "trace": int(traced),
        "provenance": provenance,
        "rounds": len(rounds),
        "samples_per_job": samples,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "reports_sha256": _combined_digest(digests, jobs),
        "end_to_end": end_to_end,
        "setup_samples_s": setup,
        "job_seconds": {n: [t for r in plain for j, t in r["job_s"] if j == n] for n, _ in jobs},
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_raw_wall_s": [r["raw_wall_s"] for r in plain],
        "traced_round_wall_s": [r["wall_s"] for r in rounds if r["traced"]],
        "job_runs": runs,
        "host_kernel_s": speed.samples,
    }
    if traced:
        traced_rounds = [r for r in rounds if r["traced"]]
        per_round = [tracing.layer_metrics(r["traces"]) for r in traced_rounds]
        layers = {}
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced_rounds) - end_to_end["wall_s"]
            else:
                value = statistics.median(m.get(key, 0.0) for m in per_round)
            layers[key] = value
        result["per_layer"] = layers
        trace_path = out_dir / f"trace-{name}-s{seed}.json"
        trace_path.write_text(json.dumps({"workload": name, "seed": seed, "jobs": traced_rounds[-1]["traces"]}))
    (out_dir / f"result-{name}-s{seed}-t{int(traced)}.json").write_text(json.dumps(result, indent=1))
    _print_summary(result, spec, job_times)
    return result


def _combined_digest(digests: dict[str, str], jobs: list) -> str:
    h = hashlib.sha256()
    for job_name, _ in jobs:
        h.update(f"{job_name} {digests.get(job_name, '-')}\n".encode())
    return h.hexdigest()


def _print_summary(result: dict, spec: dict, job_times: list[float]) -> None:
    name, prov = result["workload"], result["provenance"]
    print(f"[{name}] seed={prov['seed']} trace={result['trace']} jobs={len(result['samples_per_job'])}"
          f" rounds={result['rounds']}")
    notes = {
        "wall_s": "median of untraced rounds; raw "
        + ", ".join(f"{w:.3f}" for w in result["round_raw_wall_s"]) + " s, scaled "
        + ", ".join(f"{w:.3f}" for w in result["round_wall_s"]) + " s",
        "job_p50_s": f"{len(job_times)} job samples",
        "job_p90_s": f"{len(job_times)} job samples, {len(job_times) - math.ceil(0.9 * len(job_times))} beyond",
        "setup_s": f"median of {len(result['setup_samples_s'])} fresh imports of curvezeta.cli",
        "peak_rss_mb": f"max over {len(job_times)} untraced job processes",
    }
    for metric in spec["end_to_end"]:
        key = metric["name"]
        print(f"  {key:<14} {result['end_to_end'][key]:.6g} {metric['unit']:<6} ({notes.get(key, '')})")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<14} {frac:.6g} -      ({result['failed']} of {result['attempted']} job runs failed)")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    if result["trace"]:
        for key, value in result["per_layer"].items():
            print(f"  {key:<48} {value:.6g}")
    print(f"  reports_sha256 {result['reports_sha256']}")
    print("  provenance " + " ".join(f"{k}={v}" for k, v in prov.items())
          + " samples_per_job=" + ",".join(str(n) for n in sorted(set(result["samples_per_job"].values()))))


def _metrics(result: dict, spec: dict, prefix: str = "") -> dict:
    section = "per_layer" if result["trace"] else "end_to_end"
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "curvezeta" / "cli.py").is_file() or not spec_path.is_file():
        print("bench: run from the repository root, next to BENCHMARK.json and src/curvezeta", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # One CPU for the parent, its jobs and the calibrator: jobs never migrate,
    # and the calibrator measures the CPU the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    from workloads import GENERATORS

    if args.workload != "all" and args.workload not in GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(GENERATORS)} or all")
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root, spec) for n in names]
    metrics = {}
    for res in results:
        metrics.update(_metrics(res, spec, f"{res['workload']}." if len(results) > 1 else ""))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
