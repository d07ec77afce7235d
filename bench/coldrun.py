"""Cold, isolated job execution and the checks on its output.

Each job runs in its own forked child, one child at a time.  The parent has
imported curvezeta but has run no job, so every child starts with the
package's ``lru_cache``s empty, as a fresh ``curvezeta`` process would, and
nothing one job caches reaches another.  Fork (not spawn) is what lets the
child skip the import without inheriting any computed state.  The child
times ``parse_job`` through ``render``, reads its peak resident memory, then
checks its own output and sends a small result back over a pipe.  Checking
in the child keeps the parent small: its resident pages count in every
child's peak memory.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import re
import select
import signal
import sys
import time
import traceback
from pathlib import Path

from curvezeta import cli
from hostspeed import PERIOD_S, HostSpeed

JOB_TIMEOUT_S = 150.0

# Floats are rendered as "%.12e" (complex as "<re><+im>j"); everything else
# in a report (ints, booleans, "p/q" rationals, labels) is exact.
_FLOAT = r"[-+]?(?:\d\.\d{12}e[-+]\d{2,}|inf|nan)"
FLOAT_RE = re.compile(rf"{_FLOAT}(?:{_FLOAT}j)?")
_MISSING = object()


def assert_cold() -> None:
    """Fail if any curvezeta lru_cache already holds an entry in this process."""
    for name, module in list(sys.modules.items()):
        if name == "curvezeta" or name.startswith("curvezeta."):
            for attr, value in vars(module).items():
                info = getattr(value, "cache_info", None)
                if callable(info) and info().currsize:
                    raise RuntimeError(f"{name}.{attr} is cached before any job ran")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_in_child(path: Path, traced: bool, reference: Path | None) -> dict:
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # rebinds cli.parse_job, cli.run and cli.render too
    start = time.perf_counter()
    job = cli.parse_job(path)
    code, tree = cli.run(job)
    files = cli.render(tree, job.fmt)
    end = time.perf_counter()
    rss_mb = _peak_rss_mb()
    failed_checks = sorted(
        f"{rep['curve']}|{rep['task']}|{name}"
        for rep in tree["reports"]
        for name, ok in rep["checks"].items()
        if not ok
    )
    mismatches = []
    if reference is not None:
        mismatches = reference_mismatches(json.loads(reference.read_text()), files["report.json"])
    return {
        "start": start,
        "end": end,
        "rss_mb": rss_mb,
        "code": code,
        "failed_checks": failed_checks,
        "digest": report_digest(files),
        "reference_mismatches": mismatches,
        "trace": tracer.dump() if tracer else None,
    }


def run_job(path: Path, speed: HostSpeed, traced: bool = False, reference: Path | None = None) -> dict:
    """Run one job file cold in a forked child, sampling host speed around it.

    The job is paused (SIGSTOP) every ``hostspeed.PERIOD_S`` while the
    kernel is timed, and the pauses are taken out of its time.  Adds
    ``raw_seconds``, the host-speed ``factor`` and the scaled ``seconds`` to
    the child's result; a trace gets the pauses and the factor.
    """
    if speed.due():
        speed.sample()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = _run_in_child(path, traced, reference)
            except Exception:
                result = {"error": traceback.format_exc(limit=8)}
            payload = json.dumps(result).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    pauses: list[tuple[float, float]] = []
    deadline = time.monotonic() + JOB_TIMEOUT_S
    timed_out = False
    status = None
    try:
        while True:
            wait = min(deadline - time.monotonic(), PERIOD_S)
            ready, _, _ = select.select([read_fd], [], [], max(wait, 0.0))
            if ready:
                chunk = os.read(read_fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
            elif time.monotonic() >= deadline:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            elif status is None:
                os.kill(pid, signal.SIGSTOP)
                _, stopped = os.waitpid(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(stopped):
                    status = stopped  # it ended before the signal landed
                    continue
                start = time.perf_counter()
                speed.sample()
                pauses.append((start, time.perf_counter()))
                os.kill(pid, signal.SIGCONT)
    finally:
        os.close(read_fd)
        if status is None:
            _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"no result within {JOB_TIMEOUT_S} s"}
    if status != 0 or not chunks:
        return {"error": f"job process ended with status {status} and no result"}
    result = json.loads(b"".join(chunks))
    if "error" not in result:
        start, end = result["start"], result["end"]
        paused = sum(max(0.0, min(b, end) - max(a, start)) for a, b in pauses)
        result["raw_seconds"] = end - start - paused
        if speed.due():
            speed.sample()
        result["factor"] = speed.factor(start, end)
        result["seconds"] = result["raw_seconds"] * result["factor"]
        if result["trace"] is not None:
            result["trace"].update(pauses=pauses, factor=result["factor"])
    return result


def report_digest(files: dict[str, str]) -> str:
    """sha256 over the rendered files, by name."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def exact_values(report_json: str) -> dict[str, object]:
    """Every exact (non-float) leaf of report.json by key path.

    Report entries are keyed by ``curve|task`` rather than list position,
    so entries added later do not shift the keys of existing ones.
    """
    tree = json.loads(report_json)
    out: dict[str, object] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        elif isinstance(value, float) or (isinstance(value, str) and FLOAT_RE.fullmatch(value)):
            return
        else:
            out[prefix] = value

    for rep in tree.pop("reports", []):
        walk(f"reports[{rep.get('curve')}|{rep.get('task')}]", rep)
    walk("", tree)
    return out


def unpack_reference(archive: Path, out_dir: Path) -> dict[str, Path]:
    """Write each job's reference values to its own file; job name -> path.

    The archive holds one line per job: its name, a tab, and the JSON of its
    exact report values.  Each child reads only its own file.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    with gzip.open(archive, "rt") as lines:
        for line in lines:
            job_name, _, values = line.partition("\t")
            paths[job_name] = out_dir / f"{job_name}.json"
            paths[job_name].write_text(values)
    return paths


def reference_mismatches(reference: dict[str, object], report_json: str) -> list[str]:
    """Reference keys whose exact value is missing or different in the report."""
    values = exact_values(report_json)
    return [key for key, want in reference.items() if values.get(key, _MISSING) != want]
