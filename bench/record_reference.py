"""Record the exact report values of every workload at the default seed.

Run from the repository root, only when a change is meant to alter report
values:

    python3 bench/record_reference.py [workload ...]

Each job runs once, in this process (report values do not depend on what is
cached), and must pass: exit code 0 and every check true.
``bench/reference/<workload>.tsv.gz`` then holds one line per job: its name,
a tab, and the JSON of the exact (non-float) leaves of its report.json, which
``run.py`` compares at the default seed.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from coldrun import exact_values
    from curvezeta import cli
    from workloads import DEFAULT_SEED, GENERATORS, generate

    out_dir = BENCH_DIR / "out" / "reference-jobs"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in argv or GENERATORS:
        lines = []
        for job_name, text in generate(name, DEFAULT_SEED):
            path = out_dir / f"{job_name}.yaml"
            path.write_text(text)
            job = cli.parse_job(path)
            code, tree = cli.run(job)
            if code != 0 or not all(all(rep["checks"].values()) for rep in tree["reports"]):
                print(f"{job_name}: not recorded, the job fails", file=sys.stderr)
                return 1
            values = exact_values(cli.render(tree, job.fmt)["report.json"])
            lines.append(f"{job_name}\t{json.dumps(values, sort_keys=True)}\n")
        target = BENCH_DIR / "reference" / f"{name}.tsv.gz"
        target.write_bytes(gzip.compress("".join(lines).encode(), mtime=0))
        print(f"wrote {target} ({len(lines)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
