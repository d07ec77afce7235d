"""Seeded job files for the benchmark workloads.

Every workload is a list of ``(name, yaml_text)`` jobs drawn from
``random.Random(seed)``; the same seed always gives the same bytes, and the
program under test only ever sees the YAML.  The structural shape of each
workload (field sizes, genera, kinds, ranks, tasks) is fixed, and the seed
draws only the coefficients, so the work per run barely depends on the seed.
"""

from __future__ import annotations

import math
import random

from curvezeta.fields import CurveModel

DEFAULT_SEED = 0

ALL_TASKS = "[artin, invariants, rank2, slr, mass, yoshida, rh-report]"

# Why each workload exists; BENCHMARK.json carries the same one-line reasons.
WHY = {
    "standard-job": "the acceptance-criterion-10 job: 4 curves, 7 tasks, ranks [2, 3];"
    " about 95 % is the r = 3 period_residue_oracle",
    "slr-scaling": "random Weil numerators through slr and rh-report at ranks 4-6: grows g, q"
    " and r, bypasses the oracle, few huge exact gcds",
    "census": "random odd-degree squarefree models through artin and invariants:"
    " about 99 % point counting, no oracle",
    "sweep": "hundreds of small curves, one job each, all 7 tasks at rank 2: many tiny gcds,"
    " and the only workload timing yoshida, rank2, mass and render",
}

# The reference job of acceptance criterion 10, byte for byte; the last
# curve line is swapped for a random genuine genus-3 datum at other seeds.
_STANDARD_HEAD = (
    "curves:\n"
    "  - {type: elliptic, q: 2, a: 0}\n"
    "  - {type: model, kind: artin_schreier, q: 2, f: [0, 0, 0, 0, 0, 1]}\n"
    "  - {type: model, kind: quadratic, q: 3, f: [1, 2, 0, 1]}\n"
)
_STANDARD_DATUM = "  - {type: coefficients, q: 2, g: 3, A: [1, 1, 2, 6, 4, 4, 8]}\n"
_STANDARD_TAIL = "ranks: [2, 3]\ntasks: " + ALL_TASKS + "\n"

# (q, g) of the slr-scaling jobs; per-layer slr_zeta times are keyed by them.
SLR_SLOTS = ((3, 4), (3, 6), (3, 8), (5, 6), (101, 4))
SLR_RANKS = (4, 5, 6)

# (kind, q, degree of f) of the census jobs: genus (degree - 1) / 2.
CENSUS_SLOTS = (
    ("artin_schreier", 2, 21),
    ("quadratic", 3, 15),
    ("quadratic", 5, 11),
    ("quadratic", 7, 9),
    ("artin_schreier", 2, 19),
    ("quadratic", 3, 13),
    ("quadratic", 5, 9),
)

# One sweep job per entry, cycling through the kinds so that every seed
# gives the same mix; the seed draws q and the coefficients.
SWEEP_JOBS = 250
SWEEP_KINDS = ("elliptic", ("quadratic", 3), ("quadratic", 5), ("artin_schreier", 3), ("artin_schreier", 5))
SWEEP_ELLIPTIC_Q = (2, 3, 4, 5, 7, 8, 9, 11)
SWEEP_QUADRATIC_Q = (3, 5, 7, 11)


def _max_trace(q: int) -> int:
    """Largest a with a^2 <= 4q."""
    return math.isqrt(4 * q)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _counts(q: int, traces: list[int], mmax: int) -> list[int]:
    """N_1..N_mmax of a numerator prod (1 - a t + q t^2): N_m = q^m + 1 - sum s_m(a)."""
    counts = [q**m + 1 for m in range(1, mmax + 1)]
    for a in traces:
        prev, cur = 2, a  # s_0, s_1 of the pair of reciprocal roots
        for m in range(1, mmax + 1):
            counts[m - 1] -= cur
            prev, cur = cur, a * cur - q * prev
    return counts


def weil_numerator(rng: random.Random, q: int, g: int) -> list[int]:
    """A_0..A_2g of a product of g elliptic factors whose N_1..N_2g are all >= 0."""
    bound = _max_trace(q)
    while True:
        traces = [rng.randint(-bound, bound) for _ in range(g)]
        if all(n >= 0 for n in _counts(q, traces, 2 * g)):
            break
    A = [1]
    for a in traces:
        A = _poly_mul(A, [1, -a, q])
    return A


def _coefficients_line(q: int, g: int, A: list[int]) -> str:
    return f"  - {{type: coefficients, q: {q}, g: {g}, A: {A}, genuine: true}}\n"


def random_model(rng: random.Random, kind: str, q: int, degree: int) -> list[int]:
    """Coefficients f (constant first) of a model CurveModel accepts, of the given degree."""
    while True:
        f = [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]
        try:
            CurveModel(kind, q, tuple(f))
        except ValueError:
            continue
        return f


def _model_line(kind: str, q: int, f: list[int]) -> str:
    return f"  - {{type: model, kind: {kind}, q: {q}, f: {f}}}\n"


def standard_job(rng: random.Random, seed: int) -> list[tuple[str, str]]:
    datum = _STANDARD_DATUM if seed == DEFAULT_SEED else _coefficients_line(2, 3, weil_numerator(rng, 2, 3))
    return [("standard-job", _STANDARD_HEAD + datum + _STANDARD_TAIL)]


def slr_scaling(rng: random.Random, seed: int) -> list[tuple[str, str]]:
    ranks = ", ".join(str(r) for r in SLR_RANKS)
    return [
        (
            f"slr-g{g}q{q}",
            "curves:\n" + _coefficients_line(q, g, weil_numerator(rng, q, g))
            + f"ranks: [{ranks}]\ntasks: [slr, rh-report]\n",
        )
        for q, g in SLR_SLOTS
    ]


def census(rng: random.Random, seed: int) -> list[tuple[str, str]]:
    return [
        (
            f"census-{kind}-q{q}-g{(degree - 1) // 2}",
            "curves:\n" + _model_line(kind, q, random_model(rng, kind, q, degree))
            + "tasks: [artin, invariants]\n",
        )
        for kind, q, degree in CENSUS_SLOTS
    ]


def sweep(rng: random.Random, seed: int) -> list[tuple[str, str]]:
    jobs = []
    for i in range(SWEEP_JOBS):
        slot = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        if slot == "elliptic":
            q = rng.choice(SWEEP_ELLIPTIC_Q)
            bound = _max_trace(q)
            line = f"  - {{type: elliptic, q: {q}, a: {rng.randint(-bound, bound)}}}\n"
        else:
            kind, degree = slot
            q = 2 if kind == "artin_schreier" else rng.choice(SWEEP_QUADRATIC_Q)
            line = _model_line(kind, q, random_model(rng, kind, q, degree))
        jobs.append((f"sweep-{i:03d}", "curves:\n" + line + "ranks: [2]\ntasks: " + ALL_TASKS + "\n"))
    return jobs


GENERATORS = {
    "standard-job": standard_job,
    "slr-scaling": slr_scaling,
    "census": census,
    "sweep": sweep,
}


def generate(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (name, YAML text) jobs of a workload at a seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), seed)
