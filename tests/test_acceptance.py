"""Acceptance criteria, one test per criterion, timed where required.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import curvezeta
from curvezeta.artin import (
    CurveData,
    artin_fe_check,
    counts_from_numerator,
    rh_check_artin,
    zeta_hat_ratfun,
)
from curvezeta.corpus import census_models, corpus_curves, elliptic_grid
from curvezeta.exact import RationalFunction, ratfun_equal
from curvezeta.fields import count_points, curve_from_model
from curvezeta.group_zeta import slr_fe_check, slr_zeta
from curvezeta.invariants import (
    A_from_alpha,
    alpha_from_A,
    beta0,
    middle_coefficient_identity_check,
)
from curvezeta.mass import beta_composition_formula, beta_hn_mass
from curvezeta.rank2 import rank2_closed_form, rank2_invariants, rank2_numerator, variant_report
from curvezeta.yoshida import (
    Ordering,
    counterexample_search,
    modulus_ordering,
    rh_check_zeta2,
    sextic_identity_report,
    zeta2_canonical,
)

F = Fraction


def _report(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[{stamp}] criterion {num}: {label}{timing}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_census_fidelity():
    start = time.perf_counter()
    ok = True
    for model in census_models():
        g = model.genus
        if g == 0:
            ok = ok and count_points(model, 1) == model.q + 1
            continue
        curve = curve_from_model(model)
        for m in range(1, 2 * g + 1):
            ok = ok and counts_from_numerator(curve, m) == count_points(model, m)
    elapsed = time.perf_counter() - start
    _report(1, "census counts match reconstructed counts for all m <= 2g", ok and elapsed < 5.0, elapsed)


def test_criterion_2_artin_fe_and_rh():
    start = time.perf_counter()
    ok = True
    for c in corpus_curves():
        ok = ok and artin_fe_check(c)
        if c.g >= 1:
            rep = rh_check_artin(c, tol=1e-9)
            ok = ok and rep.verdict
    elapsed = time.perf_counter() - start
    _report(2, "coefficient symmetry exact and Weil moduli within 1e-9*sqrt(q)", ok and elapsed < 2.0, elapsed)


def test_criterion_3_triangular_roundtrips():
    rng = random.Random(31337)
    ok = True
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5])
        g = rng.randint(2, 10)
        A = [F(1)] + [F(rng.randint(-50, 50)) for _ in range(g)]
        full = list(A) + [0] * g
        for i in range(g):
            full[2 * g - i] = F(q) ** (g - i) * full[i]
        c = CurveData(q, g, full)
        back = A_from_alpha(alpha_from_A(c), beta0(c), q, g)
        ok = ok and back == list(c.A[: g + 1])
        ok = ok and middle_coefficient_identity_check(c)
    _report(3, "200 random triangular roundtrips and closing-row identities, exact", ok)


def test_criterion_4_rank2_pipeline():
    g1 = CurveData(2, 1, [1, 0, 2], genuine=True)
    g2 = CurveData(2, 2, [1, 0, 0, 0, 4], genuine=True)
    F1, shift1 = rank2_closed_form(g1)
    ok = shift1 == 0 and F1 == RationalFunction([1, 1, 4], [1, -5, 4])
    t1 = rank2_invariants(g1)
    ok = ok and t1.alphas == (3,) and t1.beta0 == 6
    ok = ok and rank2_numerator(g2).coeffs == (4, 3, 3, 3, 4)
    ok = ok and rank2_invariants(g2).alphas[0] == 10
    # display-variant discrepancies: reported, stable, and equal to the
    # block factors q^{k-g}
    for c in (g1, g2):
        rep1, rep2 = variant_report(c), variant_report(c)
        ok = ok and rep1 == rep2
        for row in rep1["coefficients"]:
            ok = ok and row["ratio"] == row["expected_ratio"]
    _report(4, "rank-two fixtures exact; variant discrepancies stable", ok)


def test_criterion_5_mass_three_way():
    start = time.perf_counter()
    ok = True
    for c in corpus_curves():
        if c.g < 1 or c.g > 2:
            continue
        for r in (1, 2, 3):
            ok = ok and beta_composition_formula(c, r) == beta_hn_mass(c, r, 0)
        ok = ok and beta_composition_formula(c, 2) == rank2_invariants(c).beta0
    fixture = CurveData(2, 1, [1, 0, 2], genuine=True)
    ok = ok and beta_composition_formula(fixture, 2) == 6
    elapsed = time.perf_counter() - start
    _report(5, "composition = HN mass (r <= 3) = series beta (r = 2), exact", ok and elapsed < 2.0, elapsed)


def test_criterion_6_group_zeta_calibration():
    start = time.perf_counter()
    ok = True
    for c in corpus_curves():
        if c.g < 1:
            continue
        q = F(c.q)
        z = slr_zeta(c, 2)
        display = zeta_hat_ratfun(c, shift=1) * RationalFunction(
            [0, 1], [-q * q, 1]
        ) + zeta_hat_ratfun(c, shift=2) * RationalFunction([1], [1, -1])
        ok = ok and ratfun_equal(z.combined, display)
    for c in (CurveData(2, 1, [1, 0, 2], genuine=True), CurveData(2, 2, [1, 0, 0, 0, 4], genuine=True)):
        for r in (2, 3, 4):
            ok = ok and slr_fe_check(slr_zeta(c, r))
    elapsed = time.perf_counter() - start
    _report(6, "rank-two display calibration and r in {2,3,4} functional equations", ok and elapsed < 30.0, elapsed)


def test_criterion_7_sl2_riemann_hypothesis():
    start = time.perf_counter()
    ok = True
    for c in elliptic_grid():
        trace = -c.A[1]
        rep = sextic_identity_report(c.q, trace)
        # the identity holds in its derivation-consistent form; the printed
        # factorization's sign typo stays flagged, never asserted
        ok = ok and rep["expansion_ok"] and rep["corrected_factorization_ok"]
        ok = ok and not rep["literal_factorization_ok"]
        zrep = rh_check_zeta2(zeta2_canonical(c), tol=1e-9)
        ok = ok and zrep.verdict
    elapsed = time.perf_counter() - start
    _report(7, "genus-one sextic identity exact and all zero moduli within 1e-9", ok and elapsed < 5.0, elapsed)


def test_criterion_8_counterexample():
    start = time.perf_counter()
    res = counterexample_search(2, complex(0, math.sqrt(2)), range(1, 65))
    ok = (
        res.found
        and res.m <= 64
        and -math.sqrt(2) < res.w1 < -1
        and res.residual <= 1e-10
        and res.re_s_deviation >= 1e-3
    )
    elapsed = time.perf_counter() - start
    _report(8, f"multiplicity {res.m} yields off-line zero w1 = {res.w1:.6f}", ok and elapsed < 10.0, elapsed)


def test_criterion_9_ordering_fuzz():
    start = time.perf_counter()
    rng = random.Random(99)
    ok = True
    for k in range(10_000):
        q = 1 + F(rng.randint(1, 288), 32)
        c = F(rng.randint(-64, 64), 64) * (q + 1)
        if k % 4 == 0:
            t = F(rng.randint(-50, 50), 13)
            w = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        else:
            w = (F(rng.randint(-250, 250), 125), F(rng.randint(-250, 250), 125))
        norm = w[0] * w[0] + w[1] * w[1]
        verdict = modulus_ordering(q, c, w)
        if norm == 1:
            ok = ok and verdict is Ordering.EQ
        elif norm < 1:
            ok = ok and verdict is Ordering.GT
        else:
            ok = ok and verdict is Ordering.LT
    elapsed = time.perf_counter() - start
    _report(9, "10^4 exact ordering samples, no violations, EQ on |w| = 1", ok and elapsed < 2.0, elapsed)


def test_criterion_10_cli_determinism(tmp_path: Path):
    job = tmp_path / "job.yaml"
    job.write_text(
        "curves:\n"
        "  - {type: elliptic, q: 2, a: 0}\n"
        "  - {type: model, kind: artin_schreier, q: 2, f: [0, 0, 0, 0, 0, 1]}\n"
        "  - {type: model, kind: quadratic, q: 3, f: [1, 2, 0, 1]}\n"
        "  - {type: coefficients, q: 2, g: 3, A: [1, 1, 2, 6, 4, 4, 8]}\n"
        "ranks: [2, 3]\n"
        "tasks: [artin, invariants, rank2, slr, mass, yoshida, rh-report]\n"
    )
    # the CLI processes import the same curvezeta as this one
    src = str(Path(curvezeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    outputs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [sys.executable, "-m", "curvezeta.cli", "run", str(job), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] and set(outputs[0]) == {"report.json", "zeros.csv"}
    # sanity: the report parses and carries every task
    tree = json.loads(outputs[0]["report.json"].decode())
    ok = ok and len(tree["reports"]) == 4 * 7
    _report(10, "two CLI runs byte-identical over the full task set", ok and elapsed < 60.0, elapsed)
