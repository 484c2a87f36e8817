"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines stream.
Expected values follow the stated tolerances; oracles are independent of the
code paths they check (closed forms, high-precision arithmetic, brute force).
"""

import time

import mpmath as mp
import numpy as np

from chargeflow.descent import DescentConfig, hessian_descent_step
from chargeflow.dynamics import system_from_objective, velocity_field
from chargeflow.harmonic import LambdaHarmonicRadial
from chargeflow.harness import ExperimentConfig, generate_target, recovery_experiment, run_table, sgd_train
from chargeflow.landscape import earnshaw_trace_check, eigstrict_laplacian_check, sign_circle_scan
from chargeflow.loss import Hypothesis, Objective, TargetNetwork
from chargeflow.potentials import (
    CoulombPotential,
    GaussianActivation,
    GaussianPotential,
    HermiteActivation,
    LogPotential,
    PolynomialPotential,
    SignActivation,
    SignPotential,
    empirical_dual,
)

from conftest import eval_potential, gradient_flow_field, radial_laplacian, separated_points


def report(number, name, passed, detail=""):
    line = f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, line


def unit_rows(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_01_duality():
    """Built-in activation/kernel pairs agree with the Monte-Carlo expectation."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n = 1_000_000
    failures = 0
    checked = 0

    def check(act, pot, theta, w):
        nonlocal failures, checked
        est, se = empirical_dual(act, theta, w, n, seed=int(rng.integers(1 << 31)))
        exact = eval_potential(pot, theta, w)
        checked += 1
        if abs(est - exact) > 4.0 * max(se, 1e-12):
            failures += 1

    d = 3
    for _ in range(50):
        u, v = unit_rows(rng, 2, d)
        check(SignActivation(d), SignPotential(), u, v)
    for c in (0.5, 1.0, 2.0):
        for dim in (1, 3):
            act, pot = GaussianActivation(c, dim), GaussianPotential(c)
            for _ in range(50):
                theta = rng.standard_normal(dim)
                w = rng.standard_normal(dim)
                check(act, pot, theta, w)
    for l in (1, 2, 3):
        coeffs = np.zeros(l + 1)
        coeffs[l] = 1.0
        act, pot = HermiteActivation(coeffs, d), PolynomialPotential(l)
        for _ in range(50):
            u, v = unit_rows(rng, 2, d)
            check(act, pot, u, v)
    elapsed = time.time() - t0
    report(
        1,
        "duality of built-in pairs (4 standard errors, n=1e6)",
        failures == 0 and elapsed < 120.0,
        f"{checked} pairs, {failures} out of band, {elapsed:.0f}s",
    )


def test_02_eigenrelation_raw():
    """p(r) e^{-sqrt(lam) r} / r^(d-2) satisfies the Laplacian eigenrelation to 1e-5."""
    t0 = time.time()
    mp.mp.dps = 40
    worst = 0.0
    for d, lam in [(3, 1.0), (3, 4.0), (7, 1.0), (7, 4.0), (11, 1.0)]:
        pot = LambdaHarmonicRadial(d, lam)
        coeffs = [mp.mpf(float(c)) for c in pot.coeffs]
        s = mp.sqrt(mp.mpf(lam))

        def phi(r):
            acc = coeffs[-1]
            for c in coeffs[-2::-1]:
                acc = acc * r + c
            return acc * mp.e ** (-s * r) / r ** (d - 2)

        for r in np.linspace(0.1, 5.0, 100):
            rm = mp.mpf(float(r))
            lap = radial_laplacian(phi, rm, d, mp.mpf("1e-8"))
            val = mp.mpf(lam) * phi(rm)
            rel = float(abs(lap - val) / max(mp.mpf(1), abs(val)))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    report(2, "raw eigenrelation over (d, lam) grid", worst <= 1e-5, f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_03_construction():
    """Bounded construction: eigenrelation outside eps, monotone, normalized, 2e ratio."""
    from chargeflow.harmonic import build_almost_harmonic

    t0 = time.time()
    ok = True
    details = []
    for tab in (build_almost_harmonic(3, 0.05, 1.0), build_almost_harmonic(3, 0.1, 1.0)):
        eps, lam = tab.eps, tab.lam
        radii = np.concatenate(
            [eps + (10 * eps - eps) * np.arange(1, 51) / 51.0, np.linspace(1.0, 5.0, 50)]
        )
        worst = 0.0
        for r in radii:
            h = min(0.01 * max(1.0, r), (r - eps) / 2.0)
            lap = radial_laplacian(tab.value, r, tab.d, h)
            val = tab.value(r)
            worst = max(worst, abs(lap - lam * val) / max(1.0, lam * val))
        monotone = bool(np.all(np.diff(tab.values) <= 1e-12))
        origin = abs(tab.value(0.0) - 1.0) <= 1e-12
        ratio = tab.value(1.0) / tab.value(2.0)
        ratio_ok = abs(ratio - 2.0 * np.e) <= 1e-3
        ok = ok and worst <= 1e-3 and monotone and origin and ratio_ok
        details.append(f"eps={eps}: eig {worst:.1e}, ratio err {abs(ratio - 2 * np.e):.1e}")
    elapsed = time.time() - t0
    report(3, "almost-harmonic construction (d=3)", ok and elapsed < 60.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_04_flow_equivalence():
    """Gradient flow field equals the particle velocity field to 1e-12."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        tgt = TargetNetwork(w=rng.standard_normal((3, 3)), b=rng.uniform(-1, 1, 3))
        obj = Objective(GaussianPotential(1.0), tgt)
        hyp = Hypothesis(theta=rng.standard_normal((3, 3)), a=rng.uniform(-1, 1, 3))
        flow = gradient_flow_field(obj, hyp)
        particle = velocity_field(system_from_objective(obj, hyp))[:3]
        worst = max(worst, float(np.max(np.abs(flow - particle))))
    report(4, "particle/gradient-flow equivalence", worst <= 1e-12, f"max discrepancy {worst:.2e}")


def test_05_descent_lemmas():
    """Per-step decrease bounds for both branches over 200 random functions."""
    rng = np.random.default_rng(11)
    violations = 0
    total = 0

    def random_quartic(dim):
        m = rng.standard_normal((dim, dim))
        m = m + m.T
        q = rng.standard_normal(dim)
        eps_q = rng.uniform(0.0, 0.02)
        c = rng.standard_normal((2, dim))

        def f(x):
            quad = 0.5 * float(x @ m @ x) + float(q @ x)
            return quad + eps_q * float(np.sum((c @ x) ** 4))

        def grad(x):
            return m @ x + q + eps_q * 4.0 * ((c @ x) ** 3) @ c

        def hess(x):
            return m + eps_q * 12.0 * (c.T * (c @ x) ** 2) @ c

        return f, grad, hess, m, q, eps_q, c

    for trial in range(200):
        dim = int(rng.integers(2, 6))
        f, grad, hess, m, q, eps_q, c = random_quartic(dim)
        x = rng.standard_normal(dim)
        # conservative smoothness bounds on a radius-1 neighborhood of x
        reach = 1.0
        cx = np.abs(c @ x) + np.linalg.norm(c, axis=1) * reach
        b2 = np.linalg.norm(m, 2) + eps_q * 12.0 * float(np.sum(np.linalg.norm(c, axis=1) ** 2 * cx**2))
        b3 = eps_q * 24.0 * float(np.sum(np.linalg.norm(c, axis=1) ** 3 * cx)) + 1e-9

        # gradient branch
        g = grad(x)
        eta = float(np.linalg.norm(g))
        alpha = min(1.0 / b2, reach / max(eta, 1e-9))
        if eta > 1e-8:
            total += 1
            decrease = f(x) - f(x - alpha * g)
            if decrease < alpha * eta**2 / 2.0 - 1e-10:
                violations += 1

        # curvature branch (only when strictly negative curvature is present)
        h = hess(x)
        lam = float(np.linalg.eigvalsh(h)[0])
        if lam <= -1e-3:
            gamma = -lam
            alpha_h = min(1.0 / b3, reach / max(gamma, 1e-9))
            obj = type("O", (), {"hess": staticmethod(hess)})()
            x1, _ = hessian_descent_step(obj, x, g, DescentConfig(alpha=alpha_h))
            total += 1
            decrease = f(x) - f(x1)
            if decrease < alpha_h**2 * gamma**3 / 2.0 - 1e-10:
                violations += 1
    report(5, "per-step decrease guarantees", violations == 0 and total >= 200, f"{total} steps, {violations} violations")


def test_06_eig_identity():
    """Correlated-translation Laplacian equals -2 lam a0^2 at the exact optimum."""
    rng = np.random.default_rng(13)
    lam = 1.0
    worst = 0.0
    count = 0
    while count < 50:
        pts = separated_points(rng, 6, 3, scale=2.0, min_sep=0.8)
        target = TargetNetwork(w=pts[3:], b=rng.uniform(-1, 1, 3))
        verdict = eigstrict_laplacian_check(lam, target, pts[:3], tol=1e-3)
        if abs(verdict.measured["a0"]) < 0.05:
            continue  # relative comparison needs a nonzero identity value
        count += 1
        m = verdict.measured
        worst = max(worst, abs(m["laplacian"] - m["predicted"]) / abs(m["predicted"]))
        if not verdict.passed:
            report(6, "eigen-identity of correlated translation", False, f"rel err {worst:.2e}")
    report(6, "eigen-identity of correlated translation", worst <= 1e-3, f"50 configs, worst rel {worst:.2e}")


def test_07_earnshaw():
    """Harmonic kernels have vanishing trace; the Gaussian control does not."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        pts = separated_points(rng, 6, 3, scale=3.0, min_sep=1.0)
        target = TargetNetwork(w=pts[3:], b=rng.uniform(-1, 1, 3))
        hyp = Hypothesis(theta=pts[:3], a=rng.uniform(-1, 1, 3))
        v = earnshaw_trace_check(CoulombPotential(3), target, hyp, 0, tol=1e-4, h=5e-4)
        worst = max(worst, abs(v.measured["trace"]))
    for _ in range(50):
        pts = separated_points(rng, 4, 2, scale=3.0, min_sep=1.0)
        target = TargetNetwork(w=pts[2:], b=rng.uniform(-1, 1, 2))
        hyp = Hypothesis(theta=pts[:2], a=rng.uniform(-1, 1, 2))
        v = earnshaw_trace_check(LogPotential(), target, hyp, 0, tol=1e-4, h=5e-4)
        worst = max(worst, abs(v.measured["trace"]))
    harmonic_ok = worst <= 1e-4

    control_min = np.inf
    for _ in range(10):
        r = rng.uniform(2.0, 2.5)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        target = TargetNetwork(w=(r * direction)[None, :], b=[1.0])
        hyp = Hypothesis(theta=np.zeros((1, 3)), a=[-1.0])
        v = earnshaw_trace_check(GaussianPotential(1.0), target, hyp, 0, tol=1e-2)
        assert v.expected_fail and not v.passed
        control_min = min(control_min, abs(v.measured["trace"]))
    report(
        7,
        "harmonic trace vanishes; non-harmonic control discriminates",
        harmonic_ok and control_min > 1e-2,
        f"harmonic worst {worst:.1e}, control min {control_min:.2f}",
    )


def test_08_recovery():
    """Node-wise descent recovers separated targets on >= 18/20 seeds."""
    t0 = time.time()
    results = {}
    ok = True
    for k in (2, 3):
        cfg = ExperimentConfig(experiment="recovery", k=k, seeds=tuple(range(20)))
        rep = recovery_experiment(cfg)
        results[k] = rep["recovered_count"]
        ok = ok and rep["recovered_count"] >= 18
    elapsed = time.time() - t0
    report(
        8,
        "node-wise recovery (d=3, separation >= 10)",
        ok and elapsed < 600.0,
        f"k=2: {results[2]}/20, k=3: {results[3]}/20, {elapsed:.0f}s",
    )


def test_09_depth_width_table():
    """Depth-2 test error <= 0.01 at desk scale; error strictly grows with depth."""
    t0 = time.time()
    cfg = ExperimentConfig(depths=(2,), widths=(5, 10, 20, 40), seeds=(0, 1, 2))
    rows = run_table(cfg)
    by_width = {}
    train_by_width = {}
    for row in rows:
        by_width.setdefault(row.width, []).append(row.test_err)
        train_by_width.setdefault(row.width, []).append(row.train_err)
    depth2_ok = all(np.mean(v) <= 0.01 for v in by_width.values())
    # training error also lands below 1% of the ~1.0 zero-predictor baseline
    depth2_ok = depth2_ok and all(np.mean(v) <= 0.01 for v in train_by_width.values())

    means = {2: float(np.mean(by_width[40]))}
    for depth in (3, 5):
        errs = []
        for seed in (0, 1, 2):
            target = generate_target(cfg.d, depth, 40, seed)
            errs.append(sgd_train(cfg, target, depth, 40, seed).test_err)
        means[depth] = float(np.mean(errs))
    ordering_ok = means[2] < means[3] < means[5]
    elapsed = time.time() - t0
    detail = (
        "depth-2 means " + ", ".join(f"w{w}={np.mean(v):.4f}" for w, v in sorted(by_width.items()))
        + f"; depth means {means[2]:.4f} < {means[3]:.4f} < {means[5]:.4f}, {elapsed:.0f}s"
    )
    report(9, "depth/width table at desk scale", depth2_ok and ordering_ok and elapsed < 1800.0, detail)


def test_10_sign_scan():
    """Every detected circle-scan minimum sits at a target direction or its antipode."""
    rng = np.random.default_rng(23)
    all_ok = True
    n_minima = 0
    for _ in range(20):
        angles = rng.uniform(0.0, 2.0 * np.pi, 3)
        w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        target = TargetNetwork(w=w, b=rng.uniform(-1, 1, 3))
        res = sign_circle_scan(target, 2048)
        n_minima += len(res.minima)
        all_ok = all_ok and res.all_matched and len(res.minima) >= 1
    report(10, "sign-kernel circle scan minima at kink set", all_ok, f"{n_minima} minima over 20 targets")
