"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its measured quantity (visible under
pytest -s; pytest -v reports per-criterion pass/fail either way) and
enforces the stated runtime cap.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import binomial_slack, write_labeled_csv
from slabreg import bounds, data, experiments as ex, selector
from slabreg.cli import main as cli_main
from slabreg.dictionary import MultiscaleGaussian, Trigonometric
from slabreg.moments import DesignMoments, empirical_test_moments, exact_moments


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_c1_soft_threshold_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    n, m = 256, 16
    x = rng.uniform(size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + 0.4 * np.cos(4 * np.pi * x[:, 0]) + rng.normal(0, 0.3, n)
    family = Trigonometric(m)
    ds = data.Dataset(x=x, y=y)
    mom = exact_moments(family)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.1)
    model = selector.run_selection(ds, family, mom, spec, schedule="RoundRobin")

    stats = bounds.compute_stats(family.evaluate(x), ds)
    centers = bounds.slab_centers(stats, mom)
    tau = bounds.compute_radius(spec, stats, mom).tau
    soft = np.sign(centers) * np.maximum(np.abs(centers) - tau, 0.0)
    assert np.max(np.abs(model.coefficients - soft)) <= 1e-12

    second = selector.run_selection(
        ds, family, mom, spec, schedule="RoundRobin", warm_start=model.coefficients
    )
    assert second.stopped_at == 0
    np.testing.assert_array_equal(second.coefficients, model.coefficients)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("1 soft-threshold equivalence", f"max dev {np.max(np.abs(model.coefficients - soft)):.2e}, {elapsed:.2f}s")


def test_c2_projection_geometry_randomized(project):
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst_member, worst_idem, worst_delta = 0.0, 0.0, 0.0
    for _ in range(1000):
        gamma = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(0, 2))
        v = float(rng.uniform(0.05, 8))
        mom = DesignMoments(np.diag([v]), "UserSupplied")
        radius = bounds.ConfidenceRadius(beta=np.array([tau * tau * v]), tau=np.array([tau]))
        centers = np.array([gamma])
        c0 = np.zeros(1)
        c1, delta, _ = project(c0, 0, centers, mom, radius)
        inner = abs((c1[0] - gamma) * v) / math.sqrt(v)
        worst_member = max(worst_member, inner - math.sqrt(radius.beta[0]))
        c2, delta2, _ = project(c1, 0, centers, mom, radius)
        worst_idem = max(worst_idem, abs(c2[0] - c1[0]), delta2)
        worst_delta = max(worst_delta, abs(delta - v * (c1[0] - c0[0]) ** 2))
    assert worst_member <= 1e-10
    assert worst_idem <= 1e-12
    assert worst_delta <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("2 projection geometry", f"membership {worst_member:.1e}, idem {worst_idem:.1e}, delta {worst_delta:.1e}")


def test_c3_per_step_risk_decrease_chain():
    start = time.monotonic()
    # constant truth with tight label bound: the slab threshold sits just
    # below the top coefficient at N=64, so fits take real projection steps
    # and the chain check is not vacuous
    model = ex.SyntheticModel(
        coefficients=np.array([1.0]), basis="Trigonometric", noise=ex.NoiseSpec("uniform", 0.1)
    )
    rep = ex.transductive_experiment(
        model,
        n_train=64,
        k_test=1,
        m=32,
        variant="TrBasicBounded",
        epsilon=0.1,
        replicates=500,
        seed=303,
        threads=4,
    )
    assert rep.extras["mean_steps"] >= 0.9
    threshold = 0.9 - 3.0 * math.sqrt(0.9 * 0.1 / 500)
    assert rep.extras["chain_fraction"] >= threshold
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        "3 per-step risk decrease",
        f"chain fraction {rep.extras['chain_fraction']:.3f} >= {threshold:.4f}, "
        f"mean steps {rep.extras['mean_steps']:.2f}, {elapsed:.1f}s",
    )


def test_c4_coverage_ind_exact():
    start = time.monotonic()
    model = ex.sobolev_model(smoothness=1.0, size=64, scale=1.0, noise=ex.NoiseSpec("gaussian", 0.3))
    rep = ex.coverage_study(
        "IndExact", model, n_train=128, m=64, epsilon=0.25, replicates=500, seed=404, threads=4
    )
    threshold = 0.75 - 3.0 * math.sqrt(0.25 * 0.75 / 500)
    assert rep.coverage >= threshold
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    report("4 coverage", f"coverage {rep.coverage:.3f} >= {threshold:.4f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def sobolev_rate_run():
    """C5's rate run, which C10 reads too: the truth, the report and the
    run's own wall time."""
    start = time.monotonic()
    model = ex.sobolev_model(smoothness=1.0, size=4096, scale=1.0, noise=ex.NoiseSpec("uniform", 0.05))
    grid = [64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096]
    rep = ex.rate_experiment(model, grid, replicates=20, seed=0, threads=4)
    return model, rep, time.monotonic() - start


def test_c5_sobolev_rate_slope(sobolev_rate_run):
    _, rep, elapsed = sobolev_rate_run
    assert -0.83 <= rep.slope <= -0.50
    assert elapsed < 600.0
    report("5 sobolev rate", f"slope {rep.slope:.4f} in [-0.83, -0.50], stderr {rep.slope_stderr:.3f}, {elapsed:.0f}s")


def test_c10_oracle_inequality_on_covered_replicates(sobolev_rate_run):
    # On a replicate whose slabs cover the truth, the soft-thresholded fit's
    # risk is at most Donoho and Johnstone's ideal risk: per kept coordinate
    # min(f_k^2, 4 tau_k^2), plus the squared tail of the truth past m. The
    # clip at sup |f| only moves the fit closer (C7).
    start = time.process_time()
    model, rep, _ = sobolev_rate_run
    sup, sigma2, f2 = model.sup_bound(), model.noise.second_moment, model.coefficients**2
    covered, below_zero, worst = 0, 0, 0.0
    for row in rep.rows:
        n = row["N"]
        sample = ex.generate(model, n, 0, seed=row["seed"])
        family = model.family(n)
        moments = exact_moments(family)
        spec = bounds.BoundSpec("IndExact", float(n) ** -2, B=sup, sigma2=sigma2)
        slabs = bounds.slab_setup(family, sample, moments, spec)
        if not ex._covered(model, sample, moments, spec, slabs):
            continue
        covered += 1
        kept = f2[:n]
        ideal = 4.0 * slabs.radius.tau[: kept.size] ** 2
        oracle = float(np.minimum(kept, ideal).sum() + f2[n:].sum())
        assert row["mse"] <= oracle * (1 + 1e-12), (n, row["replicate"])
        # an oracle that keeps a coordinate is below the zero model's risk, sum f_k^2
        if np.any(ideal < kept):
            below_zero += 1
            worst = max(worst, row["mse"] / oracle)
    eps = max(float(row["N"]) ** -2 for row in rep.rows)
    assert covered / len(rep.rows) >= 1.0 - eps - binomial_slack(eps, len(rep.rows))
    # the inequality is not vacuous: some oracle beats the zero model
    assert below_zero >= 1
    elapsed = time.process_time() - start
    assert elapsed < 5.0
    report(
        "10 oracle inequality",
        f"held on {covered}/{len(rep.rows)} covered, {below_zero} below the zero model "
        f"(worst mse/oracle {worst:.3f}), {elapsed:.1f}s",
    )


def test_c6_variance_bound_beats_basic_on_low_variance_features():
    start = time.monotonic()
    n = 256
    wins = []
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        x = rng.uniform(size=(2 * n, 1))
        family = MultiscaleGaussian(rng.uniform(0.2, 0.8, size=(8, 1)), [0.5, 1.0])
        y_all = 1.0 + rng.uniform(-0.05, 0.05, size=2 * n)
        ds = data.Dataset(x=x, y=y_all[:n], hidden_y=y_all[n:])
        feats = family.evaluate(x)
        stats = bounds.compute_stats(feats, ds)
        mom = empirical_test_moments(feats[n:])
        basic = bounds.tr_basic_bounded(stats, mom, bounds.BoundSpec("TrBasicBounded", 0.1, B=1.05))
        varb = bounds.tr_variance(stats, mom, bounds.BoundSpec("TrVariance", 0.1, B=1.05))
        wins.append(float(np.mean(varb.beta < basic.beta)))
    assert all(w >= 0.9 for w in wins)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report("6 bound ordering", f"variance < basic on {min(wins):.0%}+ of features across 5 seeds, {elapsed:.1f}s")


def test_c7_clipping_contraction_exact():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    bound = 2.0
    for _ in range(1000):
        dim = int(rng.integers(1, 10))
        c = rng.normal(0, 3, size=dim)
        f = rng.uniform(-bound, bound, size=dim)
        model = selector.SelectionModel(
            coefficients=c,
            trace=(),
            bound_variant="IndExact",
            epsilon=0.1,
            kappa=0.01,
            schedule="GreedyMax",
            orthonormal_design=True,
        )
        clipped = selector.clip_coefficients(model, bound).coefficients
        assert np.linalg.norm(clipped - f) <= np.linalg.norm(c - f)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("7 clipping contraction", f"1000 random pairs, exact inequality, {elapsed:.2f}s")


def test_c8_determinism_across_threads(tmp_path):
    rng = np.random.default_rng(808)
    x = rng.uniform(size=(12, 1))
    y = np.cos(2 * np.pi * x[:, 0]) + rng.uniform(-0.1, 0.1, 12)
    train = tmp_path / "train.csv"
    write_labeled_csv(train, x, y)
    fit_blobs = []
    for name, threads in (("f1", 1), ("f4", 4)):
        out = tmp_path / name
        code = cli_main([
            "fit", "--train", str(train), "--dictionary", '{"kind":"Trigonometric","m":6}',
            "--bound", '{"variant":"IndExact","epsilon":0.1,"B":1.2,"sigma2":0.01}',
            "--seed", "5", "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        fit_blobs.append((out / "model.json").read_bytes().replace(str(out).encode(), b"").replace(name.encode(), b""))
    assert fit_blobs[0] == fit_blobs[1]

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "transductive",
        "N": 48,
        "m": 8,
        "replicates": 100,
        "epsilon": 0.2,
        "model": {"kind": "sobolev", "size": 48, "noise": {"kind": "uniform", "scale": 0.2}},
        "seed": 11,
    }))
    exp_blobs = []
    for name, threads in (("e1", 1), ("e4", 4)):
        out = tmp_path / name
        code = cli_main(["experiment", "--config", str(config), "--threads", str(threads), "--out", str(out)])
        assert code == 0
        exp_blobs.append((
            (out / "report.csv").read_bytes(),
            (out / "report.json").read_bytes().replace(str(out).encode(), b"").replace(name.encode(), b""),
        ))
    csv1, json1 = exp_blobs[0]
    csv4, json4 = exp_blobs[1]
    assert csv1 == csv4
    # report.json embeds the resolved config including the threads flag; mask it
    json1 = json1.replace(b'"threads": 1', b'"threads": T')
    json4 = json4.replace(b'"threads": 4', b'"threads": T')
    assert json1 == json4
    report("8 determinism", "fit and experiment artifacts byte-identical at threads 1 and 4")


def test_c13_inductive_chain_in_a_dense_geometry():
    # The design is uniform on a fixed population of M points, so its Gram,
    # each feature's target coefficient and the risk are exact: on the
    # coverage event every projection lowers the population risk by at
    # least its delta (Pythagoras in the design's L2).
    start = time.process_time()
    population = np.random.default_rng(0).uniform(size=(4096, 1))
    family = MultiscaleGaussian(np.linspace(0.0, 1.0, 16)[:, None], [200.0, 800.0])
    theta = family.evaluate(population)
    mom = DesignMoments(theta.T @ theta / population.shape[0], "UserSupplied")
    f = 2.0 * np.sin(2 * np.pi * population[:, 0]) + np.cos(6 * np.pi * population[:, 0])
    target = (theta.T @ f / population.shape[0]) / mom.diag
    n, eps, replicates = 512, 0.1, 200
    specs = [
        bounds.BoundSpec("IndExact", eps, B=float(np.abs(f).max()), sigma2=0.01 / 3),
        bounds.BoundSpec("IndVarFirstOrder", eps),
    ]
    rng = np.random.default_rng(1313)
    details = []
    for spec in specs:
        for schedule in selector.SCHEDULES:
            covered = chained = steps = 0
            for _ in range(replicates):
                rows = rng.integers(0, population.shape[0], size=n)
                ds = data.Dataset(x=population[rows], y=f[rows] + rng.uniform(-0.1, 0.1, n))
                fit = selector.run_selection(ds, family, mom, spec, schedule=schedule)
                steps += fit.stopped_at
                if np.all(np.abs(fit.slabs.centers - target) <= fit.slabs.radius.tau):
                    covered += 1
                    chained += ex._chain_holds(fit, theta, f)
            cell = f"{spec.variant}/{schedule}"
            assert covered / replicates >= 1 - eps - binomial_slack(1 - eps, replicates), cell
            assert chained == covered, cell
            assert steps / replicates >= 1.0, cell
            details.append(f"{cell} coverage {covered / replicates:.3f}, steps {steps / replicates:.1f}")
    elapsed = time.process_time() - start
    assert elapsed < 5.0
    report("13 dense inductive chain", f"{'; '.join(details)}, {elapsed:.1f}s")
