"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the measured values (run with `pytest -s` to see them on success).

The synthetic-training fixture (criteria 4 and 6) trains the reference
predictor for 6000 iterations and is the slow part of the suite; everything
else completes in seconds.
"""

import csv
import math
import pathlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import axis_angle_difference_deg, render_anisotropic
from hmuq.cli import main as cli_main
from hmuq.clinical import (
    ClassThresholds,
    MeasurementDef,
    accuracy_uncertainty_curve,
    classify,
    evaluate_measurement,
    mc_classify,
)
from hmuq.dataio import Dataset, load_dataset
from hmuq.fitting import fit_gaussian
from hmuq.gauss import AnisotropicGaussian, CovarianceDecomposition
from hmuq.metrics import (
    REPORT_COLUMNS,
    SDR_RADII,
    aggregate_stats,
    interobserver_decomps,
    point_error,
    sdr,
)
from hmuq.nets import ReferencePredictor
from hmuq.synthdata import SynthConfig, generate, write_synth_dataset
from hmuq.trainer import (
    TrainConfig,
    aniso_loss_gradients,
    predict,
    train,
    write_checkpoint,
)
from hmuq.uncertainty import mcd_heatmap_fit, mcd_max, mcd_predict, sample_uncertainty

from helpers import loss_learned_aniso, write_interobserver_fixture


def report(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def smooth_field(rng, shape, amplitude):
    """Band-limited random heatmap (keeps finite differences well conditioned)."""
    coarse = rng.normal(0.0, amplitude, (4, 4))
    reps = (shape[0] // 4 + 1, shape[1] // 4 + 1)
    big = np.kron(coarse, np.ones(reps))[:shape[0], :shape[1]]
    return big


# --- criterion 1: gradient correctness ---------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    shape = (24, 24)
    worst_cov = 0.0
    for case in range(100):
        rng = np.random.default_rng([1, case])
        pred = smooth_field(rng, shape, 2.0)[None].repeat(2, axis=0)
        pred += rng.normal(0.0, 0.05, pred.shape)
        coords = rng.uniform(6.0, 18.0, (2, 2))
        decomps = [CovarianceDecomposition(rng.uniform(-1.5, 1.5),
                                           rng.uniform(2.0, 4.0),
                                           rng.uniform(1.0, 2.0)) for _ in range(2)]
        _, grad_cov, _ = aniso_loss_gradients(pred, coords, decomps, 5.0, 100.0)
        for j in range(2):
            # the gradients are by (theta, log sigma_maj, log sigma_min)
            at = [decomps[j].theta, math.log(decomps[j].sigma_maj),
                  math.log(decomps[j].sigma_min)]
            for field_idx in range(3):
                v = at[field_idx]
                eps = 1e-6 * max(1.0, abs(v))

                def loss_at(value):
                    theta, log_maj, log_min = at[:field_idx] + [value] + at[field_idx + 1:]
                    d = decomps.copy()
                    d[j] = CovarianceDecomposition(theta, math.exp(log_maj), math.exp(log_min))
                    return loss_learned_aniso(pred, coords, d, 5.0, 100.0)

                fd = (loss_at(v + eps) - loss_at(v - eps)) / (2.0 * eps)
                rel = abs(grad_cov[j, field_idx] - fd) / max(abs(fd), 1e-8)
                worst_cov = max(worst_cov, rel)

    rng = np.random.default_rng(3)
    net = ReferencePredictor(2, 8, seed=0)
    params = rng.normal(0.0, 0.3, net.num_params())
    net.set_params(params)
    image = rng.uniform(0.0, 1.0, (8, 8))
    coords = np.array([[3.2, 4.1], [5.5, 2.3]])
    decomps = [CovarianceDecomposition(0.3, 2.0, 1.2),
               CovarianceDecomposition(-0.7, 1.5, 1.5)]

    def net_loss(p):
        net.set_params(p)
        return loss_learned_aniso(net.forward(image, 0.0, None), coords,
                                  decomps, 5.0, 100.0)

    net.set_params(params)
    _, _, dpred = aniso_loss_gradients(net.forward(image, 0.0, None), coords,
                                       decomps, 5.0, 100.0)
    analytic = net.backward(dpred)
    fd = np.empty_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += 1e-5
        dn = params.copy()
        dn[i] -= 1e-5
        fd[i] = (net_loss(up) - net_loss(dn)) / 2e-5
    worst_net = float(np.abs(analytic - fd).max() / np.abs(fd).max())
    elapsed = time.time() - t0
    ok = worst_cov < 1e-4 and worst_net < 1e-3 and elapsed < 60.0
    report(1, ok, f"covariance grads worst rel {worst_cov:.2e} (<1e-4), "
                  f"predictor grads worst rel {worst_net:.2e} (<1e-3) over all "
                  f"{params.size} params, {elapsed:.1f}s (<60s)")


# --- criterion 2: fit round trip ----------------------------------------------------


def test_criterion_2_fit_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_mean, worst_sigma, worst_theta = 0.0, 0.0, 0.0
    for _ in range(500):
        while True:
            s = np.exp(rng.uniform(np.log(1.5), np.log(8.0), 2))
            maj, mnr = float(max(s)), float(min(s))
            if maj / mnr <= 4.0:
                break
        d = CovarianceDecomposition(rng.uniform(-np.pi / 2, np.pi / 2), maj, mnr)
        size = int(math.ceil(12.0 * maj + 16.0))
        mean = (size / 2.0 + rng.uniform(-1, 1), size / 2.0 + rng.uniform(-1, 1))
        g = AnisotropicGaussian(mean, d, rng.uniform(50.0, 150.0))
        f = fit_gaussian(render_anisotropic(g, (size, size))).gaussian
        worst_mean = max(worst_mean, math.hypot(f.mean[0] - mean[0], f.mean[1] - mean[1]))
        worst_sigma = max(worst_sigma, abs(f.decomp.sigma_maj - maj) / maj,
                          abs(f.decomp.sigma_min - mnr) / mnr)
        worst_theta = max(worst_theta,
                          axis_angle_difference_deg(f.decomp.theta_deg, d.theta_deg))

    impulse_worst = 0.0
    for case in range(20):
        rng_i = np.random.default_rng([2, case])
        d = CovarianceDecomposition(rng_i.uniform(-1.0, 1.0), 4.0, 2.0)
        mean = (32.0 + rng_i.uniform(-2, 2), 32.0 + rng_i.uniform(-2, 2))
        g = AnisotropicGaussian(mean, d, 100.0)
        grid = render_anisotropic(g, (64, 64)).copy()
        peak = grid.max()
        placed = 0
        while placed < 5:  # hot pixels clear of the blob core
            y, x = rng_i.integers(0, 64, 2)
            if math.hypot(x - mean[0], y - mean[1]) >= 8.0:
                grid[y, x] = peak
                placed += 1
        f = fit_gaussian(grid).gaussian
        impulse_worst = max(impulse_worst,
                            math.hypot(f.mean[0] - mean[0], f.mean[1] - mean[1]))
    elapsed = time.time() - t0
    ok = (worst_mean < 0.01 and worst_sigma < 0.01 and worst_theta < 0.5
          and impulse_worst < 0.1 and elapsed < 60.0)
    report(2, ok, f"500 draws: mean err {worst_mean:.1e} px (<0.01), sigma rel "
                  f"{worst_sigma:.1e} (<0.01), theta err {worst_theta:.1e} deg (<0.5); "
                  f"5-impulse mean err {impulse_worst:.3f} px (<0.1); "
                  f"{elapsed:.1f}s (<60s)")


# --- criterion 3: closed-form sigma equilibrium -------------------------------------


def test_criterion_3_sigma_equilibrium():
    t0 = time.time()
    ds = Dataset(["a"], [np.zeros((64, 64))],
                 np.array([[[32.0, 32.0], [24.0, 40.0]]]), np.ones(1), 2)
    cfg = TrainConfig(alpha=5.0, gamma=100.0, iterations=600, learning_rate=1e-4,
                      covariance_lr_multiplier=20.0, batch_size=1, seed=1,
                      predictor_width=4, freeze_predictor=True)
    model = train(ds, cfg)  # the zero head keeps the frozen predictor's output at 0
    expected = 100.0 / (2.0 * math.sqrt(math.pi * 5.0))
    products = [d.product for d in model.target_decomps]
    worst = max(abs(p - expected) / expected for p in products)
    elapsed = time.time() - t0
    ok = worst < 0.05 and elapsed < 120.0
    report(3, ok, f"zero-predictor equilibrium: products {np.round(products, 3)} vs "
                  f"gamma/(2*sqrt(pi*alpha)) = {expected:.4f}, worst rel dev "
                  f"{worst:.3f} (<0.05), {elapsed:.1f}s (<120s)")


# --- criteria 4 + 6 fixture: the trained synthetic model ----------------------------


@pytest.fixture(scope="session")
def synth_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    train_cfg = SynthConfig(seed=11)  # 200 images, 64x64, 4 landmarks
    held_cfg = SynthConfig(seed=12, num_images=24)
    cfg = TrainConfig(learning_rate=1e-5, covariance_lr_multiplier=3.0,
                      iterations=6000, batch_size=4, seed=3, dropout_rate=0.1,
                      predictor_width=16)
    t0 = time.time()
    model = train(generate(train_cfg)[0], cfg)
    runtime = time.time() - t0
    held, held_truth = generate(held_cfg)
    held_dir = root / "held"
    write_synth_dataset(held_dir, held, held_truth, held_cfg)
    model_dir = root / "model"
    model_dir.mkdir()
    write_checkpoint(model, model_dir / "model.ckpt")
    return SimpleNamespace(model=model, runtime=runtime, held=held,
                           held_dir=held_dir, model_dir=model_dir, root=root)


def held_out_fits(ns):
    per_lm = [[] for _ in range(ns.held.landmark_count)]
    for image in ns.held.images:
        for j, heatmap in enumerate(predict(ns.model, image)):
            per_lm[j].append(sample_uncertainty(heatmap).gaussian.decomp)
    return per_lm


def test_criterion_4_synthetic_uncertainty_recovery(synth_model):
    ns = synth_model
    learned = [d.canonical() for d in ns.model.target_decomps]
    aniso, iso = learned[1], learned[2]  # noise (4, 1.5, 30 deg) vs isotropic blob
    theta_dev = axis_angle_difference_deg(aniso.theta_deg, 30.0)
    per_lm = held_out_fits(ns)
    st_aniso = aggregate_stats(per_lm[1])
    st_iso = aggregate_stats(per_lm[2])
    fit_theta_dev = axis_angle_difference_deg(st_aniso.theta_mean_deg, 30.0)
    ok = (aniso.ratio > 1.8 and theta_dev <= 15.0 and iso.ratio < 1.3
          and st_aniso.ratio_mean > 1.8 and fit_theta_dev <= 15.0
          and st_iso.ratio_mean < 1.3 and ns.runtime <= 900.0)
    report(4, ok,
           f"learned: aniso ratio {aniso.ratio:.2f} (>1.8) theta "
           f"{aniso.theta_deg:+.1f} deg (dev {theta_dev:.1f} <= 15), iso ratio "
           f"{iso.ratio:.2f} (<1.3); held-out fits: aniso ratio "
           f"{st_aniso.ratio_mean:.2f} (>1.8) theta {st_aniso.theta_mean_deg:+.1f} "
           f"deg (dev {fit_theta_dev:.1f} <= 15), iso ratio {st_iso.ratio_mean:.2f} "
           f"(<1.3); training {ns.runtime:.0f}s (<=900s)")


# --- criterion 5: inter-observer reproduction ---------------------------------------


def test_criterion_5_interobserver_reproduction(tmp_path):
    t0 = time.time()
    manifest = write_interobserver_fixture(tmp_path / "iobs", num_images=100)
    ds = load_dataset(manifest)
    n_rows = sum(len(v) for v in ds.observers.values())
    st1 = aggregate_stats(interobserver_decomps(ds, 0))
    st4 = aggregate_stats(interobserver_decomps(ds, 3))
    elapsed = time.time() - t0
    ok = (n_rows == 5500
          and abs(st1.ratio_mean - 2.57) <= 0.05
          and abs(st1.product_mean - 0.37) <= 0.02
          and axis_angle_difference_deg(st1.theta_mean_deg, 39.33) <= 1.0
          and abs(st4.ratio_mean - 1.11) <= 0.05
          and abs(st4.product_mean - 0.26) <= 0.02
          and elapsed < 10.0)
    report(5, ok, f"{n_rows} observer rows (=5500); L1 ratio {st1.ratio_mean:.3f} "
                  f"(2.57+-0.05) product {st1.product_mean:.3f} mm^2 (0.37+-0.02) "
                  f"theta {st1.theta_mean_deg:.2f} deg (39.33+-1.0); L4 ratio "
                  f"{st4.ratio_mean:.3f} (1.11+-0.05) product {st4.product_mean:.3f} "
                  f"(0.26+-0.02); {elapsed:.1f}s (<10s)")


# --- criterion 6: MCD underestimation pattern ---------------------------------------


def test_criterion_6_mcd_underestimation(synth_model):
    ns = synth_model
    n_images = 6
    n_lm = ns.held.landmark_count
    max_products = np.zeros(n_lm)
    fit_products = np.zeros(n_lm)
    for image in ns.held.images[:n_images]:
        mean, points = mcd_predict(ns.model, image, k=20, seed=7)
        for j in range(n_lm):
            max_products[j] += mcd_max(points[j])[1].product
            fit_products[j] += mcd_heatmap_fit(mean[j]).gaussian.decomp.product
    max_products /= n_images
    fit_products /= n_images
    ok = bool((max_products < fit_products).all())
    report(6, ok, f"k=20 dropout 0.1: argmax-spread products "
                  f"{np.round(max_products, 3)} strictly below mean-heatmap-fit "
                  f"products {np.round(fit_products, 3)} for every landmark")


# --- criterion 7: clinical properties -----------------------------------------------


def test_criterion_7_clinical_properties():
    mdef = MeasurementDef("bend", "angle(a, b, c)")
    thr = ClassThresholds((55.0, 65.0), ("low", "mid", "high"))

    point = {"a": AnisotropicGaussian((10.0, 0.0), CovarianceDecomposition(0.0, 0.0, 0.0), 1.0),
             "b": AnisotropicGaussian((0.0, 0.0), CovarianceDecomposition(0.0, 0.0, 0.0), 1.0),
             "c": AnisotropicGaussian((3.0, 9.0), CovarianceDecomposition(0.0, 0.0, 0.0), 1.0)}
    [res_point] = mc_classify(point, [(mdef, thr)], n=1000, seed=1)
    deterministic = classify(evaluate_measurement(
        {k: g.mean for k, g in point.items()}, mdef), thr)
    point_ok = res_point.entropy_nats == 0.0 and res_point.hard_class == deterministic

    span = MeasurementDef("span", "distance(a, b)")
    thr2 = ClassThresholds((100.0,), ("below", "above"))
    centered = {"a": AnisotropicGaussian((0.0, 0.0), CovarianceDecomposition(0.0, 0.0, 0.0), 1.0),
                "b": AnisotropicGaussian((100.0, 0.0), CovarianceDecomposition(0.0, 0.5, 0.5), 1.0)}
    [res_bp] = mc_classify(centered, [(span, thr2)], n=100000, seed=2)
    bp_dev = abs(res_bp.entropy_nats - math.log(2.0))
    bp_ok = bp_dev <= 0.02

    rng = np.random.default_rng(12)
    ids, results, gts = [], [], []
    for i in range(40):
        angle = rng.uniform(45.0, 75.0)
        rad = math.radians(angle)
        gt = {"a": np.array([10.0, 0.0]), "b": np.array([0.0, 0.0]),
              "c": 10.0 * np.array([math.cos(rad), math.sin(rad)])}
        gt_label = classify(evaluate_measurement(gt, mdef), thr)
        sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(1.5))))
        preds = {name: AnisotropicGaussian(tuple(p + rng.normal(0.0, sigma, 2)),
                                           CovarianceDecomposition(0.0, sigma, sigma),
                                           1.0)
                 for name, p in gt.items()}
        ids.append(f"img_{i:02d}")
        results += mc_classify(preds, [(mdef, thr)], n=2000, seed=[9, i])
        gts.append(gt_label)
    curve = accuracy_uncertainty_curve(ids, results, gts)
    half_acc = curve[len(curve) // 2 - 1][1]
    full_acc = curve[-1][1]
    curve_ok = half_acc >= full_acc

    ok = point_ok and bp_ok and curve_ok
    report(7, ok, f"point mass: entropy {res_point.entropy_nats} (=0), hard class "
                  f"{res_point.hard_class!r} == deterministic {deterministic!r}; "
                  f"breakpoint-centered: |entropy - ln 2| = {bp_dev:.4f} (<=0.02) at "
                  f"n=1e5; lowest-entropy half accuracy {half_acc:.1f}% >= full-set "
                  f"{full_acc:.1f}%")


# --- criterion 8: metric invariants -------------------------------------------------


def test_criterion_8_metric_invariants():
    rng = np.random.default_rng(8)
    errors = rng.gamma(2.0, 1.5, 200)
    radii = sorted(set(SDR_RADII) | set(rng.uniform(0.1, 8.0, 20)))
    values = [sdr(errors, r) for r in radii]
    sdr_ok = all(a <= b for a, b in zip(values, values[1:]))

    pe_ok = True
    for _ in range(1000):
        a, b, c = rng.normal(0.0, 10.0, (3, 2))
        if point_error(a, b) != point_error(b, a):
            pe_ok = False
        if point_error(a, c) > point_error(a, b) + point_error(b, c) + 1e-12:
            pe_ok = False

    mdef = MeasurementDef("bend", "angle(a, b, c)")
    worst_angle = 0.0
    for case in range(50):
        rng_c = np.random.default_rng([8, case])
        pts = {n: rng_c.normal(0.0, 10.0, 2) for n in ("a", "b", "c")}
        base = evaluate_measurement(pts, mdef)
        for _ in range(20):
            phi = rng_c.uniform(0.0, 2.0 * np.pi)
            s = float(np.exp(rng_c.uniform(np.log(0.2), np.log(5.0))))
            shift = rng_c.normal(0.0, 50.0, 2)
            rot = s * np.array([[np.cos(phi), -np.sin(phi)],
                                [np.sin(phi), np.cos(phi)]])
            moved = {n: rot @ p + shift for n, p in pts.items()}
            worst_angle = max(worst_angle,
                              abs(evaluate_measurement(moved, mdef) - base))
    angle_ok = worst_angle < 1e-9

    ok = sdr_ok and pe_ok and angle_ok
    report(8, ok, f"SDR non-decreasing over {len(radii)} radii: {sdr_ok}; PE "
                  f"symmetry+triangle on 1000 triples: {pe_ok}; angle invariance "
                  f"over 1000 similarity transforms: worst dev {worst_angle:.2e} deg "
                  f"(<1e-9)")


# --- criterion 9: full-scale numbers stated non-reproducible ------------------------


def test_criterion_9_full_scale_statement(synth_model):
    readme_path = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text(encoding="utf-8")
    statement_ok = ("0.61" in readme and "0.99" in readme
                    and "not reproduced" in readme)
    out = synth_model.root / "eval_out"
    code = cli_main(["eval", "--model", str(synth_model.model_dir),
                     "--data", str(synth_model.held_dir),
                     "--out", str(out), "--quiet"])
    with open(out / "metrics.csv", "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    columns_ok = header == REPORT_COLUMNS
    ok = statement_ok and code == 0 and columns_ok
    report(9, ok, f"README states full-scale numbers (0.61 mm hand, 0.99 mm ceph) "
                  f"are not reproduced here: {statement_ok}; eval emits the fixed "
                  f"column structure {header == REPORT_COLUMNS}: {header}")


# --- criterion 10: determinism ------------------------------------------------------


def test_criterion_10_determinism(synth_model, tmp_path):
    (tmp_path / "synth.cfg").write_text(
        "image_size = 32\nnum_images = 10\nposition_jitter = 2.0\nseed = 5\n"
        "num_landmarks = 2\n"
        "landmark_0.structure = corner\n"
        "landmark_0.orientation_deg = 0.0\n"
        "landmark_0.noise_theta_deg = 0.0\n"
        "landmark_0.noise_sigma_maj = 0.0\n"
        "landmark_0.noise_sigma_min = 0.0\n"
        "landmark_1.structure = edge\n"
        "landmark_1.orientation_deg = 30.0\n"
        "landmark_1.noise_theta_deg = 30.0\n"
        "landmark_1.noise_sigma_maj = 2.0\n"
        "landmark_1.noise_sigma_min = 0.8\n")
    (tmp_path / "train.cfg").write_text(
        "iterations = 60\nlearning_rate = 1e-05\ncovariance_lr_multiplier = 3.0\n"
        "batch_size = 2\nseed = 1\ndropout_rate = 0.1\npredictor_width = 8\n")
    (tmp_path / "names.cfg").write_text("0 = alpha\n1 = beta\n")
    (tmp_path / "meas.cfg").write_text(
        "span.expression = distance(alpha, beta)\nspan.breakpoints = 6.0, 12.0\n"
        "span.labels = short, mid, long\n")

    pairs = []
    for rerun in ("1", "2"):
        base = tmp_path / rerun
        assert cli_main(["synth", "--config", str(tmp_path / "synth.cfg"),
                         "--out", str(base / "d"), "--quiet"]) == 0
        assert cli_main(["train", "--data", str(base / "d"),
                         "--config", str(tmp_path / "train.cfg"),
                         "--out", str(base / "m"), "--quiet"]) == 0
        assert cli_main(["mcd", "--model", str(synth_model.model_dir),
                         "--data", str(synth_model.held_dir), "--k", "5",
                         "--out", str(base / "mc"), "--quiet"]) == 0
        assert cli_main(["clinical", "--model", str(base / "m"),
                         "--data", str(base / "d"),
                         "--names", str(tmp_path / "names.cfg"),
                         "--measurements", str(tmp_path / "meas.cfg"),
                         "--samples", "300", "--seed", "4",
                         "--out", str(base / "rc"), "--quiet"]) == 0
        pairs.append({
            "synth": (base / "d" / "annotations.csv").read_bytes(),
            "train": (base / "m" / "loss.csv").read_bytes(),
            "mcd": (base / "mc" / "mcd.csv").read_bytes(),
            "clinical": (base / "rc" / "classifications.csv").read_bytes(),
            "curve": (base / "rc" / "curve_span.csv").read_bytes(),
        })
    mismatched = [k for k in pairs[0] if pairs[0][k] != pairs[1][k]]
    ok = not mismatched
    report(10, ok, f"synth/train/mcd/clinical reruns byte-identical: "
                   f"{sorted(pairs[0])}" + (f"; MISMATCH in {mismatched}" if mismatched
                                            else ""))
