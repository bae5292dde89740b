"""Command-line pipeline around the library: dataset synthesis, training,
prediction, heatmap fitting, Monte-Carlo-dropout baselines, metric reports,
inter-observer analysis, clinical propagation, and SVG plots.

Every subcommand reads its inputs, writes artifacts under --out, and never
modifies what it read.  Reruns with the same inputs and seeds produce
byte-identical CSV files; SVG output differs only in a timestamp comment,
which --no-timestamp suppresses.  Exit status: 0 on success, 1 on runtime
errors (with a diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

from .clinical import (
    accuracy_uncertainty_curve,
    classify,
    evaluate_measurement,
    load_measurements,
    mc_classify,
    write_curve_csv,
)
from .dataio import (
    AnnotationRow,
    config_from_dict,
    errors_named,
    load_dataset,
    read_config_file,
    read_csv,
    write_annotations,
    write_csv,
)
from .fitting import FitConfig, argmax_coord
from .gauss import AnisotropicGaussian, InvalidParameterError, population_distribution
from .metrics import (
    aggregate_stats,
    interobserver_decomps,
    point_error,
    report_row,
    write_report_csv,
)
from .nets import check_image_shape
from .svgplot import (
    PLOT_KINDS,
    render_accuracy_curve,
    render_ellipse_overlay,
    render_offset_scatter,
    render_sigma_vs_error,
)
from .synthdata import SynthConfig, generate, write_synth_dataset
from .trainer import TrainConfig, predict, read_checkpoint, train, write_checkpoint
from .uncertainty import mcd_heatmap_fit, mcd_max, mcd_predict, sample_uncertainty


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _train_progress(total: int):
    """train() callback: one stderr line every max(1, total // 10) iterations
    with the mean loss since the previous line, the target extents
    sigma_maj/sigma_min (px) per landmark, it/s and the ETA."""
    stride = max(1, total // 10)
    losses = []
    last = time.perf_counter()

    def report(it, loss, sigma_maj, sigma_min):
        nonlocal last
        losses.append(loss)
        if (it + 1) % stride:
            return
        now = time.perf_counter()
        rate = len(losses) / max(now - last, 1e-9)
        sigmas = " ".join(f"{max(a, b):.2f}/{min(a, b):.2f}"
                          for a, b in zip(sigma_maj, sigma_min))
        print(f"iteration {it + 1}/{total}: loss {sum(losses) / len(losses):.4f}, "
              f"sigma {sigmas} px, {rate:.1f} it/s, ETA {(total - it - 1) / rate:.0f} s",
              file=sys.stderr)
        losses.clear()
        last = now

    return report


def _read_config(args, cls):
    """The --config file decoded as a `cls` config, else the defaults."""
    if args.config is None:
        return cls()
    with errors_named(args.config):
        return config_from_dict(cls, read_config_file(args.config))


def _out_path(args, name):
    """Path of the output file `name` under --out, which is created."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _manifest_path(data):
    return os.path.join(data, "manifest.cfg") if os.path.isdir(data) else data


def _checkpoint_path(model):
    return os.path.join(model, "model.ckpt") if os.path.isdir(model) else model


def _load_predictor_dataset(data, model=None, annotated=True, one_shape=False):
    """The checkpoint at `model` (None without one) and the dataset at `data`,
    for a command that runs the predictor.

    The dataset must have the checkpoint's landmark count.  Every image must
    have a shape the predictor takes, and with `one_shape` (training) the
    shape of the first image; a fault names the image's file.  `annotated`
    requires the single-annotator table.
    """
    trained = None if model is None else read_checkpoint(_checkpoint_path(model))
    ds = load_dataset(_manifest_path(data))
    if trained is not None and trained.predictor.landmark_count != ds.landmark_count:
        raise InvalidParameterError(
            f"{_checkpoint_path(model)}: checkpoint has {trained.predictor.landmark_count} "
            f"landmarks, dataset has {ds.landmark_count} ({_manifest_path(data)})")
    if annotated and ds.coords is None:
        raise InvalidParameterError(
            f"{data}: dataset has observer annotations only; this command "
            f"needs the single-annotator table")
    for path, image in zip(ds.paths, ds.images):
        with errors_named(path):
            check_image_shape(image.shape)
            if one_shape and image.shape != ds.images[0].shape:
                raise InvalidParameterError(
                    f"shape {image.shape} differs from {ds.images[0].shape} of "
                    f"{ds.paths[0]}; all training images must share one shape")
    return trained, ds


def _warn_fit_outcomes(fits) -> None:
    """Two stderr warnings over a flat list of fits (None = too flat to fit):
    the count skipped, and the count of the others that did not converge."""
    done = [f for f in fits if f is not None]
    if len(done) < len(fits):
        _warn(f"{len(fits) - len(done)} heatmaps were too flat for a Gaussian fit "
              f"and were skipped")
    unconverged = sum(not f.converged for f in done)
    if unconverged:
        _warn(f"{unconverged} of {len(done)} fits did not converge")


def _fit_dataset(model, ds, fit_cfg, landmarks=None):
    """One forward pass per image, then a Gaussian fit of each requested heatmap.

    Returns fits[i][j], a FitResult for image i and landmark j (every landmark
    unless `landmarks` names some); a heatmap too flat to fit is counted in the
    warnings and has no entry.
    """
    fits = []
    for image in ds.images:
        heatmaps = predict(model, image)
        fits.append({j: sample_uncertainty(heatmaps[j], fit_cfg)
                     for j in (range(len(heatmaps)) if landmarks is None else landmarks)})
    _warn_fit_outcomes([f for per_image in fits for f in per_image.values()])
    return [{j: f for j, f in per_image.items() if f is not None} for per_image in fits]


def _write_report(args, name, rows, summary):
    out_path = _out_path(args, name)
    write_report_csv(out_path, rows)
    _say(args, f"wrote {out_path}: {summary}")
    for row in rows:
        _say(args, "  " + " ".join(f"{k}={v}" for k, v in row.items() if v != ""))


# --- subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _read_config(args, SynthConfig)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    ds, truth = generate(cfg)
    manifest = write_synth_dataset(args.out, ds, truth, cfg)
    _say(args, f"wrote {manifest}: {cfg.num_images} images, "
               f"{ds.landmark_count} landmarks, {cfg.image_size}x{cfg.image_size} px")
    return 0


def cmd_train(args) -> int:
    _, ds = _load_predictor_dataset(args.data, one_shape=True)
    cfg = _read_config(args, TrainConfig)
    given = {"seed": args.seed, "iterations": args.iterations}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})
    model = train(ds, cfg, progress=None if args.quiet else _train_progress(cfg.iterations))
    ckpt = _out_path(args, "model.ckpt")
    write_checkpoint(model, ckpt)
    write_csv(_out_path(args, "loss.csv"), ["iteration", "loss"],
              [(i, repr(float(v))) for i, v in enumerate(model.loss_trace)])
    write_csv(_out_path(args, "learned_covariances.csv"),
              ["landmark_id", "theta_deg", "sigma_maj", "sigma_min"],
              [(j, repr(d.theta_deg), repr(d.sigma_maj), repr(d.sigma_min))
               for j, d in enumerate(model.target_decomps)])
    _say(args, f"wrote {ckpt}: final loss {model.loss_trace[-1]:.4f}")
    for j, d in enumerate(model.target_decomps):
        _say(args, f"  landmark {j}: theta {d.theta_deg:+.2f} deg, "
                   f"sigma_maj {d.sigma_maj:.3f} px, sigma_min {d.sigma_min:.3f} px")
    return 0


def cmd_predict(args) -> int:
    model, ds = _load_predictor_dataset(args.data, args.model, annotated=False)
    rows = []
    for image_id, image in zip(ds.ids, ds.images):
        for j, heatmap in enumerate(predict(model, image)):
            x, y = argmax_coord(heatmap)
            rows.append(AnnotationRow(image_id, j, "", float(x), float(y)))
    out_path = _out_path(args, "predictions.csv")
    write_annotations(out_path, rows)
    _say(args, f"wrote {out_path}: {len(rows)} predictions")
    return 0


def cmd_fit(args) -> int:
    model, ds = _load_predictor_dataset(args.data, args.model, annotated=False)
    rows = []
    for image_id, fits in zip(ds.ids, _fit_dataset(model, ds, _read_config(args, FitConfig))):
        for j, fit in fits.items():
            (x, y), d = fit.gaussian.mean, fit.gaussian.decomp
            rows.append((image_id, j, repr(x), repr(y),
                         repr(d.theta_deg), repr(d.sigma_maj), repr(d.sigma_min),
                         int(fit.converged)))
    out_path = _out_path(args, "fits.csv")
    write_csv(out_path, ["image_id", "landmark_id", "x_px", "y_px",
                         "theta_deg", "sigma_maj", "sigma_min", "converged"], rows)
    _say(args, f"wrote {out_path}: {len(rows)} fits")
    return 0


def cmd_mcd(args) -> int:
    model, ds = _load_predictor_dataset(args.data, args.model, annotated=False)
    fit_cfg = _read_config(args, FitConfig)
    rows = []
    fits = []
    for image_id, image in zip(ds.ids, ds.images):
        for j, stack in enumerate(mcd_predict(model, image, args.k, args.seed)):
            estimates = [("mcd_max", *mcd_max(stack))]
            fit = mcd_heatmap_fit(stack, fit_cfg)
            fits.append(fit)
            if fit is not None:
                estimates.append(("mcd_heatmap_fit", fit.gaussian.mean, fit.gaussian.decomp))
            for source, (x, y), d in estimates:
                # numpy 2 reprs a float64 as np.float64(...)
                rows.append((image_id, j, source, repr(float(x)), repr(float(y)),
                             repr(d.theta_deg), repr(d.sigma_maj), repr(d.sigma_min)))
    _warn_fit_outcomes(fits)
    out_path = _out_path(args, "mcd.csv")
    write_csv(out_path, ["image_id", "landmark_id", "source", "x_px", "y_px",
                         "theta_deg", "sigma_maj", "sigma_min"], rows)
    _say(args, f"wrote {out_path}: {len(rows)} rows, k={args.k}")
    return 0


def cmd_eval(args) -> int:
    model, ds = _load_predictor_dataset(args.data, args.model)
    n_landmarks = model.predictor.landmark_count
    decomps_mm = [[] for _ in range(n_landmarks)]
    errors_mm = [[] for _ in range(n_landmarks)]
    for i, fits in enumerate(_fit_dataset(model, ds, _read_config(args, FitConfig))):
        spacing = float(ds.spacing[i])
        for j, fit in fits.items():
            decomps_mm[j].append(fit.gaussian.decomp.scaled(spacing))
            errors_mm[j].append(point_error(ds.coords[i, j], fit.gaussian.mean) * spacing)
    rows = []
    for j in range(n_landmarks):
        stats = aggregate_stats(decomps_mm[j]) if decomps_mm[j] else None
        rows.append(report_row(j, stats, errors_mm[j] or None))
    _write_report(args, "metrics.csv", rows,
                  f"{n_landmarks} landmarks over {len(ds.ids)} images")
    return 0


def cmd_interobs(args) -> int:
    ds = load_dataset(_manifest_path(args.data))
    if ds.observers is None:
        raise InvalidParameterError(f"{args.data}: dataset has no observer annotations")
    rows = []
    for j in range(ds.landmark_count):
        stats = aggregate_stats(interobserver_decomps(ds, j))
        rows.append(report_row(j, stats))
    n_rows = sum(len(v) for v in ds.observers.values())
    _write_report(args, "interobserver.csv", rows,
                  f"{n_rows} observer annotations over {len(ds.ids)} images")
    return 0


def _landmark_names(path, landmark_count):
    """The names config maps landmark indices to measurement-expression names."""
    items = read_config_file(path)
    names = {}
    for key, value in items.items():
        try:
            index = int(key)
        except ValueError:
            raise InvalidParameterError(
                f"{path}: keys must be landmark indices, got {key!r}") from None
        if not 0 <= index < landmark_count:
            raise InvalidParameterError(
                f"{path}: landmark index {index} outside 0..{landmark_count - 1}")
        if value in names.values():
            raise InvalidParameterError(f"{path}: duplicate landmark name {value!r}")
        names[index] = value
    return names


def cmd_clinical(args) -> int:
    model, ds = _load_predictor_dataset(args.data, args.model)
    measurements = list(load_measurements(args.measurements).values())
    names = _landmark_names(args.names, ds.landmark_count)
    available = set(names.values())
    for mdef, _ in measurements:
        missing = [n for n in mdef.landmark_ids if n not in available]
        if missing:
            raise InvalidParameterError(
                f"measurement {mdef.name!r} needs landmark names {missing} "
                f"that {args.names} does not define")
    class_rows = []
    prob_rows = []
    per_measurement = {mdef.name: [] for mdef, _ in measurements}  # (id, result, gt)
    skipped = 0
    all_fits = _fit_dataset(model, ds, _read_config(args, FitConfig), sorted(names))
    for i, (image_id, fits) in enumerate(zip(ds.ids, all_fits)):
        spacing = float(ds.spacing[i])
        gaussians = {}
        for j, fit in fits.items():
            (x, y), d = fit.gaussian.mean, fit.gaussian.decomp
            gaussians[names[j]] = AnisotropicGaussian((x * spacing, y * spacing),
                                                      d.scaled(spacing), 1.0)
        gt_mm = {name: ds.coords[i, j] * spacing for j, name in names.items()}
        for m_index, (mdef, thresholds) in enumerate(measurements):
            if any(n not in gaussians for n in mdef.landmark_ids):
                skipped += 1
                continue
            gt_label = classify(evaluate_measurement(gt_mm, mdef), thresholds)
            result = mc_classify(gaussians, mdef, thresholds, n=args.samples,
                                 seed=[args.seed, i, m_index])
            class_rows.append((image_id, mdef.name, gt_label, result.hard_class,
                               f"{result.entropy_nats:.6f}",
                               int(result.hard_class == gt_label)))
            for label, prob in zip(result.labels, result.probs):
                prob_rows.append((image_id, mdef.name, label, f"{prob:.6f}"))
            per_measurement[mdef.name].append((image_id, result, gt_label))
    if skipped:
        _warn(f"{skipped} image/measurement pairs skipped (landmark fit failed)")

    class_path = _out_path(args, "classifications.csv")
    write_csv(class_path, ["image_id", "measurement", "gt_class", "hard_class",
                           "entropy_nats", "correct"], class_rows)
    write_csv(_out_path(args, "probabilities.csv"),
              ["image_id", "measurement", "label", "probability"], prob_rows)
    for mdef, _ in measurements:
        triples = per_measurement[mdef.name]
        if not triples:
            _warn(f"measurement {mdef.name!r} classified no images; no curve written")
            continue
        curve = accuracy_uncertainty_curve(*zip(*triples))
        write_curve_csv(_out_path(args, f"curve_{mdef.name}.csv"), curve)
        _say(args, f"  {mdef.name}: accuracy {curve[-1][1]:.1f}% over {len(triples)} images")
    _say(args, f"wrote {class_path}: {len(class_rows)} classifications")
    return 0


def _require(args, parser, *flags) -> None:
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        parser.error(f"--kind {args.kind} requires {', '.join(missing)}")


def cmd_plot(args, parser) -> int:
    if not 0 < args.scale < math.inf:
        raise InvalidParameterError(f"ellipse scale must be finite and > 0, got {args.scale}")
    timestamp = not args.no_timestamp

    if args.kind == "accuracy_curve":
        _require(args, parser, "curves")
        curves = {}
        for path in args.curves:
            pts = []
            for lineno, rec in read_csv(path, ["fraction", "accuracy_percent"]):
                try:
                    a, b = rec
                    pts.append((float(a), float(b)))
                except ValueError:
                    raise InvalidParameterError(
                        f"{path}:{lineno}: expected two numbers, got {rec!r}") from None
            label = os.path.splitext(os.path.basename(path))[0]
            curves[label.removeprefix("curve_")] = pts
        svg = render_accuracy_curve(curves, title="accuracy vs considered fraction",
                                    timestamp=timestamp)
    else:
        _require(args, parser, "model", "data")
        model, ds = _load_predictor_dataset(args.data, args.model)
        if args.kind == "ellipse_overlay":
            if args.image is not None and args.image not in ds.ids:
                raise InvalidParameterError(f"unknown image id {args.image!r}")
            index = ds.ids.index(args.image) if args.image is not None else 0
            items = [(f"L{j}", tuple(ds.coords[index, j]), d.canonical())
                     for j, d in enumerate(model.target_decomps)]
            svg = render_ellipse_overlay(ds.images[index].shape, items,
                                         scale=args.scale,
                                         title=f"learned covariance, {ds.ids[index]}",
                                         timestamp=timestamp)
        else:
            j = args.landmark
            if not 0 <= j < ds.landmark_count:
                raise InvalidParameterError(
                    f"landmark {j} outside 0..{ds.landmark_count - 1}")
            fits = [(i, f[j]) for i, f in enumerate(_fit_dataset(model, ds, FitConfig(), [j]))
                    if j in f]
            if not fits:
                raise InvalidParameterError(
                    f"no usable Gaussian fit for landmark {j} on any image")
            gts = ds.coords[[i for i, _ in fits], j]
            preds = [f.gaussian.mean for _, f in fits]
            if args.kind == "offset_scatter":
                offsets = [(x - gx, y - gy) for (x, y), (gx, gy) in zip(preds, gts)]
                overlays = [("learned", model.target_decomps[j].canonical())]
                if len(offsets) >= 3:
                    overlays.append(("empirical", population_distribution(offsets)[1]))
                svg = render_offset_scatter(offsets, overlays, scale=args.scale,
                                            title=f"landmark {j} offsets (px)",
                                            timestamp=timestamp)
            else:
                products = [f.gaussian.decomp.product for _, f in fits]
                errors = [point_error(gt, pred) for gt, pred in zip(gts, preds)]
                svg = render_sigma_vs_error(products, errors,
                                            title=f"landmark {j} spread vs error",
                                            timestamp=timestamp)

    out_path = _out_path(args, f"{args.kind}.svg")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    _say(args, f"wrote {out_path}")
    return 0


# --- parser -----------------------------------------------------------------------


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(
        prog="hmuq",
        description="Landmark heatmap regression with anisotropic Gaussian "
                    "targets and uncertainty reports.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, help_text, **defaults):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        for flag, kwargs in defaults.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        return p

    config_kw = dict(default=None, help="flat key = value config file")
    seed_kw = dict(type=_seed, default=None, help="override the random seed")
    data_kw = dict(required=True, help="dataset directory or manifest path")
    model_kw = dict(required=True, help="model directory or checkpoint path")

    add("synth", "generate a synthetic landmark dataset", config=config_kw, seed=seed_kw)
    add("train", "train a predictor and the target covariances",
        data=data_kw, config=config_kw,
        iterations=dict(type=int, default=None, help="override the iteration count"),
        seed=seed_kw)
    add("predict", "write argmax landmark coordinates for a dataset",
        model=model_kw, data=data_kw)
    add("fit", "fit a Gaussian to every predicted heatmap",
        model=model_kw, data=data_kw, config=config_kw)
    add("mcd", "Monte-Carlo-dropout baselines (argmax spread and mean-heatmap fit)",
        model=model_kw, data=data_kw, config=config_kw,
        k=dict(type=int, default=20, help="number of stochastic forward passes"),
        seed=dict(seed_kw, default=0))
    add("eval", "localization and distribution metrics, one CSV row per landmark",
        model=model_kw, data=data_kw, config=config_kw)
    add("interobs", "per-landmark observer-spread statistics (mm)",
        data=data_kw)
    add("clinical", "propagate landmark uncertainty into measurement classes",
        model=model_kw, data=data_kw,
        names=dict(required=True,
                   help="config mapping landmark indices to expression names"),
        measurements=dict(default=None,
                          help="measurement definitions (default: shipped table)"),
        samples=dict(type=int, default=10000, help="Monte-Carlo samples per image"),
        config=config_kw, seed=dict(seed_kw, default=0))
    plot = add("plot", "render an SVG figure",
               kind=dict(required=True, choices=PLOT_KINDS),
               model=dict(default=None, help="model directory or checkpoint path"),
               data=dict(default=None, help="dataset directory or manifest path"),
               landmark=dict(type=int, default=0, help="landmark id for scatter kinds"),
               image=dict(default=None, help="image id for ellipse_overlay"),
               curves=dict(nargs="+", default=None,
                           help="accuracy-curve CSV files for accuracy_curve"),
               scale=dict(type=float, default=3.0, help="ellipse semi-axes in sigmas"),
               no_timestamp=dict(action="store_true",
                                 help="omit the timestamp comment from the SVG"))
    return parser, plot


HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "fit": cmd_fit,
    "mcd": cmd_mcd,
    "eval": cmd_eval,
    "interobs": cmd_interobs,
    "clinical": cmd_clinical,
}


def main(argv=None) -> int:
    parser, plot_parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "plot":
            return cmd_plot(args, plot_parser)
        return HANDLERS[args.command](args)
    except SystemExit as exc:  # parser.error() inside a handler
        return exc.code if isinstance(exc.code, int) else 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
