"""Synthetic landmark images with controllable anisotropic annotation noise.

Each landmark sits on a smooth rendered structure: `corner` (two soft edges
meeting at the landmark), `edge` (a soft step the landmark lies on, with a
broad envelope so the along-edge position is only weakly determined), or
`blob` (an isotropic bump).  Edge structures are oriented along the annotation
noise direction, so annotation ambiguity runs along the visible edge.
Annotations are the true positions plus a per-landmark Gaussian draw.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import (
    AnnotationRow,
    Dataset,
    config_to_dict,
    format_config,
    write_annotations,
    write_dataset,
)
from .gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    sample_gaussian,
    too_large,
)

STRUCTURES = ("corner", "edge", "blob")


@dataclass(frozen=True)
class LandmarkSpec:
    """A rendered structure and the annotation noise drawn around it
    (degrees, px), with its fields named as a `landmark_<i>.` block spells them."""

    structure: str
    orientation_deg: float = 0.0
    noise_theta_deg: float = 0.0
    noise_sigma_maj: float = 0.0
    noise_sigma_min: float = 0.0

    @property
    def noise(self) -> CovarianceDecomposition:
        return CovarianceDecomposition(math.radians(self.noise_theta_deg),
                                       self.noise_sigma_maj, self.noise_sigma_min)


DEFAULT_LANDMARKS = (
    LandmarkSpec("corner", 0.0),
    LandmarkSpec("edge", 30.0, 30.0, 4.0, 1.5),
    LandmarkSpec("blob", 0.0, 0.0, 1.5, 1.5),
    LandmarkSpec("corner", 45.0),
)


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 64
    num_images: int = 200
    contrast: float = 0.7
    noise_floor: float = 0.02
    position_jitter: float = 3.0
    seed: int = 0
    landmarks: tuple[LandmarkSpec, ...] = DEFAULT_LANDMARKS  # last: generator.cfg key order

    def validate(self) -> None:
        if not 16 <= self.image_size <= 4096 or self.image_size % 4:
            raise InvalidParameterError(
                f"image_size must be in [16, 4096] and divisible by 4, got {self.image_size}")
        if self.num_images < 1:
            raise InvalidParameterError(f"num_images must be >= 1, got {self.num_images}")
        if not self.landmarks:
            raise InvalidParameterError("num_landmarks must be >= 1, got 0")
        if not 0 < self.contrast <= 1:
            raise InvalidParameterError(f"contrast must be in (0, 1], got {self.contrast}")
        for name in ("noise_floor", "position_jitter"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        for i, spec in enumerate(self.landmarks):
            if spec.structure not in STRUCTURES:
                raise InvalidParameterError(
                    f"landmark_{i}.structure must be one of {STRUCTURES}, got {spec.structure!r}")
            for key in ("noise_sigma_maj", "noise_sigma_min"):
                if not getattr(spec, key) >= 0:
                    raise InvalidParameterError(
                        f"landmark_{i}.{key} must be >= 0, got {getattr(spec, key)}")
            spec.noise.validate()
        _base_positions(self)  # raises when the 6-sigma margins cannot be met


def _base_positions(cfg: SynthConfig) -> np.ndarray:
    """Fixed structure anchor points, inset so jitter + 6 sigma stays inside."""
    half = (cfg.image_size - 1) / 2.0
    n = len(cfg.landmarks)
    out = np.empty((n, 2))
    for i, spec in enumerate(cfg.landmarks):
        key = max(("noise_sigma_maj", "noise_sigma_min"), key=lambda k: getattr(spec, k))
        margin = cfg.position_jitter + 6.0 * getattr(spec, key)
        radius = min(0.3 * cfg.image_size, half - margin)
        if radius < 0:
            raise InvalidParameterError(
                f"position_jitter + 6 * landmark_{i}.{key} margin ({margin:.1f} px) "
                f"exceeds half the image_size ({half:.1f} px)")
        angle = 2.0 * math.pi * i / n + 0.25 * math.pi
        out[i] = (half + radius * math.cos(angle), half + radius * math.sin(angle))
    return out


def _render_structure(xs, ys, pos, spec: LandmarkSpec, contrast: float) -> np.ndarray:
    phi = math.radians(spec.orientation_deg)
    c, s = math.cos(phi), math.sin(phi)
    dx = xs - pos[0]
    dy = ys - pos[1]
    u = c * dx + s * dy      # along the structure orientation
    v = -s * dx + c * dy     # across it
    tau = 1.2                # softness of rendered edges, px
    if spec.structure == "blob":
        return contrast * np.exp(-(dx ** 2 + dy ** 2) / (2.0 * 3.0 ** 2))
    if spec.structure == "edge":
        envelope = np.exp(-u ** 2 / (2.0 * 10.0 ** 2))
        return contrast * envelope / (1.0 + np.exp(-v / tau))
    # corner: bright quadrant with its apex at the landmark
    return contrast / ((1.0 + np.exp(-u / tau)) * (1.0 + np.exp(-v / tau)))


def generate(cfg: SynthConfig) -> tuple[Dataset, np.ndarray]:
    """Deterministic (seeded) synthetic dataset and its true positions.

    The Dataset's coords are the noisy annotations, as `load_dataset` reads
    them back from the written set; the (num_images, N, 2) array is truth.
    Its images are float64, which `write_pgm` rounds to 16 bits and
    `load_dataset` reads back as float32.
    """
    cfg.validate()
    base = _base_positions(cfg)
    n_landmarks = len(cfg.landmarks)
    size = cfg.image_size
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    ids = []
    images = []
    with too_large(f"num_images = {cfg.num_images} is too large to hold its positions"):
        truth = np.empty((cfg.num_images, n_landmarks, 2))
        annotations = np.empty_like(truth)
    for i in range(cfg.num_images):
        rng = np.random.default_rng([cfg.seed, i])
        true = base + rng.uniform(-cfg.position_jitter, cfg.position_jitter,
                                  size=(n_landmarks, 2))
        image = np.zeros((size, size))
        for j, spec in enumerate(cfg.landmarks):
            image += _render_structure(xs, ys, true[j], spec, cfg.contrast)
        if cfg.noise_floor > 0:
            image += rng.normal(0.0, cfg.noise_floor, size=image.shape)
        np.clip(image, 0.0, 1.0, out=image)
        for j, spec in enumerate(cfg.landmarks):
            noise = AnisotropicGaussian(true[j], spec.noise, 1.0)
            annotations[i, j] = sample_gaussian(noise, 1, rng)[0]
        ids.append(f"img_{i:04d}")
        images.append(image)
        truth[i] = true
    return Dataset(ids, images, annotations, np.ones(cfg.num_images), n_landmarks), truth


def write_synth_dataset(out_dir, ds: Dataset, truth: np.ndarray, cfg: SynthConfig) -> str:
    """Write the standard dataset layout plus truth.csv and generator.cfg."""
    manifest = write_dataset(out_dir, ds.ids, ds.images, ds.coords,
                             ds.spacing, ds.landmark_count)
    truth_rows = [AnnotationRow(image_id, j, "", truth[i, j, 0], truth[i, j, 1])
                  for i, image_id in enumerate(ds.ids)
                  for j in range(ds.landmark_count)]
    write_annotations(os.path.join(out_dir, "truth.csv"), truth_rows)
    with open(os.path.join(out_dir, "generator.cfg"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(format_config(config_to_dict(cfg)))
    return manifest
