"""Shared machinery for the synthetic dataset generators.

The paper evaluates on MNIST, Fashion-MNIST, CIFAR-10 and MSTAR.  None of
those datasets can be downloaded in this environment, so :mod:`repro.data`
provides deterministic *parametric generators* producing 10-class image
tasks with the same roles: graded difficulty (digits easiest, CIFAR-like
hardest), intra-class variation, and streaming (batch-1) access.  The
package docstring maps each paper dataset to its stand-in.

All generators return images in ``[0, 1]`` with shape ``(H, W)`` or
``(H, W, C)`` and integer labels; every sample is a pure function of
``(seed, index)`` so train/test splits are reproducible and disjoint.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator, Tuple

import numpy as np


def make_blobs(n_features: int, n_classes: int, n_samples: int, seed: int,
               noise: float = 0.08, task_seed: int = 77):
    """Clipped Gaussian blobs in ``[0, 1]^d`` with one mean per class.

    ``task_seed`` fixes the class means so different ``seed`` values draw
    train/test splits from the *same* underlying task.  The single shared
    generator behind the unit-test fixtures and the throughput benchmarks —
    one definition of "the blob task", not one copy per harness.
    """
    means = np.random.default_rng(task_seed).uniform(
        0.2, 0.8, size=(n_classes, n_features))
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, n_classes, n_samples)
    xs = np.clip(means[ys] + rng.normal(0, noise, (n_samples, n_features)),
                 0, 1)
    return xs, ys


@dataclasses.dataclass
class Dataset:
    """An in-memory image classification dataset."""

    images: np.ndarray
    labels: np.ndarray
    name: str = ""
    n_classes: int = 10

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have equal length")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> Tuple[int, ...]:
        return self.images.shape[1:]

    def flat(self) -> np.ndarray:
        """Images flattened to vectors (dense-network input)."""
        return self.images.reshape(len(self.images), -1)

    def stream(self) -> Iterator[Tuple[np.ndarray, int]]:
        """Online-learning view: one (image, label) at a time."""
        for img, lab in zip(self.images, self.labels):
            yield img, int(lab)

    def subset(self, class_ids) -> "Dataset":
        """Samples whose label is in ``class_ids`` (incremental learning)."""
        mask = np.isin(self.labels, list(class_ids))
        return Dataset(self.images[mask], self.labels[mask],
                       name=self.name, n_classes=self.n_classes)

    def take(self, n: int) -> "Dataset":
        return Dataset(self.images[:n], self.labels[:n], name=self.name,
                       n_classes=self.n_classes)


def blank_canvas(side: int) -> np.ndarray:
    return np.zeros((side, side), dtype=float)


@functools.lru_cache(maxsize=None)
def _index_grid(side: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column index of every pixel; one read-only pair per side."""
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    rr.flags.writeable = False
    cc.flags.writeable = False
    return rr, cc


def draw_line(img: np.ndarray, r0: float, c0: float, r1: float, c1: float,
              value: float = 1.0, thickness: float = 1.2) -> None:
    """Anti-aliased thick line segment drawn in place."""
    side = img.shape[0]
    n = max(int(4 * side), 2)
    rs = np.linspace(r0, r1, n)
    cs = np.linspace(c0, c1, n)
    rr, cc = _index_grid(side)
    for r, c in zip(rs[:: max(n // (2 * side), 1)], cs[:: max(n // (2 * side), 1)]):
        d2 = (rr - r) ** 2 + (cc - c) ** 2
        img += value * np.exp(-d2 / (2 * (thickness / 2.2) ** 2))
    np.clip(img, 0.0, 1.0, out=img)


def draw_arc(img: np.ndarray, cr: float, cc_: float, radius: float,
             a0: float, a1: float, value: float = 1.0,
             thickness: float = 1.2) -> None:
    """Anti-aliased arc from angle ``a0`` to ``a1`` (radians)."""
    side = img.shape[0]
    angles = np.linspace(a0, a1, max(int(6 * radius), 8))
    rr, cc = _index_grid(side)
    for a in angles:
        r = cr + radius * np.sin(a)
        c = cc_ + radius * np.cos(a)
        d2 = (rr - r) ** 2 + (cc - c) ** 2
        img += value * np.exp(-d2 / (2 * (thickness / 2.2) ** 2))
    np.clip(img, 0.0, 1.0, out=img)


def fill_polygon(img: np.ndarray, vertices: np.ndarray,
                 value: float = 1.0) -> None:
    """Fill a convex polygon given ``(row, col)`` vertices, in place."""
    side = img.shape[0]
    rr, cc = np.meshgrid(np.arange(side) + 0.5, np.arange(side) + 0.5,
                         indexing="ij")
    inside = np.ones((side, side), dtype=bool)
    n = len(vertices)
    for i in range(n):
        r0, c0 = vertices[i]
        r1, c1 = vertices[(i + 1) % n]
        cross = (r1 - r0) * (cc - c0) - (c1 - c0) * (rr - r0)
        inside &= cross <= 0
    img[inside] = np.maximum(img[inside], value)


def warp(img: np.ndarray, rng: np.random.Generator, max_shift: float = 1.5,
         max_rot: float = 0.18, max_scale: float = 0.12) -> np.ndarray:
    """Random affine distortion (rotation, scale, translation).

    Uses inverse-mapped nearest-neighbour sampling — crude but dependency
    free, and at 16-28 px it matches the roughness of handwritten strokes.
    """
    side = img.shape[0]
    angle = rng.uniform(-max_rot, max_rot)
    scale = 1.0 + rng.uniform(-max_scale, max_scale)
    dr = rng.uniform(-max_shift, max_shift)
    dc = rng.uniform(-max_shift, max_shift)
    centre = (side - 1) / 2.0
    rr, cc = _index_grid(side)
    rrel = (rr - centre - dr) / scale
    crel = (cc - centre - dc) / scale
    cos_a, sin_a = np.cos(-angle), np.sin(-angle)
    src_r = np.round(centre + cos_a * rrel - sin_a * crel).astype(int)
    src_c = np.round(centre + sin_a * rrel + cos_a * crel).astype(int)
    valid = ((src_r >= 0) & (src_r < side) & (src_c >= 0) & (src_c < side))
    out = np.zeros_like(img)
    out[valid] = img[src_r[valid], src_c[valid]]
    return out


def add_noise(img: np.ndarray, rng: np.random.Generator,
              sigma: float = 0.05) -> np.ndarray:
    return np.clip(img + rng.normal(0, sigma, img.shape), 0.0, 1.0)
