"""Fashion-MNIST-like synthetic garments: filled silhouettes of 10 classes.

Classes mirror Fashion-MNIST's: t-shirt, trouser, pullover, dress, coat,
sandal, shirt, sneaker, bag, ankle boot.  Several silhouettes deliberately
overlap (t-shirt vs shirt vs coat; sneaker vs sandal), reproducing the
harder-than-MNIST confusion structure of the real dataset.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..seeding import as_rng
from .synth import Dataset, add_noise, blank_canvas, fill_polygon, warp

CLASS_NAMES = ("tshirt", "trouser", "pullover", "dress", "coat", "sandal",
               "shirt", "sneaker", "bag", "boot")


def _poly(points):
    return np.array(points, dtype=float)


def _silhouette(label: int) -> list:
    """Polygons (normalized coords) composing a garment silhouette."""
    body = {
        0: [_poly([(0.25, 0.3), (0.25, 0.7), (0.8, 0.65), (0.8, 0.35)]),   # tshirt
            _poly([(0.25, 0.12), (0.25, 0.88), (0.42, 0.8), (0.42, 0.2)])],
        1: [_poly([(0.15, 0.35), (0.15, 0.48), (0.85, 0.44), (0.85, 0.34)]),  # trouser
            _poly([(0.15, 0.52), (0.15, 0.65), (0.85, 0.66), (0.85, 0.56)])],
        2: [_poly([(0.25, 0.28), (0.25, 0.72), (0.85, 0.68), (0.85, 0.32)]),  # pullover
            _poly([(0.25, 0.05), (0.25, 0.95), (0.75, 0.85), (0.75, 0.15)])],
        3: [_poly([(0.15, 0.42), (0.15, 0.58), (0.9, 0.78), (0.9, 0.22)])],   # dress
        4: [_poly([(0.18, 0.25), (0.18, 0.75), (0.92, 0.72), (0.92, 0.28)]),  # coat
            _poly([(0.18, 0.05), (0.18, 0.95), (0.85, 0.88), (0.85, 0.12)])],
        5: [_poly([(0.62, 0.1), (0.55, 0.75), (0.72, 0.75), (0.72, 0.1)]),    # sandal
            _poly([(0.45, 0.1), (0.52, 0.3), (0.62, 0.3), (0.55, 0.1)])],
        6: [_poly([(0.2, 0.3), (0.2, 0.7), (0.88, 0.66), (0.88, 0.34)]),      # shirt
            _poly([(0.2, 0.1), (0.2, 0.9), (0.5, 0.82), (0.5, 0.18)]),
            _poly([(0.2, 0.46), (0.2, 0.54), (0.45, 0.54), (0.45, 0.46)])],
        7: [_poly([(0.58, 0.05), (0.5, 0.6), (0.78, 0.95), (0.8, 0.15)])],    # sneaker
        8: [_poly([(0.35, 0.2), (0.3, 0.8), (0.85, 0.8), (0.85, 0.2)]),       # bag
            _poly([(0.18, 0.4), (0.3, 0.62), (0.38, 0.62), (0.25, 0.4)])],
        9: [_poly([(0.3, 0.45), (0.25, 0.68), (0.85, 0.68), (0.85, 0.45)]),   # boot
            _poly([(0.6, 0.1), (0.55, 0.5), (0.85, 0.5), (0.85, 0.1)])],
    }
    return body[label]


@functools.lru_cache(maxsize=None)
def _template(label: int, side: int) -> np.ndarray:
    """The undistorted silhouette of ``label``: filled once per process and
    side, read-only (it depends on nothing a sample draws)."""
    img = blank_canvas(side)
    s = side - 1
    for poly in _silhouette(label):
        fill_polygon(img, poly * s, value=0.85)
    img.flags.writeable = False
    return img


def render_garment(label: int, side: int = 16,
                   rng: Optional[np.random.Generator] = None,
                   distort: bool = True) -> np.ndarray:
    if not 0 <= label <= 9:
        raise ValueError(f"label must be 0..9, got {label}")
    img = _template(label, side)
    if not distort:
        return img.copy()
    rng = as_rng(rng)
    # garment fabric texture + shape variation
    img = img * rng.uniform(0.75, 1.0)
    img = warp(img, rng, max_shift=side / 12.0, max_rot=0.12,
               max_scale=0.15)
    return add_noise(img, rng, sigma=0.08)


def generate(n_samples: int, side: int = 16, seed: int = 0,
             classes=None) -> Dataset:
    """A deterministic Fashion-MNIST-like dataset."""
    rng = np.random.default_rng(seed)
    classes = list(range(10)) if classes is None else list(classes)
    labels = rng.choice(classes, size=n_samples)
    images = np.stack([render_garment(int(d), side=side, rng=rng)
                       for d in labels])
    return Dataset(images, labels.astype(np.int64), name="fashion_like")
