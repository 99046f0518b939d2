"""MNIST-like synthetic digits: stroke-rendered 0-9 with affine distortions.

Each digit class is a fixed template of line/arc strokes in normalized
coordinates, drawn once per image side; every sample applies a random
affine warp plus pixel noise to it, giving the intra-class variability of
handwriting at a difficulty calibrated to play MNIST's role (the easiest
of the four benchmarks).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..seeding import as_rng
from .synth import Dataset, add_noise, blank_canvas, draw_arc, draw_line, warp

# Templates in normalized (r, c) in [0, 1]; "line": (r0, c0, r1, c1);
# "arc": (cr, cc, radius, a0, a1) with angles in units of pi.
_TEMPLATES = {
    0: [("arc", 0.5, 0.5, 0.32, 0.0, 2.0)],
    1: [("line", 0.15, 0.55, 0.85, 0.5), ("line", 0.3, 0.4, 0.15, 0.55)],
    2: [("arc", 0.3, 0.5, 0.2, 1.0, 2.2), ("line", 0.42, 0.68, 0.85, 0.25),
        ("line", 0.85, 0.25, 0.85, 0.75)],
    3: [("arc", 0.3, 0.45, 0.18, 0.8, 2.3), ("arc", 0.68, 0.45, 0.2, 0.75, 2.25)],
    4: [("line", 0.15, 0.6, 0.6, 0.25), ("line", 0.6, 0.25, 0.6, 0.8),
        ("line", 0.15, 0.68, 0.85, 0.68)],
    5: [("line", 0.15, 0.7, 0.15, 0.3), ("line", 0.15, 0.3, 0.45, 0.3),
        ("arc", 0.62, 0.45, 0.22, 1.25, 2.6)],
    6: [("line", 0.15, 0.6, 0.55, 0.32), ("arc", 0.65, 0.5, 0.2, 0.0, 2.0)],
    7: [("line", 0.15, 0.25, 0.15, 0.75), ("line", 0.15, 0.75, 0.85, 0.35)],
    8: [("arc", 0.32, 0.5, 0.17, 0.0, 2.0), ("arc", 0.68, 0.5, 0.21, 0.0, 2.0)],
    9: [("arc", 0.35, 0.5, 0.2, 0.0, 2.0), ("line", 0.35, 0.7, 0.85, 0.6)],
}


@functools.lru_cache(maxsize=None)
def _template(digit: int, side: int) -> np.ndarray:
    """The undistorted strokes of ``digit``: drawn once per process and
    side, read-only (they depend on nothing a sample draws)."""
    img = blank_canvas(side)
    s = side - 1
    thickness = max(side / 14.0, 1.0)
    for prim in _TEMPLATES[digit]:
        if prim[0] == "line":
            _, r0, c0, r1, c1 = prim
            draw_line(img, r0 * s, c0 * s, r1 * s, c1 * s,
                      thickness=thickness)
        else:
            _, cr, cc, radius, a0, a1 = prim
            draw_arc(img, cr * s, cc * s, radius * s,
                     a0 * np.pi, a1 * np.pi, thickness=thickness)
    img.flags.writeable = False
    return img


def render_digit(digit: int, side: int = 16,
                 rng: Optional[np.random.Generator] = None,
                 distort: bool = True) -> np.ndarray:
    """Render one digit image in [0, 1] of shape ``(side, side)``."""
    if digit not in _TEMPLATES:
        raise ValueError(f"digit must be 0..9, got {digit}")
    img = _template(digit, side)
    if not distort:
        return img.copy()
    rng = as_rng(rng)
    img = warp(img, rng, max_shift=side / 12.0)
    return add_noise(img, rng, sigma=0.04)


def generate(n_samples: int, side: int = 16, seed: int = 0,
             classes=None) -> Dataset:
    """A deterministic MNIST-like dataset of ``n_samples`` images."""
    rng = np.random.default_rng(seed)
    classes = list(range(10)) if classes is None else list(classes)
    labels = rng.choice(classes, size=n_samples)
    images = np.stack([render_digit(int(d), side=side, rng=rng)
                       for d in labels])
    return Dataset(images, labels.astype(np.int64), name="mnist_like")
