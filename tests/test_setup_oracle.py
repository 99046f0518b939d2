"""The set-up path's bits, pinned to frozen copies of its code.

Every workload starts by generating a synthetic dataset and, for the
conv front end, pre-training it offline.  This file keeps that code as it
was written before its constants were cached: the stroke and polygon
renderers redraw each class's template for every sample, every renderer
builds its own index grid, ``im2col`` copies one kernel offset at a time,
and every conv layer computes its input gradient.  Those frozen copies
drive a twin of each output and the library must match it byte for byte
(``tobytes``, so signed zeros count): ``load_dataset`` for every
registered dataset over seeds, sample counts, sides and a class subset;
both template renderers for every class, distorted and not, including
how many values they draw; ``im2col`` over kernel/stride shapes; and the
pre-trained front end's weights, momenta, losses, feature scale and
features for greyscale and colour inputs, against a forward pass that
runs every image set whole.

The twins run in one process, so the oracle needs no recorded digest.
"""

import itertools
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.data import DATASETS, load_dataset
from repro.data import cifar_like, fashion_like, mnist_like, mstar_like, synth
from repro.data.synth import add_noise, blank_canvas, fill_polygon
from repro.models import ConvFrontend, PretrainResult, im2col, paper_topology
from repro.models.conv import ConvLayer, softmax_cross_entropy
from repro.seeding import as_rng

# ---------------------------------------------------------------------------
# Frozen renderers: every sample redraws its template
# ---------------------------------------------------------------------------


def oracle_draw_line(img: np.ndarray, r0: float, c0: float, r1: float,
                     c1: float, value: float = 1.0,
                     thickness: float = 1.2) -> None:
    side = img.shape[0]
    n = max(int(4 * side), 2)
    rs = np.linspace(r0, r1, n)
    cs = np.linspace(c0, c1, n)
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    for r, c in zip(rs[:: max(n // (2 * side), 1)], cs[:: max(n // (2 * side), 1)]):
        d2 = (rr - r) ** 2 + (cc - c) ** 2
        img += value * np.exp(-d2 / (2 * (thickness / 2.2) ** 2))
    np.clip(img, 0.0, 1.0, out=img)


def oracle_draw_arc(img: np.ndarray, cr: float, cc_: float, radius: float,
                    a0: float, a1: float, value: float = 1.0,
                    thickness: float = 1.2) -> None:
    side = img.shape[0]
    angles = np.linspace(a0, a1, max(int(6 * radius), 8))
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    for a in angles:
        r = cr + radius * np.sin(a)
        c = cc_ + radius * np.cos(a)
        d2 = (rr - r) ** 2 + (cc - c) ** 2
        img += value * np.exp(-d2 / (2 * (thickness / 2.2) ** 2))
    np.clip(img, 0.0, 1.0, out=img)


def oracle_warp(img: np.ndarray, rng: np.random.Generator,
                max_shift: float = 1.5, max_rot: float = 0.18,
                max_scale: float = 0.12) -> np.ndarray:
    side = img.shape[0]
    angle = rng.uniform(-max_rot, max_rot)
    scale = 1.0 + rng.uniform(-max_scale, max_scale)
    dr = rng.uniform(-max_shift, max_shift)
    dc = rng.uniform(-max_shift, max_shift)
    centre = (side - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    rrel = (rr - centre - dr) / scale
    crel = (cc - centre - dc) / scale
    cos_a, sin_a = np.cos(-angle), np.sin(-angle)
    src_r = np.round(centre + cos_a * rrel - sin_a * crel).astype(int)
    src_c = np.round(centre + sin_a * rrel + cos_a * crel).astype(int)
    valid = ((src_r >= 0) & (src_r < side) & (src_c >= 0) & (src_c < side))
    out = np.zeros_like(img)
    out[valid] = img[src_r[valid], src_c[valid]]
    return out


def oracle_render_digit(digit: int, side: int = 16,
                        rng: Optional[np.random.Generator] = None,
                        distort: bool = True) -> np.ndarray:
    if digit not in mnist_like._TEMPLATES:
        raise ValueError(f"digit must be 0..9, got {digit}")
    img = blank_canvas(side)
    s = side - 1
    thickness = max(side / 14.0, 1.0)
    for prim in mnist_like._TEMPLATES[digit]:
        if prim[0] == "line":
            _, r0, c0, r1, c1 = prim
            oracle_draw_line(img, r0 * s, c0 * s, r1 * s, c1 * s,
                             thickness=thickness)
        else:
            _, cr, cc, radius, a0, a1 = prim
            oracle_draw_arc(img, cr * s, cc * s, radius * s,
                            a0 * np.pi, a1 * np.pi, thickness=thickness)
    if distort:
        rng = as_rng(rng)
        img = oracle_warp(img, rng, max_shift=side / 12.0)
        img = add_noise(img, rng, sigma=0.04)
    return img


def oracle_render_garment(label: int, side: int = 16,
                          rng: Optional[np.random.Generator] = None,
                          distort: bool = True) -> np.ndarray:
    if not 0 <= label <= 9:
        raise ValueError(f"label must be 0..9, got {label}")
    img = blank_canvas(side)
    s = side - 1
    for poly in fashion_like._silhouette(label):
        fill_polygon(img, poly * s, value=0.85)
    if distort:
        rng = as_rng(rng)
        img = img * rng.uniform(0.75, 1.0)
        img = oracle_warp(img, rng, max_shift=side / 12.0, max_rot=0.12,
                          max_scale=0.15)
        img = add_noise(img, rng, sigma=0.08)
    return img


def oracle_render_object(label, side=16, rng=None):
    """``cifar_like.render_object`` with the frozen ``draw_arc`` (its
    rings); the rest of that renderer draws every shape per sample."""
    saved = cifar_like.draw_arc
    cifar_like.draw_arc = oracle_draw_arc
    try:
        return cifar_like.render_object(label, side=side, rng=rng)
    finally:
        cifar_like.draw_arc = saved


#: Each registered dataset's renderer as it was; ``mstar_like`` draws
#: through no code that the template cache or the shared grid touched.
ORACLE_RENDER = {"mnist_like": oracle_render_digit,
                 "fashion_like": oracle_render_garment,
                 "cifar_like": oracle_render_object,
                 "mstar_like": mstar_like.render_chip}


def oracle_generate(name, n_samples, side, seed, classes):
    rng = np.random.default_rng(seed)
    classes = list(range(10)) if classes is None else list(classes)
    labels = rng.choice(classes, size=n_samples)
    images = np.stack([ORACLE_RENDER[name](int(d), side=side, rng=rng)
                       for d in labels])
    return images, labels.astype(np.int64)


def _assert_same_bits(want: np.ndarray, have: np.ndarray, what=""):
    assert isinstance(have, np.ndarray), what
    assert (have.dtype, have.shape) == (want.dtype, want.shape), what
    assert np.array_equal(have, want), what
    assert have.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("side", [8, 16, 28])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_load_dataset_matches_the_oracle(name, side):
    for seed, n in itertools.product((0, 1, 7), (1, 5, 37)):
        train, test = load_dataset(name, n, n, side=side, seed=seed)
        for split, got in ((seed, train), (seed + 10_000, test)):
            images, labels = oracle_generate(name, n, side, split, None)
            what = f"{name} side={side} seed={split} n={n}"
            _assert_same_bits(images, got.images, what)
            _assert_same_bits(labels, got.labels, what)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_load_dataset_class_subset_matches_the_oracle(name):
    train, test = load_dataset(name, 37, 5, side=16, seed=3, classes=[1, 2])
    for split, n, got in ((3, 37, train), (10_003, 5, test)):
        images, labels = oracle_generate(name, n, 16, split, [1, 2])
        _assert_same_bits(images, got.images, name)
        _assert_same_bits(labels, got.labels, name)


RENDERERS = {"digit": (mnist_like.render_digit, oracle_render_digit),
             "garment": (fashion_like.render_garment,
                         oracle_render_garment)}


@pytest.mark.parametrize("side", [8, 16, 28])
@pytest.mark.parametrize("kind", sorted(RENDERERS))
def test_renderers_match_the_oracle(kind, side):
    render, oracle = RENDERERS[kind]
    for label in range(10):
        _assert_same_bits(oracle(label, side=side, distort=False),
                          render(label, side=side, distort=False), label)
        for seed in (0, 5):
            want_rng = np.random.default_rng(seed)
            have_rng = np.random.default_rng(seed)
            for _ in range(3):  # the same template again, warped anew
                _assert_same_bits(oracle(label, side=side, rng=want_rng),
                                  render(label, side=side, rng=have_rng),
                                  label)
            # The same values were drawn, in the same number.
            assert (want_rng.bit_generator.state
                    == have_rng.bit_generator.state)


@pytest.mark.parametrize("kind", sorted(RENDERERS))
def test_undistorted_image_is_the_callers_own(kind):
    render, oracle = RENDERERS[kind]
    img = render(3, side=16, distort=False)
    assert img.flags.writeable
    img[:] = -1.0
    _assert_same_bits(oracle(3, side=16, distort=False),
                      render(3, side=16, distort=False))
    _assert_same_bits(oracle(3, side=16, rng=np.random.default_rng(2)),
                      render(3, side=16, rng=np.random.default_rng(2)))


@pytest.mark.parametrize("module", [mnist_like, fashion_like],
                         ids=["digit", "garment"])
def test_cached_template_raises_on_write(module):
    template = module._template(3, 16)
    assert module._template(3, 16) is template
    with pytest.raises(ValueError, match="read-only"):
        template[0, 0] = 1.0
    rows, cols = synth._index_grid(16)
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1


# ---------------------------------------------------------------------------
# Frozen conv pre-training: k*k slice copies, every input gradient
# ---------------------------------------------------------------------------


def oracle_im2col(x: np.ndarray, kernel: int, stride: int
                  ) -> Tuple[np.ndarray, int, int]:
    n, h, w, c = x.shape
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    cols = np.empty((n, oh, ow, kernel * kernel * c), dtype=x.dtype)
    idx = 0
    for dr in range(kernel):
        for dc in range(kernel):
            patch = xp[:, dr:dr + stride * oh:stride,
                       dc:dc + stride * ow:stride, :]
            cols[..., idx * c:(idx + 1) * c] = patch
            idx += 1
    return cols, oh, ow


class OracleConvLayer(ConvLayer):
    """:class:`ConvLayer` with the frozen ``im2col`` and backward pass."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        cols, oh, ow = oracle_im2col(x, self.spec.kernel, self.spec.stride)
        z = cols @ self.weight + self.bias
        out = np.maximum(z, 0.0)
        if train:
            self._cache = (cols, z, x.shape)
        return out

    def backward(self, grad: np.ndarray, lr: float,
                 momentum: float) -> Optional[np.ndarray]:
        cols, z, x_shape = self._cache
        grad = grad * (z > 0)
        n = grad.shape[0]
        g2 = grad.reshape(-1, grad.shape[-1])
        c2 = cols.reshape(-1, cols.shape[-1])
        dw = c2.T @ g2 / n
        db = g2.mean(axis=0) * g2.shape[0] / n
        self.v_w = momentum * self.v_w - lr * dw
        self.v_b = momentum * self.v_b - lr * db
        self.weight += self.v_w
        self.bias += self.v_b
        dcols = g2 @ self.weight.T
        return self._col2im(dcols.reshape(cols.shape), x_shape)

    def _col2im(self, dcols: np.ndarray, x_shape) -> np.ndarray:
        n, h, w, c = x_shape
        k, stride = self.spec.kernel, self.spec.stride
        pad = k // 2
        dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
        _, oh, ow, _ = dcols.shape
        idx = 0
        for dr in range(k):
            for dc in range(k):
                dxp[:, dr:dr + stride * oh:stride,
                    dc:dc + stride * ow:stride, :] += \
                    dcols[..., idx * c:(idx + 1) * c]
                idx += 1
        return dxp[:, pad:pad + h, pad:pad + w, :]


class OracleFrontend(ConvFrontend):
    """:class:`ConvFrontend` on :class:`OracleConvLayer` with the frozen
    ``pretrain`` loop, which backpropagates through every conv layer, and
    the frozen forward, which runs every pass on the whole batch."""

    def __init__(self, topology: str, seed: int = 0):
        super().__init__(topology, seed=seed)
        for layer in self.conv_layers:
            layer.__class__ = OracleConvLayer

    def _conv_forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.conv_layers:
            x = layer.forward(x, train=train)
        return x.reshape(len(x), -1)

    def pretrain(self, images: np.ndarray, labels: np.ndarray,
                 epochs: int = 5, batch_size: int = 32, lr: float = 0.05,
                 momentum: float = 0.9) -> PretrainResult:
        x = self._ensure_nhwc(images)
        labels = np.asarray(labels, dtype=np.int64)
        losses: List[float] = []
        n = len(x)
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                feats = self._conv_forward(x[idx], train=True)
                logits = self.head.forward(feats, train=True)
                loss, grad = softmax_cross_entropy(logits, labels[idx])
                losses.append(loss)
                dfeat = self.head.backward(grad, lr, momentum)
                dfeat = dfeat.reshape((len(idx),) + self.feature_shape)
                for layer in reversed(self.conv_layers):
                    dfeat = layer.backward(dfeat, lr, momentum)
        feats = self._conv_forward(x)
        self.feature_scale = max(float(np.percentile(feats, 99)), 1e-6)
        preds = np.argmax(self.head.forward(feats), axis=1)
        return PretrainResult(
            train_accuracy=float((preds == labels).mean()), losses=losses)


@pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2), (5, 2),
                                           (4, 3)])
def test_im2col_matches_the_oracle(kernel, stride):
    rng = np.random.default_rng(kernel * 10 + stride)
    for shape, dtype in (((3, 11, 9, 2), np.float64), ((2, 8, 8, 1),
                                                        np.float64),
                         ((1, 7, 10, 3), np.float32)):
        x = rng.normal(size=shape).astype(dtype)
        x[0, 0, 0, 0] = -0.0
        want, want_oh, want_ow = oracle_im2col(x, kernel, stride)
        have, oh, ow = im2col(x, kernel, stride)
        assert (oh, ow) == (want_oh, want_ow)
        _assert_same_bits(want, have, shape)
        assert have.flags.c_contiguous and have.flags.writeable


def _pretrained(cls, topology, images, labels, seed):
    fe = cls(topology, seed=seed)
    res = fe.pretrain(images, labels, epochs=2, batch_size=32)
    out = {"losses": np.array(res.losses),
           "train_accuracy": np.array(res.train_accuracy),
           "feature_scale": np.array(fe.feature_scale),
           "features": fe.features(images),
           "head_w": fe.head.weight, "head_b": fe.head.bias,
           "head_v_w": fe.head.v_w, "head_v_b": fe.head.v_b}
    for i, layer in enumerate(fe.conv_layers):
        out.update({f"conv{i}_w": layer.weight, f"conv{i}_b": layer.bias,
                    f"conv{i}_v_w": layer.v_w, f"conv{i}_v_b": layer.v_b})
    return out


@pytest.mark.parametrize("dataset,side,channels", [
    ("mnist_like", 16, 1), ("mnist_like", 28, 1), ("cifar_like", 16, 3)])
def test_pretrain_matches_the_oracle(dataset, side, channels):
    # 70 samples: two full batches of 32 and a short one of 6; the
    # inference passes run a block of 64 images and one of 6.
    train, _ = load_dataset(dataset, 70, 1, side=side, seed=4)
    topology = paper_topology(side, channels)
    want = _pretrained(OracleFrontend, topology, train.images,
                       train.labels, seed=2)
    have = _pretrained(ConvFrontend, topology, train.images, train.labels,
                       seed=2)
    assert want.keys() == have.keys()
    for key in want:
        _assert_same_bits(want[key], have[key], key)
