"""Synthetic stand-ins for the paper's four datasets.

MNIST, Fashion-MNIST, CIFAR-10 and MSTAR cannot be downloaded in this
offline environment, so each is replaced by a deterministic parametric
generator that plays its role, at the paper's difficulty ordering
(digits easiest, CIFAR-like hardest).  ``PAPER_MAPPING`` resolves the
paper's names and ``load_dataset`` accepts either:

================  ================  =====================================
Paper dataset     Stand-in          Role
================  ================  =====================================
MNIST             ``mnist_like``    stroke-drawn digits, warped and noised
                                    per sample; Table I, Table II, Fig. 4,
                                    the ablations and every ``perfbench``
                                    workload
Fashion-MNIST     ``fashion_like``  filled garment silhouettes, some
                                    classes overlapping; Table I and the
                                    ``t_sweep`` and ``noise_robustness``
                                    sweeps
CIFAR10           ``cifar_like``    colour objects on textured clutter,
                                    3 channels, the hardest task; Table I
                                    and the full ``noise_robustness``
                                    sweep
MSTAR (10 class)  ``mstar_like``    SAR vehicle chips with speckle and a
                                    radar shadow; Table I and
                                    ``examples/mstar_sar.py``
================  ================  =====================================

Every sample is a pure function of ``(seed, index)``; ``load_dataset``
draws the test split from a derived seed, so the splits are disjoint.
"""

from .cifar_like import generate as generate_cifar_like
from .corruption import CORRUPTIONS, corrupt_dataset, corrupt_images
from .fashion_like import generate as generate_fashion_like
from .loaders import DATASETS, PAPER_MAPPING, load_dataset
from .mnist_like import generate as generate_mnist_like, render_digit
from .mstar_like import generate as generate_mstar_like, render_chip
from .synth import Dataset, make_blobs

__all__ = ["CORRUPTIONS", "DATASETS", "Dataset", "PAPER_MAPPING",
           "corrupt_dataset", "corrupt_images", "generate_cifar_like",
           "generate_fashion_like", "generate_mnist_like",
           "generate_mstar_like", "load_dataset", "make_blobs",
           "render_chip", "render_digit"]
