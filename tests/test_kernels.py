"""Bit-identical equivalence suite for the kernel backends.

Every available backend (cext, numpy) must produce *exactly* the
same bits as the pure-NumPy reference — ``np.array_equal``, never
``allclose`` — across edge shapes: empty batches, single neurons, single
replicas, non-contiguous views, float32 and float64 state.  The golden
fixtures in ``tests/golden/kernels_golden.npz`` additionally pin the
learning-rule outputs to the values the reference produced when first
recorded, so a refactor that drifts the math by one ulp fails loudly.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.loihi.microcode import parse_rule

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "kernels_golden.npz"

AVAILABLE = kernels.available_backends()
COMPILED = tuple(b for b in AVAILABLE if b != "numpy")

FLOATS = (np.float64, np.float32)


def _run_on(backend, fn):
    with kernels.forced_backend(backend):
        return fn()


def _assert_backends_identical(fn):
    """``fn()`` (returning a tuple of arrays) is bitwise backend-invariant."""
    ref = _run_on("numpy", fn)
    for backend in AVAILABLE:
        got = _run_on(backend, fn)
        assert len(got) == len(ref)
        for i, (r, g) in enumerate(zip(ref, got)):
            assert g.dtype == r.dtype, (backend, i)
            assert g.shape == r.shape, (backend, i)
            assert np.array_equal(g, r), \
                f"{backend} output {i} differs from numpy reference"


def _noncontig(arr):
    """Embed ``arr`` in a larger buffer so the view is non-contiguous."""
    if arr.ndim == 1:
        base = np.zeros(arr.shape[0] * 2, dtype=arr.dtype)
        view = base[::2]
    else:
        base = np.zeros((arr.shape[0], arr.shape[1] * 2), dtype=arr.dtype)
        view = base[:, ::2]
    view[...] = arr
    assert not view.flags.c_contiguous or view.size <= 1
    return view


# ----------------------------------------------------------------------
# Cross-backend bit identity
# ----------------------------------------------------------------------

class TestIFStep:
    SHAPES = [(0,), (1,), (7,), (0, 4), (1, 5), (3, 17)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("soft_reset", [True, False])
    def test_multistep_identity(self, shape, dtype, soft_reset):
        rng = np.random.default_rng(7)
        drives = rng.uniform(-0.5, 1.5, (6,) + shape)

        def run():
            v = np.zeros(shape, dtype=dtype)
            refrac = np.zeros(shape, dtype=np.int64)
            spikes = [kernels.if_step(v, refrac, d.astype(dtype), 0.75,
                                      soft_reset=soft_reset, refractory=2)
                      for d in drives]
            return (v, refrac, *spikes)

        _assert_backends_identical(run)

    def test_grid_exact_drive(self):
        """A drive exactly on the 1/T grid must spike identically."""
        def run():
            v = np.zeros(8)
            refrac = np.zeros(8, dtype=np.int64)
            spikes = [kernels.if_step(v, refrac, np.full(8, 0.25), 1.0)
                      for _ in range(8)]
            return (v, *spikes)

        _assert_backends_identical(run)

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_noncontiguous_state(self, dtype):
        rng = np.random.default_rng(11)
        v0 = rng.uniform(0, 1, (4, 6)).astype(dtype)

        def run():
            v = _noncontig(v0.copy())
            refrac = np.zeros((4, 6), dtype=np.int64)
            s = kernels.if_step(v, refrac, np.full((4, 6), 0.4, dtype=dtype),
                                0.75)
            return (np.ascontiguousarray(v), s)

        _assert_backends_identical(run)


class TestCubaStep:
    CONFIGS = [
        # (decay_u, decay_v, soft_reset, refractory, floor, non_spiking)
        (4096, 0, True, 0, True, False),      # paper's IF configuration
        (512, 128, True, 2, True, False),     # generic CUBA LIF
        (512, 128, False, 0, False, False),   # hard reset, signed membrane
        (4096, 0, True, 0, True, True),       # compare-only aux compartment
    ]

    @pytest.mark.parametrize("shape", [(0,), (1,), (6,), (3, 9)])
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_multistep_identity(self, shape, cfg):
        decay_u, decay_v, soft, refr, floor, non_spiking = cfg
        rng = np.random.default_rng(13)
        syn = rng.integers(-4000, 9000, (5,) + shape)
        bias = rng.integers(0, 2000, shape)

        def run():
            u = np.zeros(shape, dtype=np.int64)
            v = np.zeros(shape, dtype=np.int64)
            refrac = np.zeros(shape, dtype=np.int64)
            fired = [kernels.cuba_step(u, v, refrac, bias, s, decay_u,
                                       decay_v, 256 << 6, soft_reset=soft,
                                       refractory=refr, floor_at_zero=floor,
                                       non_spiking=non_spiking)
                     for s in syn]
            return (u, v, refrac, *fired)

        _assert_backends_identical(run)

    def test_noncontiguous_state(self):
        rng = np.random.default_rng(17)
        u0 = rng.integers(0, 5000, (3, 8))
        v0 = rng.integers(0, 20000, (3, 8))

        def run():
            u = _noncontig(u0.copy())
            v = _noncontig(v0.copy())
            refrac = np.zeros((3, 8), dtype=np.int64)
            fired = kernels.cuba_step(u, v, refrac, 0, 6000, 512, 128,
                                      256 << 6)
            return (np.ascontiguousarray(u), np.ascontiguousarray(v), fired)

        _assert_backends_identical(run)


class TestTraceUpdate:
    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (1, 6), (4, 11)])
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("impulse,decay", [(1, 1.0), (16, 0.7),
                                               (127, 0.5)])
    def test_multistep_identity(self, shape, dtype, impulse, decay):
        rng = np.random.default_rng(19)
        spikes = rng.random((6,) + shape) < 0.4

        def run():
            values = np.zeros(shape, dtype=dtype)
            for s in spikes:
                kernels.trace_update(values, s, impulse, decay, 127)
            return (values,)

        _assert_backends_identical(run)

    def test_noncontiguous_state(self):
        rng = np.random.default_rng(23)
        v0 = rng.uniform(0, 100, (3, 10))

        def run():
            values = _noncontig(v0.copy())
            kernels.trace_update(values, v0 > 50, 16, 0.9, 127)
            return (np.ascontiguousarray(values),)

        _assert_backends_identical(run)


class TestDeltaW:
    @pytest.mark.parametrize("n_pre,n_post", [(0, 4), (4, 0), (1, 1),
                                              (31, 17)])
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_eq7_identity(self, n_pre, n_post, dtype):
        rng = np.random.default_rng(29)
        h_hat = rng.random(n_post).astype(dtype)
        h = rng.random(n_post).astype(dtype)
        pre = rng.random(n_pre).astype(dtype)

        _assert_backends_identical(
            lambda: (kernels.delta_w(h_hat, h, pre, 0.1),))

    @pytest.mark.parametrize("B", [0, 1, 2, 16])
    @pytest.mark.parametrize("dtype", FLOATS)
    def test_eq7_batch_identity(self, B, dtype):
        rng = np.random.default_rng(31)
        h_hat = rng.random((B, 13)).astype(dtype)
        h = rng.random((B, 13)).astype(dtype)
        pre = rng.random((B, 9)).astype(dtype)

        _assert_backends_identical(
            lambda: (kernels.delta_w_batch(h_hat, h, pre, 0.1, mean=False),))
        if B > 0:
            _assert_backends_identical(
                lambda: (kernels.delta_w_batch(h_hat, h, pre, 0.1,
                                               mean=True),))

    def test_empty_batch_mean_raises_on_every_backend(self):
        empty = np.zeros((0, 5))
        for backend in AVAILABLE:
            with kernels.forced_backend(backend):
                with pytest.raises(ValueError, match="empty batch"):
                    kernels.delta_w_batch(empty, empty, np.zeros((0, 3)),
                                          0.1, mean=True)

    @pytest.mark.parametrize("n_pre,n_post", [(0, 4), (1, 1), (31, 17)])
    def test_eq12_identity(self, n_pre, n_post):
        rng = np.random.default_rng(37)
        h_hat = rng.random(n_post)
        z = rng.random(n_post) * 2
        pre = rng.random(n_pre)

        _assert_backends_identical(
            lambda: (kernels.delta_w_loihi(h_hat, z, pre, 0.25),))


class TestSumOfProducts:
    RULES = ["dt = y1",
             "dw = 2^-2 * y1 * x1 - 2^-3 * t * x1",
             "dw = 2^-4 * y1 * (x1 + 2) - 2^-6 * t * w + 3"]

    @pytest.mark.parametrize("rule_text", RULES)
    @pytest.mark.parametrize("R,S,D", [(None, 1, 1), (None, 12, 7),
                                       (1, 5, 4), (3, 12, 7)])
    def test_identity(self, rule_text, R, S, D):
        rng = np.random.default_rng(41)
        pre_shape = (S,) if R is None else (R, S)
        post_shape = (D,) if R is None else (R, D)
        syn_shape = (S, D) if R is None else (R, S, D)
        x0 = (rng.random(pre_shape) < 0.5).astype(np.int64)
        x1 = rng.integers(0, 128, pre_shape)
        y0 = (rng.random(post_shape) < 0.5).astype(np.int64)
        y1 = rng.integers(0, 128, post_shape)
        tag = rng.integers(-255, 256, syn_shape)
        w = rng.integers(-127, 128, syn_shape)
        rule = parse_rule(rule_text)

        _assert_backends_identical(
            lambda: (kernels.sum_of_products(rule, x0, x1, y0, y1, tag, w),))


# ----------------------------------------------------------------------
# Golden regression fixtures
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return np.load(GOLDEN)


@pytest.mark.parametrize("backend", AVAILABLE)
class TestGoldenFixtures:
    """Every backend must reproduce the recorded reference outputs exactly."""

    def test_eq7(self, golden, backend):
        with kernels.forced_backend(backend):
            dw = kernels.delta_w(golden["eq7_h_hat"], golden["eq7_h"],
                                 golden["eq7_pre"], float(golden["eq7_eta"]))
        assert np.array_equal(dw, golden["eq7_dw"])

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_eq7_batch(self, golden, backend, reduction):
        with kernels.forced_backend(backend):
            dw = kernels.delta_w_batch(
                golden["eq7b_h_hat"], golden["eq7b_h"], golden["eq7b_pre"],
                float(golden["eq7b_eta"]), mean=(reduction == "mean"))
        assert np.array_equal(dw, golden[f"eq7b_dw_{reduction}"])

    def test_eq12(self, golden, backend):
        with kernels.forced_backend(backend):
            dw = kernels.delta_w_loihi(golden["eq12_h_hat"], golden["eq12_z"],
                                       golden["eq12_pre"],
                                       float(golden["eq12_eta"]))
        assert np.array_equal(dw, golden["eq12_dw"])

    @pytest.mark.parametrize("case", ["sop1", "sopR"])
    def test_microcode(self, golden, backend, case):
        rules = [parse_rule(str(t)) for t in golden["rules"]]
        with kernels.forced_backend(backend):
            for k, rule in enumerate(rules):
                dz = kernels.sum_of_products(
                    rule, golden[f"{case}_x0"], golden[f"{case}_x1"],
                    golden[f"{case}_y0"], golden[f"{case}_y1"],
                    golden[f"{case}_t"], golden[f"{case}_w"])
                assert np.array_equal(dz, golden[f"{case}_dz{k}"]), \
                    f"rule {k} drifted from the golden fixture"


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

@pytest.fixture
def restore_backend():
    # Restore the module state directly: this teardown runs before
    # monkeypatch undoes its loader patches, so select_backend() could
    # not re-import the previously active backend here.
    previous_name, previous_impl = kernels._active_name, kernels._active_impl
    yield
    kernels._active_name, kernels._active_impl = previous_name, previous_impl


class TestBackendSelection:
    def test_active_backend_is_known(self):
        assert kernels.backend_name() in kernels.BACKENDS
        assert "numpy" in AVAILABLE  # the fallback always loads

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.select_backend("fortran")

    def test_explicitly_requested_unavailable_backend_raises(
            self, monkeypatch, restore_backend):
        def boom():
            raise ImportError("no C compiler")
        monkeypatch.setitem(kernels._LOADERS, "cext", boom)
        with pytest.raises(ImportError, match="requested explicitly"):
            kernels.select_backend("cext")

    def test_autodetect_degrades_to_numpy_with_single_warning(
            self, monkeypatch, restore_backend):
        def boom():
            raise ImportError("unavailable in this test")
        monkeypatch.setitem(kernels._LOADERS, "cext", boom)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            name = kernels.select_backend(None)
        assert name == "numpy"
        assert kernels.backend_name() == "numpy"
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "falling back to pure-NumPy" in str(relevant[0].message)

    def test_forced_backend_restores_previous(self):
        before = kernels.backend_name()
        with kernels.forced_backend("numpy"):
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before

    def test_fused_network_run_only_on_compiled_backends(self):
        with kernels.forced_backend("numpy"):
            assert not kernels.backend_provides("network_run")
            with pytest.raises(NotImplementedError, match="one timestep"):
                kernels.network_run(1, 1, *([None] * 7), 127.0)
        for backend in COMPILED:
            with kernels.forced_backend(backend):
                assert kernels.backend_provides("network_run")

    @pytest.mark.skipif("cext" not in AVAILABLE, reason="needs a C compiler")
    def test_network_run_rejects_malformed_tables(self):
        empty = {name: np.zeros((0, len(fields)), dtype=dtype)
                 for name, fields, dtype in (
                     ("groups", kernels.NETWORK_GROUP_FIELDS, np.int64),
                     ("group_arrays", kernels.NETWORK_GROUP_ARRAYS, np.uintp),
                     ("conns", kernels.NETWORK_CONN_FIELDS, np.int64),
                     ("conn_traces", kernels.NETWORK_CONN_TRACE_FIELDS,
                      np.float64),
                     ("conn_arrays", kernels.NETWORK_CONN_ARRAYS, np.uintp))}
        counters = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with kernels.forced_backend("cext"):
            kernels.network_run(3, 1, *empty.values(), *counters, 127.0)
            bad = dict(empty, groups=np.zeros((0, 3), dtype=np.int64))
            with pytest.raises(TypeError, match="groups"):
                kernels.network_run(3, 1, *bad.values(), *counters, 127.0)
            with pytest.raises(TypeError, match="conn_events"):
                kernels.network_run(3, 1, *empty.values(), counters[0],
                                    np.zeros(1, dtype=np.int64), 127.0)
            # One real group, then a connection from a group that does
            # not exist: rejected before any address is dereferenced.
            state = np.zeros(4, dtype=np.int64)
            spikes, mask = np.zeros(4, dtype=bool), np.ones(4, dtype=bool)
            fields = kernels.NETWORK_GROUP_FIELDS
            group = np.zeros((1, len(fields)), dtype=np.int64)
            group[0, fields.index("n")] = 4
            group[0, fields.index("gate")] = -1
            group[0, fields.index("merge")] = -1
            by_name = dict.fromkeys(kernels.NETWORK_GROUP_ARRAYS, state)
            by_name.update(spikes=spikes, mask=mask)
            arrays = np.array([[by_name[name].ctypes.data
                                for name in kernels.NETWORK_GROUP_ARRAYS]],
                              dtype=np.uintp)
            conn_fields = kernels.NETWORK_CONN_FIELDS
            conn = np.zeros((1, len(conn_fields)), dtype=np.int64)
            conn[0, conn_fields.index("src")] = 3
            conn[0, conn_fields.index("weight_scale")] = 1
            conn_arrays = np.zeros(
                (1, len(kernels.NETWORK_CONN_ARRAYS)), dtype=np.uintp)
            conn_arrays[0, kernels.NETWORK_CONN_ARRAYS.index("weight")] = \
                state.ctypes.data
            with pytest.raises(ValueError, match="out-of-range"):
                kernels.network_run(
                    3, 1, group, arrays, conn,
                    np.zeros((1, len(kernels.NETWORK_CONN_TRACE_FIELDS))),
                    conn_arrays, np.zeros(1, np.int64),
                    np.zeros(1, np.int64), 127.0)


@pytest.mark.skipif("cext" not in AVAILABLE, reason="needs a C compiler")
class TestCextBuildCache:
    def test_cpu_fingerprint_keys_the_library(self, monkeypatch, tmp_path):
        """A library built for another CPU is never loaded: the host CPU
        is part of the cache key (``-march=native`` is tried first)."""
        from repro.core.kernels import _cext

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        assert _cext._cpu_fingerprint() == _cext._cpu_fingerprint()
        cc = _cext._find_compiler()
        candidates = {}
        for cpu in (_cext._cpu_fingerprint(), "another-cpu"):
            candidates[cpu] = {_cext._lib_path(cc, flags, cpu).name
                               for flags in (_cext.CFLAGS + _cext.OPT_FLAGS,
                                             _cext.CFLAGS)}
        assert not candidates["another-cpu"] & candidates[
            _cext._cpu_fingerprint()]
        monkeypatch.setattr(_cext, "_cpu_fingerprint", lambda: "another-cpu")
        _cext._build()
        built = [p.name for p in tmp_path.glob("*.so")]
        assert len(built) == 1 and built[0] in candidates["another-cpu"]
        # The .c was written through a temporary file and moved into
        # place: only the source and the library remain.
        stem = built[0][:-len(".so")]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem}.c", f"{stem}.so"]


class TestEnvOverride:
    """The REPRO_KERNEL_BACKEND variable is honored at import time."""

    def _import_with_env(self, value):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO / "src"),
                   REPRO_KERNEL_BACKEND=value)
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.core import kernels; print(kernels.backend_name())"],
            capture_output=True, text=True, env=env)

    def test_env_override_wins(self):
        proc = self._import_with_env("numpy")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_unknown_env_value_fails_import_with_clear_error(self):
        proc = self._import_with_env("cuda")
        assert proc.returncode != 0
        assert "unknown kernel backend 'cuda'" in proc.stderr
        assert "REPRO_KERNEL_BACKEND" in proc.stderr

    @pytest.mark.parametrize("backend", COMPILED)
    def test_compiled_backends_selectable_via_env(self, backend):
        proc = self._import_with_env(backend)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == backend
