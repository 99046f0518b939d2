"""Bit-identical equivalence suite for the kernel backends.

Every available backend (cext, numpy) must produce *exactly* the
same bits as the pure-NumPy reference — ``np.array_equal``, never
``allclose`` — across edge shapes: empty batches, single neurons, single
replicas.  The golden fixtures in ``tests/golden/kernels_golden.npz``
additionally pin the learning-rule outputs to the values the reference
produced when first recorded, so a refactor that drifts the math by one
ulp fails loudly.  Every backend rejects the same malformed operands.
"""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.learning import delta_w_loihi_form
from repro.loihi.microcode import parse_rule

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "kernels_golden.npz"

AVAILABLE = kernels.available_backends()
COMPILED = tuple(b for b in AVAILABLE if b != "numpy")


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


# ----------------------------------------------------------------------
# Cross-backend bit identity
# ----------------------------------------------------------------------

class TestIFStep:
    SHAPES = [(0,), (1,), (7,), (0, 4), (1, 5), (3, 17)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_multistep_identity(self, shape):
        rng = np.random.default_rng(7)
        drives = rng.uniform(-0.5, 1.5, (6,) + shape)

        def run():
            v = np.zeros(shape)
            spikes = [kernels.if_step(v, d) for d in drives]
            return (v, *spikes)

        _assert_backends_identical(run)

    def test_grid_exact_drive(self):
        """A drive exactly on the 1/T grid must spike identically."""
        def run():
            v = np.zeros(8)
            spikes = [kernels.if_step(v, np.full(8, 0.25)) for _ in range(8)]
            return (v, *spikes)

        _assert_backends_identical(run)


class TestCubaStep:
    #: Every (floor_at_zero, non_spiking) pair the kernel takes; the
    #: builder programs all but the second.
    CONFIGS = [
        (True, False),    # error, label, correction and dendrite groups
        (False, True),    # signed membrane that only integrates
        (False, False),   # forward groups: signed membrane
        (True, True),     # compare-only aux compartment
    ]

    @pytest.mark.parametrize("shape", [(0,), (1,), (6,), (3, 9)])
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_multistep_identity(self, shape, cfg):
        floor, non_spiking = cfg
        rng = np.random.default_rng(13)
        syn = rng.integers(-4000, 9000, (5,) + shape)
        bias = rng.integers(0, 2000, shape)

        def run():
            v = np.zeros(shape, dtype=np.int64)
            fired = [kernels.cuba_step(v, bias, s, 256 << 6, floor,
                                       non_spiking)
                     for s in syn]
            return (v, *fired)

        _assert_backends_identical(run)


class TestTraceUpdate:
    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (1, 6), (4, 11)])
    def test_multistep_identity(self, shape):
        """Counting from 120 runs some registers into the 127 ceiling."""
        rng = np.random.default_rng(19)
        spikes = rng.random((12,) + shape) < 0.6

        def run():
            values = np.full(shape, 120, dtype=np.int64)
            for s in spikes:
                kernels.trace_update(values, s, 127)
            return (values,)

        _assert_backends_identical(run)


class TestDeltaW:
    @pytest.mark.parametrize("n_pre,n_post", [(0, 4), (4, 0), (1, 1),
                                              (31, 17)])
    def test_eq7_identity(self, n_pre, n_post):
        rng = np.random.default_rng(29)
        h_hat = rng.random(n_post)
        h = rng.random(n_post)
        pre = rng.random(n_pre)

        _assert_backends_identical(
            lambda: (kernels.delta_w(h_hat, h, pre, 0.1),))

    @pytest.mark.parametrize("B", [0, 1, 2, 16])
    def test_eq7_batch_identity(self, B):
        rng = np.random.default_rng(31)
        h_hat = rng.random((B, 13))
        h = rng.random((B, 13))
        pre = rng.random((B, 9))

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
        """Eq. (12) is plain NumPy (no kernel) under every backend."""
        with kernels.forced_backend(backend):
            dw = delta_w_loihi_form(golden["eq12_h_hat"], golden["eq12_z"],
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
# Operand checks
# ----------------------------------------------------------------------

#: Kernels that update their first operand in place.  It may have any
#: shape, and the other operands must then have that shape.
_IN_PLACE = ("if_step", "cuba_step", "trace_update")


def _per_step_kernels():
    """kernel -> (conforming operands by name, call)."""
    i64 = np.int64
    return {
        "if_step": (
            dict(v=np.full((2, 3), 0.5), drive=np.full((2, 3), 0.75)),
            lambda o: kernels.if_step(o["v"], o["drive"])),
        "cuba_step": (
            dict(v=np.full(4, 9, i64), bias=np.full(4, 3, i64),
                 syn_input=np.full(4, 70, i64)),
            lambda o: kernels.cuba_step(o["v"], o["bias"], o["syn_input"],
                                        64, True, False)),
        "trace_update": (
            dict(values=np.full(5, 4, dtype=i64),
                 spikes=np.ones(5, dtype=bool)),
            lambda o: kernels.trace_update(o["values"], o["spikes"], 127)),
        "delta_w": (
            dict(h_hat_post=np.ones(3), h_post=np.zeros(3),
                 h_pre=np.ones(2)),
            lambda o: kernels.delta_w(o["h_hat_post"], o["h_post"],
                                      o["h_pre"], 0.1)),
        "delta_w_batch": (
            dict(h_hat_post=np.ones((2, 3)), h_post=np.zeros((2, 3)),
                 h_pre=np.ones((2, 4))),
            lambda o: kernels.delta_w_batch(o["h_hat_post"], o["h_post"],
                                            o["h_pre"], 0.1)),
    }


_MALFORMED = {
    "a non-contiguous view": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "float32": lambda a: a.astype(np.float32),
    "int32": lambda a: a.astype(np.int32),
    "a wrong shape": lambda a: a[None],
    "a list": lambda a: a.tolist(),
}


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("kernel", sorted(_per_step_kernels()))
def test_per_step_kernels_reject_malformed_operands(backend, kernel):
    """Every per-step kernel takes only C-contiguous arrays of its dtype
    and shape: anything else raises TypeError naming the operand, before
    any state array changes.  Conforming operands pass straight through."""
    good, call = _per_step_kernels()[kernel]
    leader = next(iter(good))
    with kernels.forced_backend(backend):
        for name in good:
            for what, malform in _MALFORMED.items():
                if name == leader and what == "a wrong shape" \
                        and kernel in _IN_PLACE:
                    continue
                ops = {k: a.copy() for k, a in good.items()}
                ops[name] = malform(ops[name])
                before = {k: np.array(a) for k, a in ops.items()}
                with pytest.raises(TypeError, match=f"^{name} must be"):
                    call(ops)
                for k, a in ops.items():
                    assert np.array_equal(a, before[k]), (name, what, k)
        ops = {k: a.copy() for k, a in good.items()}
        call(ops)
        if kernel in _IN_PLACE:  # the rejected calls would have moved it
            assert not np.array_equal(ops[leader], good[leader])


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
        fused = {"network_run": lambda: kernels.network_run(
                     1, 1, *([None] * 6), 127.0),
                 "spike_present": lambda: kernels.spike_present(
                     (2, 1), 1, None, None, None)}
        for name, call in fused.items():
            with kernels.forced_backend("numpy"):
                assert not kernels.backend_provides(name)
                with pytest.raises(NotImplementedError, match="one timestep"):
                    call()
            for backend in COMPILED:
                with kernels.forced_backend(backend):
                    assert kernels.backend_provides(name)

    @pytest.mark.skipif("cext" not in AVAILABLE, reason="needs a C compiler")
    def test_network_run_rejects_malformed_tables(self):
        empty = {name: np.zeros((0, len(fields)), dtype=dtype)
                 for name, fields, dtype in (
                     ("groups", kernels.NETWORK_GROUP_FIELDS, np.int64),
                     ("group_arrays", kernels.NETWORK_GROUP_ARRAYS, np.uintp),
                     ("conns", kernels.NETWORK_CONN_FIELDS, np.int64),
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
                    3, 1, group, arrays, conn, conn_arrays,
                    np.zeros(1, np.int64), np.zeros(1, np.int64), 127.0)

    @pytest.mark.skipif("cext" not in AVAILABLE, reason="needs a C compiler")
    def test_spike_present_rejects_malformed_operands(self):
        dims = (3, 4, 2)
        good = dict(drive=np.zeros((2, 3)),
                    weights=[np.zeros((4, 4)), np.zeros((5, 2))],
                    class_mask=np.ones(2, dtype=bool),
                    target=np.zeros((2, 2)), feedback=[np.zeros((2, 4))])

        def call(**changes):
            ops = dict(good, **changes)
            return kernels.spike_present(
                dims, 4, ops["drive"], ops["weights"], ops["class_mask"],
                ops["target"], ops["feedback"])

        with kernels.forced_backend("cext"):
            phase1, phase2 = call()
            assert [c.shape for c in phase1 + phase2] == [(2, 3), (2, 4),
                                                          (2, 2)] * 2
            w0 = good["weights"][0]
            for weight, match in (
                    (np.zeros((3, 4)), "weights\\[0\\].*shape \\(3, 4\\)"),
                    (np.zeros((4, 8))[:, ::2], "non-contiguous"),
                    (w0.astype(np.float32), "float32"),
                    (np.zeros((4, 4), order="F"), "non-contiguous")):
                with pytest.raises(TypeError, match=match):
                    call(weights=[weight, good["weights"][1]])
            with pytest.raises(ValueError, match="for 2 layers"):
                call(weights=[w0, w0, w0])
            for changes, match in (
                    ({"feedback": [np.zeros((4, 2))]}, "feedback\\[0\\]"),
                    ({"class_mask": np.ones(2)}, "class_mask.*float64"),
                    ({"class_mask": np.ones(3, dtype=bool)}, "class_mask"),
                    ({"target": np.zeros((3, 2))}, "target"),
                    ({"drive": np.zeros(3)}, "drive"),
                    ({"drive": [[0.0] * 3] * 2}, "drive.*list")):
                with pytest.raises(TypeError, match=match):
                    call(**changes)


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


    def test_rejected_native_flags_compile_once(self, tmp_path):
        """With a compiler that rejects ``-march=native``, the first import
        runs the rejected compile and the portable one, and leaves no
        ``.c`` of the rejected attempt; the next import finds the cached
        portable library and starts no compiler."""
        from repro.core.kernels import _cext

        real = shutil.which(_cext._find_compiler())
        log = tmp_path / "cc.log"
        cc = tmp_path / "cc-base"
        cc.write_text("#!/bin/sh\n"
                      f'echo "$*" >> "{log}"\n'
                      'case "$*" in *-march=native*) exit 1;; esac\n'
                      f'exec "{real}" "$@"\n')
        cc.chmod(0o755)
        cache = tmp_path / "kc"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), CC=str(cc),
                   REPRO_KERNEL_CACHE=str(cache), REPRO_KERNEL_BACKEND="cext")
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "from repro.core import kernels; "
                 "print(kernels.backend_name())"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "cext"
            runs.append(log.read_text().splitlines())
        first, both = runs
        assert len(first) == 2 and both == first
        assert "-march=native" in first[0]
        assert "-march=native" not in first[1]
        built = sorted(p.name for p in cache.iterdir())
        assert [name.rsplit(".", 1)[1] for name in built] == ["c", "so"]


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
