"""Kernel backend selection, index-capacity guards and dtype invariants.

Covers the dispatch machinery of :mod:`repro.core.kernels` (environment
and runtime backend selection, explicit failure on unavailable
backends), the int32 capacity guard of the memory-scaled substrate
(raises :class:`~repro.errors.CapacityError`, never wraps), and the
int32/int64 parity of the shrunken CSR tables -- including across churn
repairs, where NEP 50 dtype promotion could silently widen them back.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.pathmatrix import PathMatrix
from repro.errors import AlgorithmError, CapacityError, ReproError
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import apply_mutation
from repro.network.rooted import RootedTree
from repro.workload.churn import random_valid_mutation

INT32_MAX = np.iinfo(np.int32).max


@pytest.fixture
def without_cc(monkeypatch, tmp_path):
    """Make the cc backend unbuildable: no compiler, an empty kernel cache
    and cleared dispatch caches (all restored afterwards)."""
    monkeypatch.setattr(kernels, "_find_compiler", lambda: None)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    monkeypatch.setattr(kernels, "_ops_cache", {})
    monkeypatch.setattr(kernels, "_resolved", (object(), ""))


class TestBackendSelection:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_active_backend_is_available(self):
        assert kernels.active_backend() in kernels.available_backends()

    def test_env_selects_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels.active_backend() == "numpy"

    def test_env_auto_and_blank(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        auto = kernels.active_backend()
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert kernels.active_backend() == auto
        assert auto == kernels.available_backends()[0]

    def test_env_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(AlgorithmError, match="unknown kernel backend"):
            kernels.active_backend()

    def test_unavailable_backend_raises_not_degrades(self, without_cc, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert kernels.available_backends() == ("numpy",)
        assert kernels.active_backend() == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "cc")
        with pytest.raises(AlgorithmError, match="not.*available"):
            kernels.active_backend()

    def test_set_backend_validates_eagerly(self, without_cc):
        try:
            with pytest.raises(AlgorithmError, match="not.*available"):
                kernels.set_backend("cc")
        finally:
            kernels.set_backend(None)

    def test_use_backend_restores_previous(self):
        before = kernels.active_backend()
        with kernels.use_backend("numpy"):
            assert kernels.active_backend() == "numpy"
        assert kernels.active_backend() == before

    def test_use_backend_restores_on_error(self):
        before = kernels.active_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("numpy"):
                raise RuntimeError("boom")
        assert kernels.active_backend() == before

    def test_forced_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", kernels.active_backend())
        with kernels.use_backend("numpy"):
            assert kernels.active_backend() == "numpy"


class TestCcBuildCache:
    @pytest.mark.skipif(kernels._find_compiler() is None, reason="no C compiler")
    def test_concurrent_cold_builds_all_get_cc(self, tmp_path):
        """Processes building one fresh cache together must all load cc.

        A shared source path would let one builder truncate the C file
        while another compiles it, caching a library without symbols and
        silently degrading ``auto`` to numpy.  The children import the
        module, then resolve the backend together on a stdin barrier.
        """
        env = dict(os.environ, REPRO_KERNEL_CACHE=str(tmp_path / "kernels"))
        env.pop("REPRO_BACKEND", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(kernels.__file__).parents[2]), env.get("PYTHONPATH", "")]
        )
        script = (
            "import sys\n"
            "from repro.core import kernels\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
            "print(kernels.active_backend())\n"
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(8)
        ]
        try:
            for child in children:
                assert child.stdout.readline().strip() == "ready"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            backends = [child.communicate(timeout=120)[0].strip() for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait()
        assert backends == ["cc"] * 8
        # the per-process build files are gone: only the library is cached
        (cached,) = (tmp_path / "kernels").iterdir()
        assert cached.name.startswith("repro_kernels_")


def _cc_op_arguments():
    """Valid arguments of every cc op on a small substrate, and the
    positions of the array arguments that reach C (``checked``) plus the
    boolean masks, which are viewed as uint8 first (``masks``)."""
    net = balanced_tree(2, 2, 2)
    pm = net.rooted().path_matrix()
    n, m = net.n_nodes, net.n_edges
    u = np.array([1, 2, 3], dtype=np.int64)
    v = np.array([3, 1, 0], dtype=np.int64)
    w = np.array([1.0, 2.0, 3.0])
    lanes = np.array([0, 1], dtype=np.int64)
    loads2 = np.zeros((2, m + n))
    is_bus = pm._bus_mask.copy()
    return {
        "lca": ((pm._up.copy(), pm._depth.copy(), u.copy(), v.copy()), (0, 1, 2, 3), ()),
        "scatter_paths": (
            (np.zeros(m), pm._rp_edges.copy(), pm._rp_nodes.copy(),
             pm._rp_indptr.copy(), np.ones(n)),
            (0, 1, 3, 4), (),
        ),
        "pair_scatter": ((np.zeros(n), u, v, v.copy(), w), (0, 1, 2, 3, 4), ()),
        "pair_scatter_lanes": (
            (np.zeros((n, 2)), u, np.stack([v, u], axis=1), np.stack([v, v], axis=1), w),
            (0, 1, 2, 3, 4), (),
        ),
        "bus_fold": (
            (np.zeros(n), pm._edge_u.copy(), pm._edge_v.copy(), is_bus, np.ones(m)),
            (0, 1, 2, 4), (3,),
        ),
        "apply_column": (
            (np.zeros(m + n), np.ones(m), pm._edge_u.copy(), pm._edge_v.copy(),
             is_bus, m, 1.0),
            (0, 1, 2, 3), (4,),
        ),
        "apply_columns_lanes": (
            (loads2, lanes, np.ones((m, 2)), pm._edge_u.copy(), pm._edge_v.copy(),
             is_bus, m),
            (0, 1, 2, 3, 4), (5,),
        ),
        "rescan": ((np.ones(m + n), np.ones(m + n)), (0, 1), ()),
        "rescan_rows": ((loads2, lanes, np.ones(m + n)), (0, 1, 2), ()),
    }


def _wrong_dtype(arr):
    return arr.astype({np.dtype(np.int64): np.int32, np.dtype(np.int32): np.int64,
                       np.dtype(np.float64): np.float32}[arr.dtype])


def _strided(arr):
    """The same values in a non-contiguous array of the same dtype."""
    wide = np.zeros(arr.shape[:-1] + (2 * arr.shape[-1],), dtype=arr.dtype)
    view = wide[..., ::2]
    view[...] = arr
    return view


@pytest.mark.skipif("cc" not in kernels.available_backends(), reason="cc unavailable")
class TestCcArgumentChecks:
    """Raw-pointer binding keeps ``ndpointer``'s rejections: a wrong-dtype
    or non-contiguous array raises before any C code runs."""

    def test_valid_arguments_are_accepted(self):
        ops = kernels._ops_for("cc")
        for name, (args, _checked, _masks) in _cc_op_arguments().items():
            ops[name](*args)

    @pytest.mark.parametrize("name", sorted(kernels._NUMPY_OPS))
    @pytest.mark.parametrize("bad", ("dtype", "strided"))
    def test_bad_array_raises_before_c(self, name, bad):
        op = kernels._ops_for("cc")[name]
        args, checked, masks = _cc_op_arguments()[name]
        positions = checked + masks if bad == "strided" else checked
        for position in positions:
            call = list(args)
            before = [a.copy() if isinstance(a, np.ndarray) else a for a in call]
            call[position] = (
                _strided(call[position]) if bad == "strided"
                else _wrong_dtype(call[position])
            )
            with pytest.raises(ctypes.ArgumentError, match="TypeError: array must"):
                op(*call)
            for old, new in zip(before, args):
                if isinstance(old, np.ndarray):
                    assert np.array_equal(old, new)  # nothing was written

    def test_non_array_raises(self):
        with pytest.raises(ctypes.ArgumentError, match="must be an ndarray"):
            kernels._data_pointer([1.0], np.dtype(np.float64), 1)


class TestCapacityGuard:
    def test_within_capacity_passes(self):
        kernels.ensure_index_capacity(INT32_MAX, INT32_MAX, INT32_MAX)

    @pytest.mark.parametrize(
        "kwargs, what",
        [
            (dict(n_nodes=INT32_MAX + 1, n_edges=0, path_entries=0), "node count"),
            (dict(n_nodes=0, n_edges=INT32_MAX + 1, path_entries=0), "edge count"),
            (
                dict(n_nodes=0, n_edges=0, path_entries=INT32_MAX + 1),
                "root-path entry count",
            ),
        ],
    )
    def test_overflow_raises_never_wraps(self, kwargs, what):
        with pytest.raises(CapacityError, match=what):
            kernels.ensure_index_capacity(**kwargs)

    def test_capacity_error_is_repro_error(self):
        assert issubclass(CapacityError, ReproError)

    def test_pathmatrix_construction_guards(self, monkeypatch):
        # shrink the guard threshold so a small network "overflows": the
        # construction path must refuse loudly instead of wrapping indices
        monkeypatch.setattr(kernels, "_INT32_MAX", 4)
        net = balanced_tree(2, 2, 2)
        with pytest.raises(CapacityError):
            PathMatrix(RootedTree(net, net.canonical_root()))

    def test_repair_guards_structural_growth(self, monkeypatch):
        from repro.network.mutation import AttachLeaf

        net = balanced_tree(2, 2, 2)
        rooted = net.rooted()
        pm = rooted.path_matrix()
        outcome = apply_mutation(net, AttachLeaf(int(net.buses[0])))
        monkeypatch.setattr(kernels, "_INT32_MAX", 4)
        with pytest.raises(CapacityError):
            pm.repaired(outcome, rooted.repaired(outcome))


class TestIndexDtypes:
    """The CSR/lifting substrate stays int32, fresh and across repairs."""

    INDEX_ARRAYS = ("_up", "_rp_edges", "_rp_nodes", "_edge_u", "_edge_v")

    def _assert_int32(self, pm):
        for attr in self.INDEX_ARRAYS:
            assert getattr(pm, attr).dtype == kernels.INDEX_DTYPE, attr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_substrate_is_int32(self, seed):
        net = random_tree(5, 12, seed=seed)
        self._assert_int32(net.rooted().path_matrix())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repaired_substrate_stays_int32(self, seed):
        # NEP 50 regression guard: surgery on int32 tables must not promote
        # them back to int64 (np.append with python ints, int64 gathers)
        net = random_tree(5, 12, seed=seed)
        rooted = net.rooted()
        pm = rooted.path_matrix()
        rng = np.random.default_rng(seed)
        for _ in range(6):
            mutation = random_valid_mutation(net, rng)
            outcome = apply_mutation(net, mutation)
            rooted = rooted.repaired(outcome)
            pm = pm.repaired(outcome, rooted)
            net = outcome.network
            self._assert_int32(pm)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_int32_substrate_matches_int64_reference(self, seed):
        # parity: the shrunken tables drive the reference kernels to the
        # same answers as their int64 widenings
        net = random_tree(5, 12, seed=seed)
        pm = net.rooted().path_matrix()
        rng = np.random.default_rng(seed)
        u = rng.integers(0, net.n_nodes, size=64)
        v = rng.integers(0, net.n_nodes, size=64)
        with kernels.use_backend("numpy"):
            narrow = kernels.lca(pm._up, pm._depth, u.copy(), v.copy())
            wide = kernels.lca(
                pm._up.astype(np.int64), pm._depth, u.copy(), v.copy()
            )
        assert np.array_equal(narrow, wide)
        delta = rng.integers(-4, 5, size=net.n_nodes).astype(np.float64)
        out32 = np.zeros(net.n_edges)
        out64 = np.zeros(net.n_edges)
        with kernels.use_backend("numpy"):
            kernels.scatter_paths(
                out32, pm._rp_edges, pm._rp_nodes, pm._rp_indptr, delta
            )
            kernels.scatter_paths(
                out64,
                pm._rp_edges.astype(np.int64),
                pm._rp_nodes.astype(np.int64),
                pm._rp_indptr,
                delta,
            )
        assert np.array_equal(out32, out64)

    def test_memory_bytes_reports_substrate(self):
        net = balanced_tree(2, 3, 2)
        pm = net.rooted().path_matrix()
        total = pm.memory_bytes()
        assert total > 0
        # int32 tables are counted at their shrunken width
        assert total >= pm._up.nbytes + pm._rp_edges.nbytes
        from repro.core.loadstate import LoadState

        state = LoadState(net)
        assert state.memory_bytes() >= total  # shares the pm arrays, adds loads


class TestAggregatePairsUnit:
    def test_empty(self):
        u, o, c = kernels.aggregate_pairs(np.empty(0, np.int64), np.empty(0, np.int64))
        assert u.size == o.size == c.size == 0
        assert u.dtype == o.dtype == c.dtype == np.int64

    def test_small_known(self):
        procs = np.asarray([3, 1, 3, 1, 3])
        objs = np.asarray([0, 2, 0, 2, 1])
        u, o, c = kernels.aggregate_pairs(procs, objs)
        assert u.tolist() == [1, 3, 3]
        assert o.tolist() == [2, 0, 1]
        assert c.tolist() == [2, 2, 1]
