"""Property tests for repro.kernels: batched kernels == scalar kernels.

The vectorized ``*_many`` shapes (one config per move, or one config read
by every move) must agree with the scalar ΔE/energy paths on every
Hamiltonian — any divergence silently corrupts batched Wang-Landau
sampling, so the agreement is property-tested over random configurations
and move sets.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hamiltonians import IsingHamiltonian, PairHamiltonian, PottsHamiltonian
from repro.hamiltonians.base import Hamiltonian
from repro.kernels import PairTables, ops
from repro.lattice import square_lattice


def random_cfg(ham, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ham.n_species, ham.n_sites).astype(np.int8)


@pytest.fixture
def pair_2shell_field():
    """Generic 2-shell pair model with an on-site field (3 species)."""
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(2):
        m = rng.normal(size=(3, 3))
        mats.append((m + m.T) / 2.0)
    return PairHamiltonian(
        square_lattice(4), mats, field=rng.normal(size=3), name="generic"
    )


@pytest.fixture(params=["ising", "potts", "hea", "generic"])
def any_ham(request, ising_4x4, potts3_4x4, hea_small, pair_2shell_field):
    return {
        "ising": ising_4x4,
        "potts": potts3_4x4,
        "hea": hea_small,
        "generic": pair_2shell_field,
    }[request.param]


class TestPairTables:
    def test_table_shapes(self, pair_2shell_field):
        ham = pair_2shell_field
        t = ham.tables
        assert t.n_species == 3
        assert t.n_shells == 2
        assert t.cat_table.shape == (ham.n_sites, t.n_neighbor_cols)
        assert t.diff_rows.shape == (3, 3, 3 * 2)  # (S, S, S * n_shells)
        assert t.cat_table_T.shape == (t.n_neighbor_cols, ham.n_sites)
        assert t.diff_flat.shape == (3 * 3 * (3 * 2 + 1),)
        assert t.shell_offsets.shape == (t.n_neighbor_cols,)
        assert t.shell_of_col.shape == (t.n_neighbor_cols,)

    def test_diff_rows_are_matrix_differences(self, pair_2shell_field):
        t = pair_2shell_field.tables
        S = t.n_species
        for a in range(S):
            for b in range(S):
                for s, V in enumerate(t.shell_matrices):
                    for c in range(S):
                        assert t.diff_rows[a, b, c + s * S] == pytest.approx(
                            V[b, c] - V[a, c]
                        )

    def test_bond_corr_identity(self, pair_2shell_field):
        t = pair_2shell_field.tables
        for s, V in enumerate(t.shell_matrices):
            expected = (
                np.diag(V)[:, None] + np.diag(V)[None, :] - 2.0 * V
            )
            np.testing.assert_allclose(t.bond_corr[s], expected)

    def test_diff_flat_is_diff_rows_plus_null_key(self, pair_2shell_field):
        t = pair_2shell_field.tables
        S, K = t.n_species, t.n_species * t.n_shells
        flat = t.diff_flat.reshape(S, S, K + 1)
        np.testing.assert_array_equal(flat[:, :, :K], t.diff_rows)
        assert not flat[:, :, K].any()
        rows, cols = t.pair_offsets
        for a in range(S):
            for b in range(S):
                start = int(rows[a]) + int(cols[b])
                np.testing.assert_array_equal(
                    t.diff_flat[start:start + K], t.diff_rows[a, b])


class TestEnergies:
    def test_energies_matches_scalar(self, any_ham):
        cfgs = np.stack([random_cfg(any_ham, s) for s in range(8)])
        batch = any_ham.energies(cfgs)
        assert batch.shape == (8,)
        for k in range(8):
            assert batch[k] == pytest.approx(any_ham.energy(cfgs[k]))

    def test_energies_accepts_single_config(self, any_ham):
        cfg = random_cfg(any_ham, 0)
        batch = any_ham.energies(cfg)
        assert batch.shape == (1,)
        assert batch[0] == pytest.approx(any_ham.energy(cfg))


class TestAlternativesKernels:
    """Many hypothetical moves on one config: the ``*_many`` kernels with a
    single config read by every move."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_swap_alternatives_matches_scalar(self, any_ham, seed):
        ham = any_ham
        rng = np.random.default_rng(seed)
        cfg = random_cfg(ham, seed)
        ii = rng.integers(0, ham.n_sites, 25)
        jj = rng.integers(0, ham.n_sites, 25)
        batch = ham.delta_energy_swap_many(cfg, ii, jj)  # one config, 25 moves
        for k in range(25):
            assert batch[k] == pytest.approx(
                ham.delta_energy_swap(cfg, int(ii[k]), int(jj[k])), abs=1e-9
            )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_flip_alternatives_matches_scalar(self, any_ham, seed):
        ham = any_ham
        rng = np.random.default_rng(seed)
        cfg = random_cfg(ham, seed)
        sites = rng.integers(0, ham.n_sites, 25)
        news = rng.integers(0, ham.n_species, 25)
        batch = ham.delta_energy_flip_many(cfg, sites, news)
        for k in range(25):
            assert batch[k] == pytest.approx(
                ham.delta_energy_flip(cfg, int(sites[k]), int(news[k])), abs=1e-9
            )


class TestManyKernels:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_swap_many_matches_scalar(self, any_ham, seed):
        ham = any_ham
        rng = np.random.default_rng(seed)
        B = 12
        cfgs = np.stack([random_cfg(ham, seed + k) for k in range(B)])
        ii = rng.integers(0, ham.n_sites, B)
        jj = rng.integers(0, ham.n_sites, B)
        batch = ham.delta_energy_swap_many(cfgs, ii, jj)
        assert batch.shape == (B,)
        for b in range(B):
            assert batch[b] == pytest.approx(
                ham.delta_energy_swap(cfgs[b], int(ii[b]), int(jj[b])), abs=1e-9
            )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_flip_many_matches_scalar(self, any_ham, seed):
        ham = any_ham
        rng = np.random.default_rng(seed)
        B = 12
        cfgs = np.stack([random_cfg(ham, seed + k) for k in range(B)])
        sites = rng.integers(0, ham.n_sites, B)
        news = rng.integers(0, ham.n_species, B)
        batch = ham.delta_energy_flip_many(cfgs, sites, news)
        assert batch.shape == (B,)
        for b in range(B):
            assert batch[b] == pytest.approx(
                ham.delta_energy_flip(cfgs[b], int(sites[b]), int(news[b])), abs=1e-9
            )

    def test_many_consistent_with_full_recompute(self, any_ham):
        """Applying each row's move changes energies(configs) by ΔE_many."""
        ham = any_ham
        rng = np.random.default_rng(11)
        B = 6
        cfgs = np.stack([random_cfg(ham, 100 + k) for k in range(B)])
        before = ham.energies(cfgs)
        ii = rng.integers(0, ham.n_sites, B)
        jj = rng.integers(0, ham.n_sites, B)
        deltas = ham.delta_energy_swap_many(cfgs, ii, jj)
        after_cfgs = cfgs.copy()
        for b in range(B):
            after_cfgs[b, ii[b]], after_cfgs[b, jj[b]] = (
                after_cfgs[b, jj[b]], after_cfgs[b, ii[b]],
            )
        np.testing.assert_allclose(
            ham.energies(after_cfgs), before + deltas, atol=1e-8
        )


def _bonded_pair(t, shell):
    """A site pair bonded in ``shell`` (None: not bonded at all), or None."""
    n_sites = t.cat_table.shape[0]
    for i in range(n_sites):
        for j in range(n_sites):
            if i == j:
                continue
            hit_shells = set(t.shell_of_col[t.cat_table[i] == j].tolist())
            if hit_shells == (set() if shell is None else {shell}):
                return i, j
    return None


def _swapped(cfg, i, j):
    out = cfg.copy()
    out[i], out[j] = out[j], out[i]
    return out


class TestGatherCoreEdges:
    """Rows the one gather core must price exactly like the scalar kernels
    and like a full recompute (DESIGN.md §11: null-key bond pricing)."""

    def edge_rows(self, ham):
        """(config, i, j) rows: bonded in shell 1 / shell 2 / not at all (each
        with distinct and with equal species), and i == j."""
        t = ham.tables
        rows = []
        for shell in (0, 1, None):
            pair = _bonded_pair(t, shell)
            if pair is None:                 # a one-shell model has no shell 2
                continue
            i, j = pair
            for seed in range(3):
                cfg = random_cfg(ham, 40 + seed)
                cfg[j] = (cfg[i] + 1) % ham.n_species
                rows.append((cfg, i, j))
            same = random_cfg(ham, 50)
            same[j] = same[i]
            rows.append((same, i, j))
        rows.append((random_cfg(ham, 60), 3, 3))
        return rows

    def test_swap_edge_rows(self, any_ham):
        ham = any_ham
        rows = self.edge_rows(ham)
        assert len(rows) >= 9  # every model here has bonded and unbonded pairs
        cfgs = np.stack([r[0] for r in rows])
        ii = np.array([r[1] for r in rows])
        jj = np.array([r[2] for r in rows])
        many = ham.delta_energy_swap_many(cfgs, ii, jj)
        for b, (cfg, i, j) in enumerate(rows):
            assert many[b] == pytest.approx(
                ham.delta_energy_swap(cfg, i, j), abs=1e-12)
            assert many[b] == pytest.approx(
                ham.energy(_swapped(cfg, i, j)) - ham.energy(cfg), abs=1e-12)
            if i == j or cfg[i] == cfg[j]:
                assert many[b] == 0.0
            # B = 1 and plain Python lists.
            one = ham.delta_energy_swap_many(cfg[None], [i], [j])
            assert one.shape == (1,) and one[0] == many[b]

    def test_flip_edge_rows(self, any_ham):
        ham = any_ham
        rng = np.random.default_rng(8)
        B = 10
        cfgs = np.stack([random_cfg(ham, 70 + b) for b in range(B)])
        sites = rng.integers(0, ham.n_sites, B)
        news = rng.integers(0, ham.n_species, B)
        news[0] = cfgs[0, sites[0]]                  # equal species
        many = ham.delta_energy_flip_many(cfgs, sites, news)
        assert many[0] == 0.0
        for b in range(B):
            after = cfgs[b].copy()
            after[sites[b]] = news[b]
            assert many[b] == pytest.approx(
                ham.delta_energy_flip(cfgs[b], int(sites[b]), int(news[b])),
                abs=1e-12)
            assert many[b] == pytest.approx(
                ham.energy(after) - ham.energy(cfgs[b]), abs=1e-12)
            one = ham.delta_energy_flip_many(
                cfgs[b][None], [int(sites[b])], [int(news[b])])
            assert one.shape == (1,) and one[0] == many[b]

    def test_non_contiguous_configs_view(self, any_ham):
        ham = any_ham
        rng = np.random.default_rng(9)
        B = 7
        wide = np.stack([random_cfg(ham, 80 + b) for b in range(2 * B)])
        for view in (wide[::2], np.asfortranarray(wide[:B])):
            assert not view.flags.c_contiguous
            keep = view.copy()
            ii = rng.integers(0, ham.n_sites, B)
            jj = rng.integers(0, ham.n_sites, B)
            news = rng.integers(0, ham.n_species, B)
            np.testing.assert_array_equal(
                ham.delta_energy_swap_many(view, ii, jj),
                ham.delta_energy_swap_many(keep, ii, jj))
            np.testing.assert_array_equal(
                ham.delta_energy_flip_many(view, ii, news),
                ham.delta_energy_flip_many(keep, ii, news))
            np.testing.assert_array_equal(view, keep)   # caller's array untouched

    def test_alternatives_are_many_on_a_tiled_config(self, any_ham):
        ham = any_ham
        t = ham.tables
        rng = np.random.default_rng(10)
        M = 30
        cfg = random_cfg(ham, 90)
        ii = rng.integers(0, ham.n_sites, M)
        jj = rng.integers(0, ham.n_sites, M)
        news = rng.integers(0, ham.n_species, M)
        tiled = np.tile(cfg, (M, 1))
        np.testing.assert_array_equal(
            ops.delta_swap_many(t, cfg, ii, jj),
            ops.delta_swap_many(t, tiled, ii, jj))
        np.testing.assert_array_equal(
            ops.delta_flip_many(t, cfg, ii, news),
            ops.delta_flip_many(t, tiled, ii, news))

    def test_a_rows_delta_does_not_depend_on_its_batch(self, any_ham):
        """Serial teams and the fused campaign stack the same walkers into
        batches of different heights; each row must price bit for bit alike."""
        ham = any_ham
        rng = np.random.default_rng(12)
        B = 13
        cfgs = np.stack([random_cfg(ham, 110 + b) for b in range(B)])
        ii = rng.integers(0, ham.n_sites, B)
        jj = rng.integers(0, ham.n_sites, B)
        news = rng.integers(0, ham.n_species, B)
        swap = ham.delta_energy_swap_many(cfgs, ii, jj)
        flip = ham.delta_energy_flip_many(cfgs, ii, news)
        for lo, hi in ((0, 1), (4, 5), (12, 13), (2, 4), (5, 10)):
            np.testing.assert_array_equal(
                ham.delta_energy_swap_many(cfgs[lo:hi], ii[lo:hi], jj[lo:hi]),
                swap[lo:hi])
            np.testing.assert_array_equal(
                ham.delta_energy_flip_many(cfgs[lo:hi], ii[lo:hi], news[lo:hi]),
                flip[lo:hi])


class TestIndexSafety:
    """The flat address ``site + row * n_sites`` must never turn a bad site
    into a silent read of the neighbouring row: both ends of the range raise."""

    @pytest.mark.parametrize("bad", ["n_sites", "far", -1, "-n_sites"])
    def test_bad_site_raises(self, any_ham, bad):
        ham = any_ham
        t = ham.tables
        n = ham.n_sites
        bad = {"n_sites": n, "far": 5 * n, "-n_sites": -n}.get(bad, bad)
        cfgs = np.stack([random_cfg(ham, b) for b in range(3)])
        ok = np.array([1, 2, 3])
        for row in range(3):                 # row 0 wraps, rows 1.. spill over
            sites = ok.copy()
            sites[row] = bad
            with pytest.raises(IndexError):
                ops.delta_swap_many(t, cfgs, sites, ok)
            with pytest.raises(IndexError):
                ops.delta_swap_many(t, cfgs, ok, sites)
            with pytest.raises(IndexError):
                ops.delta_flip_many(t, cfgs, sites, np.zeros(3, dtype=int))
            with pytest.raises(IndexError):
                ops.delta_swap_many(t, cfgs[0], sites, ok)
            with pytest.raises(IndexError):
                ops.delta_flip_many(t, cfgs[0], sites, np.zeros(3, dtype=int))

    def test_move_count_must_match_rows(self, hea_small):
        cfgs = np.stack([random_cfg(hea_small, b) for b in range(3)])
        with pytest.raises(ValueError):
            ops.delta_swap_many(hea_small.tables, cfgs, [0, 1], [2, 3])
        with pytest.raises(ValueError):
            ops.delta_swap_many(hea_small.tables, cfgs, [0, 1, 2], [2, 3, 4, 5, 6])


class TestBaseClassContract:
    def test_batched_methods_are_abstract(self):
        """The base class has no Python-loop fallbacks: a model must
        implement the batched shapes itself."""
        assert {"energies", "delta_energy_swap_many",
                "delta_energy_flip_many"} <= Hamiltonian.__abstractmethods__


class TestRemovedAlias:
    def test_energy_batch_is_gone(self, ising_4x4):
        # The deprecated pre-kernel-layer alias completed its cycle.
        assert not hasattr(ising_4x4, "energy_batch")


class TestDtypeDiscipline:
    """DESIGN.md §17: configs stay int8, tables int32, no silent up-casts."""

    def test_tables_are_int32(self, any_ham):
        t = any_ham.tables
        for tab in t.tables:
            assert tab.dtype == np.int32
        assert t.cat_table.dtype == np.int32
        # The stored fused table is the transposed one; cat_table views it.
        assert t._cache["cat_table_T"].dtype == np.int32
        assert t._cache["cat_table_T"].flags.c_contiguous
        assert np.shares_memory(t.cat_table, t._cache["cat_table_T"])
        for pi, pj in zip(t.pair_i, t.pair_j):
            assert pi.dtype == np.int32 and pj.dtype == np.int32
        assert t.shell_offsets.dtype == np.int16
        assert t.shell_of_col.dtype == np.int16

    def test_int8_configs_match_int64_configs(self, any_ham):
        """The lean int8 path prices moves identically to an int64 copy of
        the same configs (the old hot path up-cast everything to int64)."""
        rng = np.random.default_rng(21)
        ham = any_ham
        t = ham.tables
        B = 6
        cfgs8 = np.stack([random_cfg(ham, 100 + b) for b in range(B)])
        cfgs64 = cfgs8.astype(np.int64)
        ii = rng.integers(0, ham.n_sites, B)
        jj = rng.integers(0, ham.n_sites, B)
        sites = rng.integers(0, ham.n_sites, B)
        news = rng.integers(0, ham.n_species, B)
        np.testing.assert_array_equal(
            ops.delta_swap_many(t, cfgs8, ii, jj),
            ops.delta_swap_many(t, cfgs64, ii, jj))
        np.testing.assert_array_equal(
            ops.delta_flip_many(t, cfgs8, sites, news),
            ops.delta_flip_many(t, cfgs64, sites, news))
        np.testing.assert_array_equal(
            ops.energies(t, cfgs8), ops.energies(t, cfgs64))
        assert ops.energy(t, cfgs8[0]) == ops.energy(t, cfgs64[0])

    def test_no_upcast_copy_on_many_path(self, hea_small):
        """`_as_int_configs` must pass int8 batches through untouched —
        the whole point of the memory-lean tier is killing the 8x copy."""
        cfgs = np.stack([random_cfg(hea_small, b) for b in range(4)])
        out = ops._as_int_configs(cfgs)
        assert out is cfgs  # same object: no copy, no up-cast

    def test_float_configs_raise(self, hea_small):
        t = hea_small.tables
        cfg = random_cfg(hea_small, 0).astype(np.float64)
        with pytest.raises(TypeError):
            ops.energy(t, cfg)
        with pytest.raises(TypeError):
            ops.delta_swap_many(t, cfg[None], [0], [1])

    def test_lazy_tables_not_built_on_scalar_path(self, hea_small):
        """A scalar-only workload must not materialize the batched
        structures (the flat difference table and its pair offsets)."""
        from repro.kernels.tables import PairTables
        t = PairTables(hea_small.lattice.neighbor_shells(2),
                       hea_small.shell_matrices, hea_small.field)
        before = t.table_nbytes()
        cfg = random_cfg(hea_small, 3)
        i = 0
        j = int(np.nonzero(cfg != cfg[i])[0][0])  # distinct species: no early-out
        ops.delta_swap(t, cfg, i, j)
        ops.delta_flip(t, cfg, i, int(cfg[j]))
        assert "diff_flat" not in t._cache
        assert "pair_offsets" not in t._cache
        assert "pair_arrays" not in t._cache
        # The scalar path does build the one fused table + diff_rows.
        assert set(t._cache) <= {"cat_table_T", "diff_rows", "shell_offsets",
                                 "shell_of_col", "bond_corr"}
        assert t.table_nbytes() > before

    def test_warm_many_path_holds_one_fused_table(self, any_ham):
        """After a warm ``delta_swap_many`` the tables exceed the parent
        layout (second fused orientation aside, it also kept ``corr_by_col``)
        by at most the flat difference table, and hold ONE O(N·z) array."""
        ham = any_ham
        t = PairTables(ham.lattice.neighbor_shells(len(ham.shell_matrices)),
                       ham.shell_matrices, ham.field)
        n, z, S = ham.n_sites, t.n_neighbor_cols, t.n_species
        K = S * t.n_shells
        sizes = set()
        for B in (1, 5, 9):
            cfgs = np.stack([random_cfg(ham, b) for b in range(B)])
            ops.delta_swap_many(t, cfgs, np.arange(B), np.arange(B) + 1)
            ops.delta_flip_many(t, cfgs, np.arange(B), np.zeros(B, dtype=int))
            sizes.add(t.table_nbytes())
        assert len(sizes) == 1          # no per-call scratch (row bases) is kept
        assert set(t._cache) == {"cat_table_T", "shell_offsets", "diff_rows",
                                 "diff_flat", "pair_offsets"}
        shell_tables = sum(tab.nbytes for tab in t.tables)
        parent = (shell_tables + 4 * n * z            # cat_table
                  + 2 * z + 2 * z                     # shell_offsets, shell_of_col
                  + 8 * S * S * (K + t.n_shells + z))  # diff_rows, bond_corr, corr_by_col
        assert t.diff_flat.nbytes == 8 * S * S * (K + 1)
        assert t.table_nbytes() <= parent + t.diff_flat.nbytes
        big = [v for v in t._cache.values()
               if isinstance(v, np.ndarray) and v.size >= n * z]
        assert len(big) == 1 and big[0] is t.cat_table_T
        # What the spine reports as kernels.table_bytes is unchanged.
        assert t.cat_table.nbytes + t.diff_rows.nbytes == 4 * n * z + 8 * S * S * K

    def test_warm_tables_pickle_and_price_identically(self, hea_small):
        import pickle
        ham = hea_small
        rng = np.random.default_rng(4)
        B = 9
        cfgs = np.stack([random_cfg(ham, b) for b in range(B)])
        ii, jj = rng.integers(0, ham.n_sites, (2, B))
        before = ham.delta_energy_swap_many(cfgs, ii, jj)
        clone = pickle.loads(pickle.dumps(ham))
        assert clone.tables.table_nbytes() == ham.tables.table_nbytes()
        assert np.shares_memory(clone.tables.cat_table, clone.tables.cat_table_T)
        np.testing.assert_array_equal(
            clone.delta_energy_swap_many(cfgs, ii, jj), before)
        np.testing.assert_array_equal(
            clone.delta_energy_flip_many(cfgs, ii, cfgs[:, 0]),
            ham.delta_energy_flip_many(cfgs, ii, cfgs[:, 0]))
        assert clone.delta_energy_swap(cfgs[0], 0, 1) == ham.delta_energy_swap(cfgs[0], 0, 1)

    def test_pickle_roundtrip_preserves_lazy_cache(self, hea_small):
        import pickle
        from repro.kernels.tables import PairTables
        t = PairTables(hea_small.lattice.neighbor_shells(2),
                       hea_small.shell_matrices, hea_small.field)
        _ = t.cat_table
        clone = pickle.loads(pickle.dumps(t))
        np.testing.assert_array_equal(clone.cat_table, t.cat_table)
        cfg = random_cfg(hea_small, 5)
        assert ops.energy(clone, cfg) == ops.energy(t, cfg)
