"""The compiled super-step (``repro.kernels.superstep`` / ``superstep.c``)
against its oracle, the NumPy block of ``repro.sampling.batched``.

Contract (DESIGN.md §16): whichever implementation runs a block, every team
array, counter and RNG stream ends bit for bit the same; a block the C loop
may not take falls to the NumPy path, which raises what it always raised;
every way of not getting a library falls back silently in results and says
so in one ``engine.native`` event.
"""

import ctypes
import json
import os
import pickle
import subprocess
import sys
import threading
from contextlib import contextmanager
from copy import deepcopy
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import run_all
from repro.hamiltonians import IsingHamiltonian, PairHamiltonian
from repro.kernels import ChunkedPairTables, native, superstep
from repro.lattice import bcc, random_configuration, square_lattice
from repro.lattice.configuration import composition_counts, one_hot
from repro.obs import Instrumentation, MemorySink, Telemetry
from repro.obs import events as events_mod
from repro.obs.events import EventLog
from repro.obs.profile import SectionProfiler
from repro.obs.report import render_report
from repro.parallel import REWLConfig, REWLDriver
from repro.parallel.checkpoint import _read_state, load_checkpoint, save_checkpoint
from repro.nn import MADE, CategoricalVAE, MADEConfig, VAEConfig
from repro.proposals import (
    FlipProposal,
    MADEProposal,
    MixtureProposal,
    NeighborSwapProposal,
    SwapProposal,
    VAEProposal,
)
from repro.proposals.base import PooledBlock, draw_pooled
from repro.proposals.local import FlipBlock, SwapBlock
from repro.sampling import CanonicalTeam, EnergyGrid, WangLandauSampler, WLConfig, batched
from repro.sampling.batched import BatchedWangLandauSampler, advance_block
from tests import test_batched_wl, test_fused_campaign
from tests.test_batched_wl import assert_same_team_state

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def lib():
    """The compiled library, whatever ``REPRO_NO_NATIVE`` says: these tests
    hand it to the block themselves."""
    with mock.patch.dict(os.environ):
        os.environ.pop(native.ENV_VAR, None)
        native.reset()
        found = native.library()
        reason = native.describe()
    native.reset()
    if found is None:
        pytest.skip(f"no native super-step here: {reason}")
    return found


@pytest.fixture(autouse=True)
def fresh_resolution():
    yield
    native.reset()


@contextmanager
def pinned(library):
    """Blocks inside run in C (``library``) or in NumPy (``None``); yields
    the list of ``run_block`` verdicts (True = the C loop took the block)."""
    took, real = [], superstep.run_block

    def spy(*args):
        took.append(real(*args))
        return took[-1]

    with mock.patch.object(native, "library", lambda: library), \
            mock.patch.object(superstep, "run_block", spy):
        yield took


# ------------------------------------------------------------- random systems

MOVES = ("swap", "swap_any", "nbr_swap", "flip", "flip_field",
         "pooled_flip", "pooled_swap", "pooled")


def pooled_proposal(move, n_sites, n_species, seed):
    """A MADE (perturbed, so log q varies) alone, or mixed 70/30 with flips
    or swaps: the pooled block kinds.  Mixed with swaps it decodes on the
    walkers' composition, as on an alloy."""
    model = MADE(MADEConfig(n_sites=n_sites, n_species=n_species, hidden=(8,)), rng=seed)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.value += 0.5 * rng.standard_normal(p.value.shape)

    def make():
        made = MADEProposal(model, composition="fixed" if move == "pooled_swap" else "free")
        if move == "pooled":
            return made
        local = FlipProposal() if move == "pooled_flip" else SwapProposal()
        return MixtureProposal([(local, 0.7), (made, 0.3)])

    return make


def random_system(seed, move, levels, n_windows, rows, canonical=False):
    """Teams of ``rows`` walkers on ``n_windows`` windows cut from one grid,
    on a random small pair model; every window holds its walkers, and its
    neighbours' energies lie outside it.  ``canonical``: the same walkers as
    canonical teams instead, at signed inverse temperatures, a fifth of them
    0."""
    rng = np.random.default_rng(seed)
    lattice = [square_lattice(3), square_lattice(4), bcc(3)][rng.integers(3)]
    s, n_shells = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    draw = (lambda size: rng.integers(-2, 3, size=size).astype(float)) if levels \
        else (lambda size: rng.normal(size=size))
    mats = draw((n_shells, s, s))
    field = draw(s) if move == "flip_field" else None
    ham = PairHamiltonian(lattice, mats + mats.transpose(0, 2, 1), field=field)
    n_sites, total = ham.n_sites, n_windows * rows
    if "swap" in move:
        counts = 1 + rng.multinomial(n_sites - s, np.full(s, 1 / s))
        configs = np.stack([random_configuration(n_sites, counts, rng=rng)
                            for _ in range(total)])
        proposal = NeighborSwapProposal if move == "nbr_swap" else \
            lambda: SwapProposal(require_distinct=move == "swap")  # noqa: E731
    else:
        configs = rng.integers(s, size=(total, n_sites)).astype(np.int8)
        proposal = FlipProposal
    if move.startswith("pooled"):
        proposal = pooled_proposal(move, n_sites, s, seed)
    configs = configs[np.argsort(ham.energies(configs), kind="stable")]
    if canonical:
        shape = (n_windows, rows)
        beta = rng.normal(scale=2.0, size=shape) * (rng.random(shape) > 0.2)
        return ham, [CanonicalTeam(ham, proposal(), configs[w * rows:(w + 1) * rows],
                                   beta[w], rng=seed + w) for w in range(n_windows)]
    energies = ham.energies(configs)
    if levels:  # integer couplings: every integer in range is a level
        lo, hi = ham.energy_bounds()
        grid = EnergyGrid.from_levels(np.arange(np.floor(lo), np.ceil(hi) + 1))
    else:
        pad = 0.05 * (energies[-1] - energies[0]) + 1e-3
        grid = EnergyGrid.uniform(energies[0] - pad, energies[-1] + pad,
                                  4 * n_windows + 3)
    bins = grid.index_array(energies).reshape(n_windows, rows)
    teams = []
    for w in range(n_windows):
        team = BatchedWangLandauSampler(
            hamiltonian=ham, proposal=proposal(),
            grid=grid.subgrid(int(bins[w].min()), int(bins[w].max())),
            initial_config=configs[w * rows:(w + 1) * rows], rng=seed + w,
            config=WLConfig(batch_size=rows))
        team.ln_f = 1.0 / (w + 1)
        teams.append(team)
    return ham, teams


def assert_same_state(a, b):
    """Team state bit for bit, either mode."""
    if a.beta is None:
        assert_same_team_state(a, b)
        return
    for name in ("configs", "energies", "beta", "slot_accepted"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.n_steps, a.n_accepted) == (b.n_steps, b.n_accepted)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def run_both(lib, ham, teams, n):
    """``n`` super-steps in C on ``teams`` and in NumPy on a deep copy."""
    twins = deepcopy(teams)
    with pinned(lib) as took:
        advance_block(teams, n, ham)
    with pinned(None):
        advance_block(twins, n, twins[0].hamiltonian)
    return twins, took


class TestDifferential:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**31 - 1), move=st.sampled_from(MOVES),
           levels=st.booleans(), n_windows=st.sampled_from([1, 4]),
           rows=st.sampled_from([1, 2, 33]), n=st.sampled_from([1, 7, 530]),
           canonical=st.booleans())
    def test_native_block_equals_numpy_block(self, lib, seed, move, levels,
                                             n_windows, rows, n, canonical):
        ham, teams = random_system(seed, move, levels, n_windows, rows, canonical)
        twins, took = run_both(lib, ham, teams, n)
        assert took and all(took)  # every sub-block ran in C
        for a, b in zip(teams, twins):
            assert_same_state(a, b)
            assert a.n_steps == n * rows
            assert np.array_equal(a.energies, ham.energies(a.configs)) or not levels

    @pytest.mark.parametrize("move", MOVES)
    @pytest.mark.parametrize("levels", [False, True])
    def test_every_move_and_grid_leaves_the_window_and_accepts(self, lib, move, levels):
        """The cases the random sweep must not miss, pinned: 4 windows x 33
        rows over two sub-blocks, with proposals that leave the grid."""
        ham, teams = random_system(7, move, levels, 4, 33)
        twins, took = run_both(lib, ham, teams, 530)
        assert took == [True, True]
        for a, b in zip(teams, twins):
            assert_same_team_state(a, b)
        assert sum(t.counters.out_of_grid for t in teams) > 0
        assert sum(t.counters.accepted for t in teams) > 0

    @pytest.mark.parametrize("move", MOVES)
    def test_canonical_teams_accept_and_reject(self, lib, move):
        """Canonical teams, pinned: 4 teams x 33 rows at signed inverse
        temperatures (0 included) over two sub-blocks."""
        ham, teams = random_system(7, move, False, 4, 33, canonical=True)
        assert (np.stack([t.beta for t in teams]) == 0).any()
        twins, took = run_both(lib, ham, teams, 530)
        assert took == [True, True]
        for a, b in zip(teams, twins):
            assert_same_state(a, b)
        accepted = sum(t.n_accepted for t in teams)
        assert 0 < accepted < sum(t.n_steps for t in teams)

    def test_the_two_modes_never_share_a_block(self, lib):
        """A Wang-Landau and a canonical team advanced together end where
        each ends advanced alone (the stream contract), on both paths."""
        ham, (wl,) = random_system(5, "swap", False, 1, 3)
        _, (canon,) = random_system(5, "swap", False, 1, 3, canonical=True)
        for library in (lib, None):
            together = deepcopy([wl, canon])
            alone = deepcopy([wl, canon])
            with pinned(library) as took:
                advance_block(together, 40, ham)
            assert took == ([True, True] if library else [])
            with pinned(library):
                for team in alone:
                    advance_block([team], 40, ham)
            for a, b in zip(together, alone):
                assert_same_state(a, b)

    def test_lopsided_composition_redraws_on_most_steps(self, lib):
        """One B atom in 53 A: a drawn pair is unlike with p = 0.036, so
        nearly every row-step runs many passes of the rejection loop on its
        team's stream; the C loop's passes must end where the NumPy block's
        do: team state, generator state and composition."""
        ham = IsingHamiltonian(bcc(3))
        start = np.zeros(54, dtype=np.int8)
        start[17] = 1
        grid = EnergyGrid.uniform(*ham.energy_bounds(), 16)

        def make():
            return [BatchedWangLandauSampler(
                hamiltonian=ham, proposal=SwapProposal(), grid=grid,
                initial_config=np.tile(start, (k, 1)), rng=seed,
                config=WLConfig(batch_size=k)) for seed, k in ((1, 3), (2, 5))]

        teams, twins = make(), make()
        with pinned(lib) as took:
            advance_block(teams, 50, ham)
        with pinned(None):
            advance_block(twins, 50, ham)
        assert took == [True]
        for a, b in zip(teams, twins):
            assert_same_team_state(a, b)  # the generators' states included
            assert (a.configs.sum(axis=1) == 1).all() and (b.configs.sum(axis=1) == 1).all()
            assert a.n_accepted > 0

    def test_one_team_steps_its_arrays_in_place(self, lib):
        ham, (team,) = random_system(3, "swap", False, 1, 2)
        arrays = {name: getattr(team, name) for name in test_batched_wl.TEAM_ARRAYS}
        with pinned(lib) as took:
            team.steps(9)
        assert took == [True]
        for name, array in arrays.items():
            assert getattr(team, name) is array


# ------------------------------------------- the swap pairs C draws itself


class TestCompiledDraws:
    """The C loop draws swap pairs from the team's own bit generator through
    a port of NumPy's bounded draw; these check the port itself, every bit
    generator NumPy ships, and the check that guards the handover."""

    @pytest.mark.parametrize("n", [1, 2, 3, 54, 250, 1_000_003, 2**31 + 1, 2**32 - 1])
    def test_draws_equal_generator_integers(self, lib, n):
        ours, numpy_rng = np.random.default_rng(n), np.random.default_rng(n)
        for count in (1, 5, 7, 1000, 3):
            assert np.array_equal(superstep.draw_below(lib, ours, n, count),
                                  numpy_rng.integers(n, size=count))
            numpy_rng.random(), ours.random()  # interleaved with other draws
        assert ours.bit_generator.state == numpy_rng.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.MT19937,
                                               np.random.SFC64, np.random.Philox])
    @pytest.mark.parametrize("move", ["swap", "swap_any", "pooled_swap"])
    def test_every_bit_generator_steps_alike_on_both_paths(self, lib, bit_generator, move):
        ham, teams = random_system(13, move, False, 2, 5)
        for w, team in enumerate(teams):
            team.rng = np.random.Generator(bit_generator(w))
        twins, took = run_both(lib, ham, teams, 60)
        assert took == [True]
        for a, b in zip(teams, twins):
            for name in test_batched_wl.TEAM_ARRAYS:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert a.counters == b.counters
            # MT19937's state holds an array: compare the states' pickles
            assert pickle.dumps(a.rng.bit_generator.state) == \
                pickle.dumps(b.rng.bit_generator.state)

    def test_each_generator_lock_is_held_across_the_c_call(self, lib):
        """ctypes drops the GIL and the C loop bypasses NumPy's locking, so
        no other thread may draw from a swap team's generator meanwhile."""
        ham, teams = random_system(17, "swap", False, 2, 3)
        real, seen = lib.repro_superstep, []

        def free(lock):
            """Whether another thread could take ``lock`` now (RLocks are
            reentrant, so only another thread can tell)."""
            got = []
            probe = threading.Thread(target=lambda: got.append(
                lock.acquire(blocking=False) and (lock.release() or True)))
            probe.start()
            probe.join(timeout=10)
            assert not probe.is_alive()
            return got[0]

        def spy(*args):
            seen.extend(free(team.rng.bit_generator.lock) for team in teams)
            return real(*args)

        with mock.patch.object(lib, "repro_superstep", spy), pinned(lib) as took:
            advance_block(teams, 5, ham)
        assert took == [True] and seen == [False, False]
        assert all(free(team.rng.bit_generator.lock) for team in teams)

    def test_a_generator_that_reads_back_wrong_is_declined(self, lib):
        """A ``bitgen_t`` laid out otherwise than the mirror (here: the
        mirror's fields shifted), or a Generator subclass, never reaches C;
        the NumPy block steps it."""
        ham, (team,) = random_system(11, "swap", False, 1, 2)
        members, grids = one_block(team)
        shifted = superstep._struct("_Shifted", (ctypes.c_void_p, "next_uint32 state"))
        with mock.patch.object(superstep, "_Bitgen", shifted):
            TestDeclinedBlocks().declined(lib, ham, team, members, grids)

        class MyGenerator(np.random.Generator):
            pass

        team.rng = MyGenerator(np.random.PCG64(3))
        TestDeclinedBlocks().declined(lib, ham, team, members, grids)
        with pinned(lib) as took:
            team.steps(5)
        assert took == [False] and team.n_steps == 5 * team.n_slots
        with pytest.raises(TypeError):
            superstep.draw_below(lib, team.rng, 5, 1)


# ------------------------------------------------------- what the C loop declines


def one_block(team, n=5):
    fields = team.proposal.draw_fields(team.configs, team.hamiltonian, team.rng, n)
    grids = batched.StackedGrids([team.grid], [team.n_slots])
    return [(team, fields)], grids


class TestDeclinedBlocks:
    """Whatever fails a once-per-block check goes to the NumPy block, having
    drawn and written nothing; bad input therefore raises there, as ever."""

    def system(self, move="swap"):
        ham, (team,) = random_system(11, move, False, 1, 2)
        return ham, team

    def declined(self, lib, ham, team, members, grids, n=5):
        state = team.rng.bit_generator.state
        before = {k: getattr(team, k).copy() for k in test_batched_wl.TEAM_ARRAYS}
        assert superstep.run_block(lib, members, n, ham, grids) is False
        assert team.rng.bit_generator.state == state
        for name, array in before.items():
            assert np.array_equal(getattr(team, name), array)

    @pytest.mark.parametrize("bad_site", [10_000, -3])
    def test_swap_site_out_of_range_raises_index_error(self, lib, bad_site):
        """A pre-drawn bond outside the lattice (a swap block draws its
        pairs inside the loop, from ``n_sites``)."""
        ham, team = self.system("nbr_swap")
        members, grids = one_block(team)
        members[0][1].arrays[0][2, :, 0] = bad_site  # (bad, j) pairs at step 2
        self.declined(lib, ham, team, members, grids)
        with pytest.raises(IndexError):
            batched._run_block(members, 5, ham, grids)

    def test_flip_site_out_of_range_raises_index_error(self, lib):
        ham, team = self.system("flip")
        members, grids = one_block(team)
        members[0][1].arrays[0][1, 0] = ham.n_sites
        self.declined(lib, ham, team, members, grids)
        with pytest.raises(IndexError):
            batched._run_block(members, 5, ham, grids)

    def test_flip_shift_out_of_range_is_priced_by_numpy(self, lib):
        """NumPy reduces any shift modulo S; the C loop is not handed one."""
        ham, team = self.system("flip")
        members, grids = one_block(team)
        members[0][1].arrays[1][0, 0] = ham.n_species + 1
        self.declined(lib, ham, team, members, grids)
        batched._run_block(members, 5, ham, grids)
        assert team.n_steps == 5 * team.n_slots

    def test_species_out_of_range_raises_index_error(self, lib):
        ham, team = self.system()
        team.configs[1] = ham.n_species
        members, grids = one_block(team)
        self.declined(lib, ham, team, members, grids)
        with pytest.raises(IndexError):
            batched._run_block(members, 5, ham, grids)

    def test_walker_bin_outside_its_window_raises_index_error(self, lib):
        ham, team = self.system()
        team.bins[0] = team.grid.n_bins + 2
        members, grids = one_block(team)
        self.declined(lib, ham, team, members, grids)
        with pytest.raises(IndexError):
            batched._run_block(members, 5, ham, grids)

    def test_float_configs_raise_type_error(self, lib):
        ham, team = self.system()
        team.configs = team.configs.astype(np.float64)
        members, grids = one_block(team)
        self.declined(lib, ham, team, members, grids)
        with pytest.raises(TypeError):
            batched._run_block(members, 5, ham, grids)

    @pytest.mark.parametrize("recast", [
        lambda c: c.astype(np.int64),                      # not int8
        lambda c: np.asfortranarray(c),                    # not C-contiguous
        lambda c: np.repeat(c, 2, axis=1)[:, ::2],         # strided view
    ])
    def test_other_config_layouts_run_in_numpy_with_equal_results(self, lib, recast):
        ham, team = self.system()
        twin = deepcopy(team)
        team.configs = recast(team.configs)
        assert np.array_equal(team.configs, twin.configs)
        with pinned(lib) as took:
            team.steps(6)
        assert took == [False]
        with pinned(lib) as took:
            twin.steps(6)
        assert took == [True]
        team.configs = np.ascontiguousarray(team.configs, dtype=np.int8)
        assert_same_team_state(team, twin)

    def test_other_tables_and_field_blocks_are_declined(self, lib):
        ham, team = self.system()
        members, grids = one_block(team)
        chunked = SimpleNamespace(tables=ChunkedPairTables(
            ham.lattice, ham.shell_matrices))
        self.declined(lib, chunked, team, members, grids)
        self.declined(lib, SimpleNamespace(), team, members, grids)

        class MySwaps(SwapBlock):
            pass

        class MyFlips(FlipBlock):
            pass

        class MyPooled(PooledBlock):
            pass

        fields = members[0][1]
        custom = [(team, MySwaps(*fields.arrays, **fields.params))]
        assert custom[0][1].native_fields() is None
        assert MyFlips(n_species=2).native_fields() is None
        self.declined(lib, ham, team, custom, grids)
        pooled = draw_pooled(np.full((5, team.n_slots), -1), [], team.configs, ham,
                             np.random.default_rng(0), fields)
        assert pooled.native_fields() is not None
        custom = [(team, MyPooled(*pooled.arrays, pooled.candidates, pooled.local))]
        assert custom[0][1].native_fields() is None
        self.declined(lib, ham, team, custom, grids)


# ------------------------------------------------- the compiled log q scorer


def perturbed_made(n_sites, n_species, hidden, seed):
    """A MADE whose output layer is not zero (log q varies)."""
    model = MADE(MADEConfig(n_sites=n_sites, n_species=n_species, hidden=hidden), rng=seed)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.value += 0.7 * rng.standard_normal(p.value.shape)
    return model


def flip_made_proposal(model):
    return MixtureProposal([(FlipProposal(), 0.7), (MADEProposal(model, "free"), 0.3)])


class TestCompiledLogQ:
    """``repro_made_log_q`` is the scorer of both block paths while the
    library is loaded, so the blocks agreeing cannot catch a wrong one:
    these check it against ``MADE.log_prob`` itself."""

    @pytest.mark.parametrize("hidden", [(8,), (6, 5)])
    @pytest.mark.parametrize("n_species", [2, 4])
    def test_scorer_equals_log_prob_free_and_on_a_composition(self, lib, n_species, hidden):
        model = perturbed_made(9, n_species, hidden, seed=n_species)
        configs = model.sample(12, np.random.default_rng(1))
        counts = composition_counts(configs[0], n_species)
        off = np.array([(composition_counts(row, n_species) != counts).any()
                        for row in configs])
        assert off.any() and not off.all()
        for composition, given in (("free", None), ("fixed", counts)):
            view = MADEProposal(model, composition).native_scorer(configs[:1])
            got = view.log_q(lib, configs)
            want = model.log_prob(one_hot(configs, n_species), counts=given)
            on = ~off if given is not None else np.full(len(configs), True)
            assert (got[~on] == -np.inf).all() and (want[~on] == -np.inf).all()
            np.testing.assert_allclose(got[on], want[on], rtol=1e-12, atol=0)

    def test_views_are_per_composition_and_dropped_with_the_cache(self, lib):
        model = perturbed_made(9, 2, (8,), seed=3)
        proposal = MADEProposal(model)
        a, b = np.zeros((1, 9), dtype=np.int8), np.ones((1, 9), dtype=np.int8)
        b[0, :4] = 0
        view = proposal.native_scorer(a)
        assert proposal.native_scorer(a) is view
        assert proposal.native_scorer(b) is not view
        assert not any(isinstance(v, superstep.MadeView) for v in vars(proposal).values())
        for p in model.parameters():  # retrain ...
            p.value *= 1.5
        proposal.invalidate_cache()  # ... and say so
        got = proposal.native_scorer(b).log_q(lib, b)
        np.testing.assert_allclose(got, model.log_prob(one_hot(b, 2), counts=[4, 5]),
                                   rtol=1e-12, atol=0)

    def test_only_a_made_proposal_has_a_view(self, lib):
        """A subclass and the VAE have none; a conditioned MADE's view
        scores as its model does under the proposal's condition."""
        model = perturbed_made(9, 2, (8,), seed=4)
        configs = np.zeros((2, 9), dtype=np.int8)
        configs[1, :3] = 1

        class Subclass(MADEProposal):
            pass

        assert Subclass(model).native_scorer(configs) is None
        vae = CategoricalVAE(VAEConfig(n_sites=9, n_species=2, latent_dim=2, hidden=(8,)), rng=0)
        assert VAEProposal(vae, composition="free").native_scorer(configs) is None
        assert MADEProposal(model).native_scorer(configs[:1]) is not None
        conditioned = MADE(MADEConfig(n_sites=9, n_species=2, hidden=(8,), cond_dim=2), rng=0)
        for p in conditioned.parameters():
            p.value += 0.5 * np.random.default_rng(5).standard_normal(p.value.shape)
        cond = np.array([0.3, -1.2])
        view = MADEProposal(conditioned, "free", cond=cond).native_scorer(configs)
        np.testing.assert_allclose(view.log_q(lib, configs),
                                   conditioned.log_prob(one_hot(configs, 2), cond),
                                   rtol=1e-12, atol=0)

    def test_a_stepped_team_pickles_copies_and_continues_bit_for_bit(self, lib):
        """The scorer's views hold pointers; none may reach a pickle of a
        team that stepped native blocks."""
        ham = IsingHamiltonian(square_lattice(3))
        team = BatchedWangLandauSampler(
            hamiltonian=ham, proposal=flip_made_proposal(perturbed_made(9, 2, (8,), 5)),
            grid=EnergyGrid.from_levels(ham.energy_levels()),
            initial_config=np.zeros((4, 9), dtype=np.int8), rng=6,
            config=WLConfig(batch_size=4))
        with pinned(lib) as took:
            team.steps(200)
        assert took == [True] and team.counters.log_q_scored > 0
        copies = [pickle.loads(pickle.dumps(team)), deepcopy(team)]
        with pinned(lib) as took:
            for t in [team, *copies]:
                t.steps(300)
        assert took == [True] * 3
        for t in copies:
            assert_same_team_state(t, team)

    def test_a_flip_made_campaign_resumes_from_a_checkpoint(self, lib, tmp_path):
        model = perturbed_made(16, 2, (8,), seed=7)

        def make_driver():
            ham = IsingHamiltonian(square_lattice(4))
            return REWLDriver(
                hamiltonian=ham, proposal_factory=lambda: flip_made_proposal(model),
                grid=EnergyGrid.from_levels(ham.energy_levels()),
                initial_config=np.zeros(16, dtype=np.int8),
                config=REWLConfig(n_windows=2, walkers_per_window=2, overlap=0.6,
                                  exchange_interval=100, ln_f_final=1e-6, seed=8))

        with pinned(lib) as took:
            straight = make_driver()
            straight.run(max_rounds=6)
            first = make_driver()
            first.run(max_rounds=3)
        ckpt = save_checkpoint(first, tmp_path / "made.ckpt")
        with pinned(lib) as took_resumed:
            resumed = load_checkpoint(make_driver(), ckpt)
            resumed.run(max_rounds=6)
        assert took and all(took + took_resumed)
        ref, res = straight.result(), resumed.result()
        assert res.rounds == ref.rounds and res.total_steps == ref.total_steps
        for a, b in zip(ref.window_ln_g, res.window_ln_g):
            assert np.array_equal(a, b)

    def test_a_subclass_pooled_block_is_declined(self, lib):
        """The q-ratio negative control overrides the log q methods, so the
        C loop must not score its rows: its blocks run in NumPy."""
        from tests.test_dl_batched import _NoRatioPooledMADEProposal

        ham = IsingHamiltonian(square_lattice(3))
        broken = _NoRatioPooledMADEProposal(perturbed_made(9, 2, (8,), 9), "free")
        team = BatchedWangLandauSampler(
            hamiltonian=ham, proposal=MixtureProposal([(FlipProposal(), 0.7), (broken, 0.3)]),
            grid=EnergyGrid.from_levels(ham.energy_levels()),
            initial_config=np.zeros((2, 9), dtype=np.int8), rng=10,
            config=WLConfig(batch_size=2))
        members, grids = one_block(team)
        assert members[0][1].native_fields() is not None
        TestDeclinedBlocks().declined(lib, ham, team, members, grids)
        with pinned(lib) as took:
            team.steps(50)
        assert took == [False] and team.counters.log_q_scored > 0


# ------------------------------------------------------------ the loader


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """A private, empty library cache and a fresh worker log under tmp_path."""
    monkeypatch.delenv(native.ENV_VAR, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv(events_mod.TRACE_DIR_ENV_VAR, str(tmp_path / "trace"))
    monkeypatch.setattr(events_mod, "_worker_log", None)
    monkeypatch.setattr(events_mod, "_worker_log_pid", None)
    native.reset()
    return tmp_path


def engine_events(tmp_path):
    path = tmp_path / "trace" / f"worker-{os.getpid()}.jsonl"
    if not path.exists():
        return []
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [r for r in records if r["kind"] == "engine.native"]


def small_run():
    """ln g of a short fused campaign (any path must give the same)."""
    drv = test_fused_campaign._swap_driver("fused")
    return drv.run(max_rounds=12).window_ln_g


class TestLoader:
    def test_build_publishes_one_tested_library_and_one_event(self, empty_cache):
        assert native.library() is not None
        info = native.status()
        assert info["active"] and info["reason"] == "ok"
        assert info["flags"] == "-O2 -fPIC -shared -ffp-contract=off"
        cache = empty_cache / "cache" / "repro-native"
        assert [p.name for p in cache.iterdir()] == [f"superstep-{info['source_hash']}.so"]
        assert info["cache"] == str(cache / f"superstep-{info['source_hash']}.so")
        assert (cache.stat().st_mode & 0o777) == 0o700
        native.library(), native.status(), native.describe()
        (event,) = engine_events(empty_cache)
        assert {k: event[k] for k in info} == info
        assert native.describe() == "native"
        # a second resolution is a cache hit: no compiler is started
        native.reset()
        with mock.patch.object(subprocess, "run", side_effect=AssertionError):
            assert native.library() is not None

    @pytest.fixture
    def reference(self):
        with pinned(None):  # resolves nothing: the tests below do that
            return small_run()

    def falls_back(self, tmp_path, reference, reason):
        assert native.library() is None
        info = native.status()
        assert not info["active"] and reason in info["reason"]
        assert native.describe() == f"numpy ({info['reason']})"
        (event,) = engine_events(tmp_path)
        assert event["active"] is False and event["reason"] == info["reason"]
        for a, b in zip(small_run(), reference):
            assert np.array_equal(a, b)

    def test_switch_falls_back(self, empty_cache, reference, monkeypatch):
        monkeypatch.setenv(native.ENV_VAR, "1")
        self.falls_back(empty_cache, reference, "REPRO_NO_NATIVE is set")

    def test_no_compiler_falls_back(self, empty_cache, reference, monkeypatch):
        monkeypatch.setenv("PATH", str(empty_cache))
        self.falls_back(empty_cache, reference, "no C compiler")

    def test_failed_build_falls_back(self, empty_cache, reference, monkeypatch):
        broken = empty_cache / "superstep.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        self.falls_back(empty_cache, reference, "build failed")
        assert list((empty_cache / "cache" / "repro-native").iterdir()) == []

    def test_failed_self_test_is_never_published(self, empty_cache, reference, monkeypatch):
        wrong = empty_cache / "superstep.c"
        text = native.SOURCE.read_text()
        assert "ln_g[cur] += tm->ln_f;" in text
        wrong.write_text(text.replace("ln_g[cur] += tm->ln_f;",
                                      "ln_g[cur] += tm->ln_f * 1.0000000000000002;"))
        monkeypatch.setattr(native, "SOURCE", wrong)
        self.falls_back(empty_cache, reference, "self-test")
        assert list((empty_cache / "cache" / "repro-native").iterdir()) == []

    def test_wrong_canonical_branch_is_never_published(self, empty_cache, reference,
                                                       monkeypatch):
        wrong = empty_cache / "superstep.c"
        text = native.SOURCE.read_text()
        assert "log_alpha = -tm->beta[r] * delta;" in text
        wrong.write_text(text.replace("log_alpha = -tm->beta[r] * delta;",
                                      "log_alpha = tm->beta[r] * delta;"))
        monkeypatch.setattr(native, "SOURCE", wrong)
        self.falls_back(empty_cache, reference, "self-test: native and NumPy blocks "
                        "disagree (canonical")
        assert list((empty_cache / "cache" / "repro-native").iterdir()) == []

    def test_unusable_cache_falls_back(self, empty_cache, reference, monkeypatch):
        blocker = empty_cache / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(native.tempfile, "tempdir", str(blocker))
        self.falls_back(empty_cache, reference, "cache directory")

    def test_cache_others_may_write_or_own_is_refused(self, empty_cache, monkeypatch):
        monkeypatch.setattr(native.tempfile, "tempdir", str(empty_cache / "a-file"))
        (empty_cache / "a-file").write_text("")
        cache = empty_cache / "cache" / "repro-native"
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        assert native.library() is None
        assert "cache directory" in native.status()["reason"]
        cache.chmod(0o700)
        if os.getuid() == 0:
            os.chown(cache, 12345, 12345)
            native.reset()
            assert native.library() is None
            os.chown(cache, 0, 0)
        native.reset()
        assert native.library() is not None

    def test_two_processes_building_at_once_both_get_a_valid_library(self, empty_cache):
        code = ("import json; from repro.kernels import native; "
                "from tests.test_native_superstep import small_run; "
                "print(json.dumps([native.status(), [a.tolist() for a in small_run()]]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC, str(Path(SRC).parent), os.environ.get("PYTHONPATH", "")]))
        racers = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                   stdout=subprocess.PIPE, text=True)
                  for _ in range(2)]
        outs = [json.loads(p.communicate(timeout=300)[0]) for p in racers]
        assert [p.returncode for p in racers] == [0, 0]
        (info_a, ln_g_a), (info_b, ln_g_b) = outs
        assert info_a["active"] and info_b["active"]
        assert info_a["cache"] == info_b["cache"] and ln_g_a == ln_g_b
        cache = empty_cache / "cache" / "repro-native"
        assert [p.name for p in cache.iterdir()] == [Path(info_a["cache"]).name]
        # and what they left is loadable and right
        assert native.library() is not None
        for a, b in zip(small_run(), ln_g_a):
            assert np.array_equal(a, np.asarray(b))


# -------------------------------------------------- which engine made a number


class TestEngineIsReported:
    def test_campaign_trace_report_checkpoint_and_manifest(self, superstep_path, tmp_path):
        sink = MemorySink()
        telemetry = Telemetry(events=EventLog(sinks=[sink]))
        drv = test_fused_campaign._driver(
            "fused", instrumentation=Instrumentation(telemetry=telemetry))
        drv.run(max_rounds=3)
        (event,) = [r for r in sink.records if r["kind"] == "engine.native"]
        assert event["active"] == (superstep_path == "native")
        want = "native" if superstep_path == "native" else "numpy (REPRO_NO_NATIVE is set)"
        assert native.describe() == want
        assert f"superstep: {want}\n" in render_report(sink.records)
        ckpt = save_checkpoint(drv, tmp_path / "c.ckpt")
        assert _read_state(ckpt)["superstep"] == want
        assert run_all._load_campaign(tmp_path / "none.json", "quick", 0, False)[
            "superstep"] == want

    def test_stand_alone_run_says_so_too(self, superstep_path):
        sink = MemorySink()
        ham, (team,) = random_system(5, "flip", True, 1, 2)
        team.run(max_steps=400, telemetry=Telemetry(events=EventLog(sinks=[sink])))
        (event,) = [r for r in sink.records if r["kind"] == "engine.native"]
        assert event["active"] == (superstep_path == "native")

    def test_one_native_block_span_per_block(self, superstep_path, tmp_path, monkeypatch):
        monkeypatch.setenv(events_mod.TRACE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(events_mod, "_worker_log", None)
        monkeypatch.setattr(events_mod, "_worker_log_pid", None)
        ham, teams = random_system(5, "swap", False, 4, 2)
        advance_block(teams, 530, ham)
        lines = (tmp_path / f"worker-{os.getpid()}.jsonl").read_text().splitlines()
        spans = [r for r in map(json.loads, lines)
                 if r["kind"] == "span" and r["name"] == "wl.native_block"]
        if superstep_path == "numpy":
            assert spans == []
        else:
            assert [(s["steps"], s["rows"]) for s in spans] == [(512, 8), (18, 8)]
            assert all(s["dur_s"] > 0 for s in spans)


    def test_a_profiler_keeps_every_block_in_c(self, lib, tmp_path, monkeypatch):
        """A profiler observes the compiled block instead of replacing it: a
        profiled one-row team and a profiled fused campaign hand every block
        to the C loop, which takes it; the worker log has one span per block;
        and the profiled team ends bit for bit where a bare one does."""
        monkeypatch.setenv(events_mod.TRACE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(events_mod, "_worker_log", None)
        monkeypatch.setattr(events_mod, "_worker_log_pid", None)

        def native_spans():
            lines = (tmp_path / f"worker-{os.getpid()}.jsonl").read_text().splitlines()
            return [r for r in map(json.loads, lines)
                    if r["kind"] == "span" and r["name"] == "wl.native_block"]

        ham = IsingHamiltonian(square_lattice(4))
        bare, profiled = (WangLandauSampler(
            hamiltonian=ham, proposal=FlipProposal(),
            grid=EnergyGrid.from_levels(ham.energy_levels()),
            initial_config=np.zeros(16, dtype=np.int8), rng=3,
            config=WLConfig(ln_f_final=1e-2)) for _ in range(2))
        profiled.enable_profiling(SectionProfiler(sample_every=1))
        with pinned(lib) as took:
            profiled.run(max_steps=20_000)
        assert took and all(took)
        assert profiled.profiler["wl.block"].calls == len(took) == len(native_spans())
        with pinned(lib):
            bare.run(max_steps=20_000)
        test_batched_wl.assert_same_team_state(profiled, bare)

        before = len(native_spans())
        prof = SectionProfiler(sample_every=1)
        with pinned(lib) as took:
            test_fused_campaign._driver(
                "fused", instrumentation=Instrumentation(profiler=prof)
            ).run(max_rounds=20)
        assert took and all(took)
        assert prof["wl.block"].calls > 0
        assert len(native_spans()) - before == len(took)


# --------------------------- the existing bit-identity contracts, on both paths


class TestContractsHoldOnBothPaths:
    """serial == fused == shm, block == scalar replay and checkpoint-resume:
    the existing tests, re-run with the super-step implementation pinned
    (their own runs take whichever path the environment selects)."""

    def test_serial_fused_shm_agree(self, superstep_path):
        suite = test_fused_campaign.TestFusedBitIdentity()
        suite.test_fused_matches_batched_serial()
        suite.test_swap_campaign_matches_on_every_backend()
        test_fused_campaign.TestShmBitIdentity().test_shm_matches_batched_serial()

    def test_block_equals_scalar_replay(self, superstep_path):
        ham = IsingHamiltonian(square_lattice(4))
        grid = EnergyGrid.from_levels(ham.energy_levels())
        suite = test_batched_wl.TestBlockAdvance()
        suite.test_block_equals_step_by_step_replay_of_its_draws(ham, grid)
        suite.test_mixed_campaign_matches_teams_stepped_alone(ham, grid)

    def test_checkpoint_resume(self, superstep_path, tmp_path):
        test_fused_campaign.TestFusedBitIdentity() \
            .test_checkpoint_resume_at_a_round_boundary(tmp_path)
        test_batched_wl.TestBatchedREWL() \
            .test_checkpoint_roundtrip_bit_identical(tmp_path)

    def test_paths_agree_with_each_other(self, lib):
        """...and the two paths give one campaign, rank processes included."""
        results = {}
        for path in ("native", "numpy"):
            with mock.patch.dict(os.environ):
                if path == "numpy":
                    os.environ[native.ENV_VAR] = "1"
                else:
                    os.environ.pop(native.ENV_VAR, None)
                native.reset()
                drv = test_fused_campaign._swap_driver("shm", shm_ranks=2)
                try:
                    results[path] = drv.run(max_rounds=40)
                finally:
                    drv.close()
                    native.reset()
        test_fused_campaign._assert_bit_identical(results["native"], results["numpy"])
