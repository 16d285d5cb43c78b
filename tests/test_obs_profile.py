"""Tests for repro.obs.profile: sampling semantics, merging, hot-path hooks."""

import pickle

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.nn import MADE, MADEConfig
from repro.obs import MetricsRegistry
from repro.obs.profile import (
    DEFAULT_SAMPLE_EVERY,
    SectionProfiler,
    SectionStat,
    contribute_profile,
    global_collector,
    parse_profile_spec,
    profile_from_env,
    reset_global_collector,
)
from repro.proposals import FlipProposal, MADEProposal
from repro.sampling import EnergyGrid, WangLandauSampler


def _ising():
    return IsingHamiltonian(square_lattice(4))


def _wl(seed=0, **kwargs):
    ham = _ising()
    grid = EnergyGrid.from_levels(ham.energy_levels())
    return WangLandauSampler(
        hamiltonian=ham, proposal=FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8),
        rng=seed, **kwargs,
    )


class TestSectionStat:
    def test_estimate_reconstructs_total_from_sampled_mean(self):
        stat = SectionStat(calls=100, timed=10, total_s=0.5)
        assert stat.mean_s == pytest.approx(0.05)
        assert stat.est_total_s == pytest.approx(5.0)

    def test_merge_adds_counts_and_combines_extrema(self):
        a = SectionStat(calls=10, timed=2, total_s=0.2, min_s=0.05, max_s=0.15)
        b = SectionStat(calls=4, timed=1, total_s=0.3, min_s=0.3, max_s=0.3)
        a.merge(b)
        assert (a.calls, a.timed) == (14, 3)
        assert a.total_s == pytest.approx(0.5)
        assert a.min_s == pytest.approx(0.05)
        assert a.max_s == pytest.approx(0.3)

    def test_as_dict_untimed_has_null_extrema(self):
        d = SectionStat(calls=3).as_dict()
        assert d["min_s"] is None and d["max_s"] is None
        assert d["est_total_s"] == 0.0


class TestSectionProfiler:
    def test_counts_every_call_times_every_nth(self):
        prof = SectionProfiler(sample_every=4)
        for _ in range(10):
            tok = prof.start("s")
            prof.stop("s", tok)
        stat = prof["s"]
        assert stat.calls == 10
        assert stat.timed == 3  # calls 1, 5, 9

    def test_stride_one_times_everything(self):
        prof = SectionProfiler(sample_every=1)
        for _ in range(5):
            with prof.section("s"):
                pass
        assert prof["s"].timed == prof["s"].calls == 5

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError, match="sample_every"):
            SectionProfiler(sample_every=0)

    def test_merge_and_roundtrip(self):
        a = SectionProfiler(sample_every=1)
        b = SectionProfiler(sample_every=1)
        for prof, n in ((a, 3), (b, 2)):
            for _ in range(n):
                with prof.section("x"):
                    pass
        with b.section("only_b"):
            pass
        a.merge(b)
        assert a["x"].calls == 5
        assert "only_b" in a
        back = SectionProfiler.from_dict(a.as_dict())
        assert back.as_dict() == a.as_dict()

    def test_delta_since_isolates_new_work(self):
        prof = SectionProfiler(sample_every=1)
        with prof.section("s"):
            pass
        before = prof.as_dict()
        for _ in range(4):
            with prof.section("s"):
                pass
        delta = prof.delta_since(before)
        assert delta["s"].calls == 4
        # A fresh snapshot yields an empty delta.
        assert len(prof.delta_since(prof.as_dict())) == 0

    def test_publish_writes_idempotent_gauges(self):
        prof = SectionProfiler(sample_every=1)
        with prof.section("s"):
            pass
        metrics = MetricsRegistry()
        prof.publish(metrics)
        prof.publish(metrics)  # re-publishing must not double-count
        assert metrics["profile.s.calls"].value == 1.0
        assert "profile.s.est_total_s" in metrics


class TestEnvActivation:
    @pytest.mark.parametrize("spec,expected", [
        ("", None), ("0", None), ("off", None), ("false", None),
        ("1", DEFAULT_SAMPLE_EVERY), ("on", DEFAULT_SAMPLE_EVERY),
        ("every=16", 16), ("128", 128),
    ])
    def test_parse_profile_spec(self, spec, expected):
        assert parse_profile_spec(spec) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="REPRO_PROFILE"):
            parse_profile_spec("banana")

    def test_profile_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "every=7")
        prof = profile_from_env()
        assert prof is not None and prof.sample_every == 7
        monkeypatch.delenv("REPRO_PROFILE")
        assert profile_from_env() is None

    def test_global_collector_aggregates_contributions(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        reset_global_collector()
        try:
            run = SectionProfiler(sample_every=1)
            with run.section("s"):
                pass
            contribute_profile(run)
            contribute_profile(run)
            collector = global_collector()
            assert collector["s"].calls == 2
        finally:
            reset_global_collector()

    def test_collector_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        reset_global_collector()
        assert global_collector() is None
        contribute_profile(SectionProfiler())  # must be a no-op, not an error


class TestSamplerIntegration:
    def test_enable_profiling_wraps_hot_paths(self):
        """Attaching a profiler only stores it: the team's own steps then
        time the field draw and the block, and its flatness checks."""
        wl = _wl()
        prof = SectionProfiler(sample_every=1)
        wl.enable_profiling(prof)
        assert wl.profiler is prof and isinstance(wl.proposal, FlipProposal)
        for _ in range(50):
            wl.step()
        wl.is_flat()
        assert prof["proposal.flip.fields"].calls == 50
        assert prof["wl.block"].calls == 50
        assert prof["wl.flat_check"].calls == 1

    def test_pooled_steps_time_the_draw_and_the_block(self):
        """A pooled proposal (a conditioned MADE) steps in blocks like a
        local one: one field draw and one block per advance call."""
        ham = _ising()
        model = MADE(MADEConfig(n_sites=16, n_species=2, hidden=(8,), cond_dim=1), rng=0)
        made = MADEProposal(model, composition="free", cond=[0.5])
        wl = WangLandauSampler(
            hamiltonian=ham, proposal=made,
            grid=EnergyGrid.from_levels(ham.energy_levels()),
            initial_config=np.zeros(16, dtype=np.int8), rng=0,
        )
        prof = SectionProfiler(sample_every=1)
        wl.enable_profiling(prof)
        wl.steps(20)
        wl.steps(20)
        assert prof[f"proposal.{wl.proposal.name}.fields"].calls == 2
        assert prof["wl.block"].calls == 2

    def test_enable_profiling_twice_rejected(self):
        wl = _wl()
        wl.enable_profiling(SectionProfiler())
        with pytest.raises(RuntimeError, match="already"):
            wl.enable_profiling(SectionProfiler())

    def test_profiled_wl_is_bit_identical(self):
        bare, profiled = _wl(seed=3), _wl(seed=3)
        profiled.enable_profiling(SectionProfiler(sample_every=2))
        for _ in range(500):
            bare.step()
            profiled.step()
        bare.run(max_steps=20_000)
        profiled.run(max_steps=20_000)
        assert np.array_equal(bare.ln_g, profiled.ln_g)
        assert np.array_equal(bare.histogram, profiled.histogram)
        assert np.array_equal(bare.config, profiled.config)
        assert bare.rng.bit_generator.state == profiled.rng.bit_generator.state
        assert pickle.loads(pickle.dumps(profiled)).profiler.names() \
            == profiled.profiler.names()
