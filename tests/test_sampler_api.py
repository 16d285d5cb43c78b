"""The unified Sampler API: WLConfig, keyword-only constructors, registry.

Covers the api_redesign migration contract:

- :class:`WLConfig` validates its fields and is the only way to tune a WL
  sampler (the loose tuning keywords are gone);
- positional construction and the pre-redesign ``config=<ndarray>``
  spelling raise ``TypeError``;
- the driver takes its observability wiring only through
  :class:`~repro.obs.Instrumentation` (the per-field keywords are gone);
- every sampler satisfies the structural :class:`Sampler` protocol and is
  reachable through the :data:`SAMPLERS` registry;
- the repo itself is clean of deprecated-path uses (``repro tools
  lint-api``).
"""

import numpy as np
import pytest

from repro.hamiltonians import IsingHamiltonian
from repro.lattice import square_lattice
from repro.parallel import REWLConfig, REWLDriver
from repro.proposals import FlipProposal
from repro.sampling import (
    SAMPLERS,
    BatchedWangLandauSampler,
    EnergyGrid,
    MetropolisSampler,
    MulticanonicalSampler,
    ParallelTempering,
    Sampler,
    WangLandauSampler,
    WLConfig,
    WolffSampler,
    get_sampler,
    make_sampler,
    make_wang_landau,
    register_sampler,
)


@pytest.fixture
def ham():
    return IsingHamiltonian(square_lattice(4))


@pytest.fixture
def grid(ham):
    return EnergyGrid.from_levels(ham.energy_levels())


def wl_kwargs(ham, grid, **extra):
    base = dict(
        hamiltonian=ham, proposal=FlipProposal(), grid=grid,
        initial_config=np.zeros(16, dtype=np.int8), rng=0,
    )
    base.update(extra)
    return base


class TestWLConfig:
    def test_defaults(self):
        cfg = WLConfig()
        assert cfg.ln_f_init == 1.0
        assert cfg.ln_f_final == 1e-6
        assert cfg.flatness == 0.8
        assert cfg.schedule == "halving"
        assert cfg.batch_size == 1

    @pytest.mark.parametrize("bad", [
        dict(ln_f_init=0.0),
        dict(ln_f_final=0.0),
        dict(ln_f_init=1e-8, ln_f_final=1e-6),
        dict(flatness=0.0),
        dict(flatness=1.5),
        dict(schedule="linear"),
        dict(check_interval=0),
        dict(batch_size=0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            WLConfig(**bad)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WLConfig().flatness = 0.5


class TestRetiredConstruction:
    def test_positional_raises(self, ham, grid):
        with pytest.raises(TypeError, match="positional argument"):
            WangLandauSampler(ham, FlipProposal(), grid,
                              np.zeros(16, dtype=np.int8), 0)

    def test_config_array_kwarg_raises(self, ham, grid):
        for cls in (WangLandauSampler, BatchedWangLandauSampler, make_wang_landau):
            with pytest.raises(TypeError, match="takes a WLConfig"):
                cls(**wl_kwargs(ham, grid), config=np.zeros(16, dtype=np.int8))

    def test_unknown_kwarg_raises(self, ham, grid):
        with pytest.raises(TypeError, match="unexpected"):
            WangLandauSampler(**wl_kwargs(ham, grid), wibble=3)

    def test_missing_required_raises(self, ham):
        with pytest.raises(TypeError, match="missing"):
            WangLandauSampler(hamiltonian=ham)

    def test_rewl_positional_raises(self, ham, grid):
        cfg = REWLConfig(n_windows=2, walkers_per_window=1,
                         exchange_interval=100, seed=0)
        with pytest.raises(TypeError):
            REWLDriver(ham, lambda: FlipProposal(), grid,
                       np.zeros(16, dtype=np.int8), cfg)


class TestInstrumentationBundle:
    def test_bundle_and_legacy_together_raise(self, ham, grid):
        """The retired per-field keywords raise, with or without a bundle."""
        from repro.obs import Instrumentation, Telemetry

        cfg = REWLConfig(n_windows=2, walkers_per_window=1,
                         exchange_interval=100, seed=0)
        for bundle in (Instrumentation(telemetry=Telemetry()), None):
            with pytest.raises(TypeError, match="telemetry"):
                REWLDriver(
                    hamiltonian=ham, proposal_factory=FlipProposal, grid=grid,
                    initial_config=np.zeros(16, dtype=np.int8), config=cfg,
                    instrumentation=bundle, telemetry=Telemetry(),
                )

    def test_bundle_fields_reach_driver(self, ham, grid):
        from repro.obs import Instrumentation, Telemetry
        from repro.obs.profile import SectionProfiler

        cfg = REWLConfig(n_windows=2, walkers_per_window=1,
                         exchange_interval=100, seed=0)
        obs = Telemetry()
        prof = SectionProfiler(sample_every=4)
        drv = REWLDriver(
            hamiltonian=ham, proposal_factory=FlipProposal, grid=grid,
            initial_config=np.zeros(16, dtype=np.int8), config=cfg,
            instrumentation=Instrumentation(telemetry=obs, profiler=prof),
        )
        assert drv.obs is obs
        assert drv.profiler is prof


class TestSamplerProtocol:
    def test_all_samplers_satisfy_protocol(self):
        for cls in (MetropolisSampler, WangLandauSampler,
                    BatchedWangLandauSampler, MulticanonicalSampler,
                    ParallelTempering, WolffSampler):
            assert issubclass(cls, Sampler)

    def test_instance_check(self, ham, grid):
        wl = WangLandauSampler(**wl_kwargs(ham, grid))
        assert isinstance(wl, Sampler)

    def test_non_sampler_rejected(self):
        class NotASampler:
            pass

        assert not isinstance(NotASampler(), Sampler)


class TestRegistry:
    def test_known_names(self):
        for name in ("metropolis", "wang_landau", "batched_wang_landau",
                     "multicanonical", "tempering", "wolff"):
            assert name in SAMPLERS

    def test_get_sampler(self):
        assert get_sampler("wang_landau") is WangLandauSampler

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="registered"):
            get_sampler("quantum_annealing")

    def test_make_sampler(self, ham, grid):
        wl = make_sampler("wang_landau", **wl_kwargs(ham, grid))
        assert type(wl) is WangLandauSampler

    def test_register_rejects_runless_class(self):
        with pytest.raises(TypeError, match="protocol"):
            register_sampler("bogus")(object)

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="already registered"):
            register_sampler("wang_landau")(MetropolisSampler)


class TestLintApi:
    def test_repo_is_clean(self):
        from pathlib import Path

        from repro.tools.lint import lint_api

        root = Path(__file__).resolve().parent.parent
        assert lint_api(root) == []

    def test_lint_flags_deprecated_use(self, tmp_path):
        from repro.tools.lint import lint_api

        src = tmp_path / "src"
        src.mkdir()
        (src / "bad.py").write_text(
            "from repro.util.timers import Timer\n"       # lint-api: allow
            "x = ham.energy_batch(cfgs)\n"                # lint-api: allow
            "y = ham.energy_batch(cfgs)  # lint-api: allow\n"
            "from repro.nn import ConditionalMADE\n"       # lint-api: allow
            "from repro.proposals.dl_cmade import P\n"     # lint-api: allow
            "class TestConditionalMADEModel:\n"
        )
        hits = lint_api(tmp_path)
        assert len(hits) == 4
        assert {h[1] for h in hits} == {1, 2, 4, 5}  # line 3 opted out

    def test_lint_flags_the_scalar_proposal_api(self, tmp_path):
        from repro.tools.lint import lint_api

        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "moves.py").write_text(
            "def propose(self, config):\n"                # lint-api: allow
            "move = prop.propose(cfg, ham, rng)\n"        # lint-api: allow
            "m = Move(sites=s, new_values=v)\n"           # lint-api: allow
            "b = BatchMove(sites=s, new_values=v)\n"
            "b = prop.propose_many(cfg[None], ham, rng)\n"
            "row = {\"propose\": 0.1}\n"
            "move = benchmark(prop.propose, cfg, ham, rng)\n"  # lint-api: allow
        )
        assert [h[1] for h in lint_api(tmp_path)] == [1, 2, 3, 7]

    def test_lint_flags_profiled_views_under_src(self, tmp_path):
        from repro.tools.lint import lint_api

        for base in ("src", "tests"):
            (tmp_path / base).mkdir()
            (tmp_path / base / "views.py").write_text(
                "prop = proposal.profiled(prof)\n")  # lint-api: allow
        assert [h[0] for h in lint_api(tmp_path)] == ["src/views.py"]
