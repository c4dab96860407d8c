"""Monte-Carlo harnesses: scaling limit, survival sweep, decay fits."""

import dataclasses
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusrd.experiments as experiments_module
from torusrd.diagnostics import lq_norm_vector
from torusrd.experiments import (
    DecayPlan,
    ScalingLimitPlan,
    SurvivalPlan,
    _Reference,
    _StreamingDistance,
    run_decay,
    run_scaling_limit,
    run_survival,
)
from torusrd.exponents import ParamSet, admissibility
from torusrd.fields import (ArgumentErrors, GridField, TorusGrid, dealias_band_of,
                            dealias_in_place, forward)
from torusrd.noise import NoiseModel, build_theta_shell
from torusrd.reactions import build_builtin
from torusrd.solver import SolverConfig, Stepper, run

from spectral_helpers import block_of, mode_field


def small_heat_plan(nu=0.1, shells=(1, 2), paths=6, n=48, T=0.15):
    grid = TorusGrid(2, n)
    sys0 = build_builtin("zero", [0.01])
    cfg = SolverConfig(dt=2e-3, T=T, noise_on=nu > 0, balance_q=(),
                       record_every=5, seed=31)
    v0 = [mode_field(grid, (1, 0), 0.5)]
    return ScalingLimitPlan(
        shells=tuple(shells), gamma=0.0, nu=nu, paths=paths,
        solver=cfg, sys=sys0, v0=v0, epsilon=0.02,
    )


class TestScalingLimit:
    def test_zero_noise_gives_zero_distance(self):
        plan = small_heat_plan(nu=0.0, shells=(1,), paths=2, n=16, T=0.05)
        result = run_scaling_limit(plan)
        assert np.abs(result.shells[0].distances).max() == 0.0

    def test_noise_off_paths_read_one_deterministic_gap(self):
        # with the noise off at nu > 0 the paths run nu_i unenhanced against
        # the nu_i + nu reference: the same nonzero distance on every shell
        plan = small_heat_plan(shells=(1, 2), paths=2, n=16, T=0.05)
        plan = dataclasses.replace(plan, solver=dataclasses.replace(plan.solver, noise_on=False))
        dists = np.concatenate([s.distances for s in run_scaling_limit(plan).shells])
        assert dists[0] > 0 and np.all(dists == dists[0])

    def test_distance_decreases_with_shell(self):
        result = run_scaling_limit(small_heat_plan())
        means = [s.mean for s in result.shells]
        assert means[1] < means[0]
        assert all(m > 0 for m in means)

    def test_deterministic_tables(self):
        plan = small_heat_plan(paths=3, T=0.05)
        t1 = run_scaling_limit(plan).table()
        t2 = run_scaling_limit(plan).table()
        assert t1 == t2

    def test_unresolved_shell_rejected(self):
        with pytest.raises(ValueError, match="resolve"):
            small_heat_plan(shells=(1, 16), n=48)

    def test_step_guard_checked_for_every_shell_at_construction(self):
        # shells 1-8 pass the guard at 96^2, dt = 2.5e-3; shell 12 does not
        grid = TorusGrid(2, 96)
        cfg = SolverConfig(dt=2.5e-3, T=0.25, balance_q=())
        with pytest.raises(ValueError, match="shell 12: dt = 0.0025 violates the noise step guard"):
            ScalingLimitPlan(shells=(1, 2, 4, 8, 12), gamma=0.0, nu=0.1, paths=1,
                             solver=cfg, sys=build_builtin("zero", [0.01]),
                             v0=[mode_field(grid, (1, 0), 1.0)], epsilon=0.1)

    def test_shells_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            small_heat_plan(shells=(2, 1))

    @pytest.mark.parametrize("shells", [(), (0, 1)])
    def test_shells_must_be_nonempty_and_positive(self, shells):
        with pytest.raises(ArgumentErrors, match="increasing") as info:
            small_heat_plan(shells=shells)
        assert list(info.value.problems) == ["shells"]

    @pytest.mark.parametrize("change, error", [
        ({"r": 0.5}, "r: must be >= 1, got 0.5"),
        ({"q": 0.0}, "q: must be >= 1, got 0.0"),
        ({"hminus_gamma": -1.0}, "hminus_gamma: must be >= 0, got -1.0"),
    ])
    def test_distance_exponents_checked(self, change, error):
        with pytest.raises(ArgumentErrors) as info:
            dataclasses.replace(small_heat_plan(), **change)
        assert str(info.value) == error

    def test_hminus_tracking(self):
        plan = small_heat_plan(paths=2, T=0.05)
        plan = ScalingLimitPlan(
            shells=plan.shells, gamma=plan.gamma, nu=plan.nu, paths=plan.paths,
            solver=plan.solver, sys=plan.sys, v0=plan.v0, epsilon=plan.epsilon,
            hminus_gamma=0.5,
        )
        result = run_scaling_limit(plan)
        assert result.shells[0].hminus_distances is not None
        assert np.all(result.shells[0].hminus_distances >= 0)

    def test_uniform_lq_bound_across_shells(self):
        # sup_t |v| stays of the order of the data uniformly over shells
        result = run_scaling_limit(small_heat_plan())
        for s in result.shells:
            assert s.max_lq < 2.0

    def test_blown_up_paths_are_tolerated_and_reported(self):
        # with the noise off the paths run f = v^2 from 2 + 2 cos 2 pi x at
        # nu_i alone and blow up at 0.192, between two samples; the reference
        # diffuses at nu_i + nu = 1.001, flattens the data to its mean 2
        # first, and survives to T
        grid = TorusGrid(2, 16)
        sys = build_builtin("quadratic_unsafe", [0.001], allow_unsafe=True)
        cfg = SolverConfig(dt=2e-3, T=0.2, noise_on=False, balance_q=(),
                           record_every=5, seed=5, blowup_threshold=10.0,
                           blowup_norm_q0=4.0)
        v0 = [GridField(grid, 2.0 + mode_field(grid, (1, 0), 1.0).values)]
        plan = ScalingLimitPlan(shells=(1,), gamma=0.0, nu=1.0, paths=2,
                                solver=cfg, sys=sys, v0=v0, epsilon=0.1)
        shell = run_scaling_limit(plan).shells[0]
        assert shell.taus == [pytest.approx(0.192)] * 2
        assert np.all(np.isfinite(shell.distances)) and np.all(shell.distances > 0)

    def test_blown_up_reference_rejected_before_any_shell(self, monkeypatch):
        # constant data 4 under f = v^2 reaches 5 at t = 0.05; the explicit steps
        # cross the threshold at 0.052 < T
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["path_index"])
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "run", counted)
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(dt=2e-3, T=0.1, record_every=2, seed=5, blowup_threshold=5.0)
        plan = ScalingLimitPlan(shells=(1, 2), gamma=0.0, nu=0.1, paths=2, solver=cfg,
                                sys=build_builtin("quadratic_unsafe", [0.05], allow_unsafe=True),
                                v0=[GridField(grid, np.full(grid.shape, 4.0))], epsilon=0.1)
        with pytest.raises(ValueError, match=r"reference blows up at tau = 0\.052, by T = 0\.1:"):
            run_scaling_limit(plan)
        assert calls == [0]

    def test_worker_count_does_not_change_tables(self):
        # counter-based path seeding: results are scheduling-invariant
        plan = small_heat_plan(paths=4, T=0.05)
        serial = run_scaling_limit(plan, threads=1)
        pooled = run_scaling_limit(plan, threads=3)
        for a, b in zip(serial.shells, pooled.shells):
            assert np.array_equal(a.distances, b.distances)

    def test_worker_count_does_not_change_product_grid_tables(self):
        # strat_substep at 32^2, shells 1 and 2: the Wong-Zakai series runs
        # on 24^2 and 28^2 product grids
        plan = small_heat_plan(shells=(1, 2), paths=4, n=32, T=0.02)
        plan = dataclasses.replace(
            plan, solver=dataclasses.replace(plan.solver, scheme="strat_substep"))
        serial = run_scaling_limit(plan, threads=1)
        pooled = run_scaling_limit(plan, threads=2)
        for a, b in zip(serial.shells, pooled.shells):
            assert np.array_equal(a.distances, b.distances)
            assert a.max_lq == b.max_lq


class TestNonlinearEnhancedDiffusion:
    """The scaling limit with the reaction on: the cubic non-triangular
    system (q = (1, 2), p = (2, 1), h = 3) at 48^2, nu_i = (0.001, 0.05),
    nu = 0.1, 8 paths per shell, with an L^{q0} blow-up norm whose q0 the
    paper admits."""

    Q0 = 3.0

    @classmethod
    def setup_class(cls):
        grid = TorusGrid(2, 48)
        cls.sys = build_builtin("cubic_nontriangular", [0.001, 0.05])
        cls.cfg = SolverConfig(dt=1e-3, T=0.25, noise_on=True, balance_q=(), record_every=5,
                               seed=23, blowup_norm_q0=cls.Q0)
        x, y = grid.node_coordinates()
        cls.v0 = [GridField(grid, 2.0 + 1.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)),
                  GridField(grid, 2.0 + 1.5 * np.sin(2 * np.pi * (x + 2 * y)))]

    def test_q0_is_admissible(self):
        # the parse's validate.admissibility gate, and the q window of the strong exponents
        report = admissibility(ParamSet(d=2, h=self.sys.h, q=self.Q0, p=4.0, delta=1.1))
        assert self.sys.h == 3.0
        assert report.q_meets_delayed_blowup and report.q_in_window

    def test_distance_falls_with_the_shell(self):
        plan = ScalingLimitPlan(shells=(1, 2, 4), gamma=0.0, nu=0.1, paths=8, solver=self.cfg,
                                sys=self.sys, v0=self.v0, epsilon=0.05)
        result = run_scaling_limit(plan)
        assert all(tau is None for s in result.shells for tau in s.taus)
        means = [s.mean for s in result.shells]
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.5 * means[0]

    def test_weighted_mass_is_constant_on_every_noisy_path(self):
        noise = NoiseModel(build_theta_shell(4, 0.0, 2), nu=0.1)
        alpha = self.sys.mass_alpha
        for path in range(2):
            state, record = run(self.sys, noise, self.cfg, self.v0, path_index=path)
            mass = record.mass @ alpha
            assert state.blown_up is None and len(mass) == 51
            assert np.abs(mass - mass[0]).max() <= 1e-8 * abs(mass[0])


def _band_spectra(values: np.ndarray, d: int) -> np.ndarray:
    """The dealias-band spectrum of grid values (a species stack), the state
    a path holds."""
    return dealias_in_place(forward(values, d), d, dealias_band_of(values.shape[-1]))


def _state(spectra: np.ndarray, blown_up=None, step_index=0):
    """The state of step step_index that holds the band spectra (fftn
    layout), as band blocks."""
    grid = TorusGrid(spectra.ndim - 1, spectra.shape[-1])
    return types.SimpleNamespace(fields=block_of(grid, spectra), blown_up=blown_up,
                                 step_index=step_index)


def _reference(times, spectra, r=2.0, q=2.0):
    """The _Reference of a trajectory of band spectra (fftn layout) at times,
    each a record step."""
    ref = _Reference(TorusGrid(spectra[0].ndim - 1, spectra[0].shape[-1]), r, q, 1,
                     len(times) - 1)
    for i, (t, c) in enumerate(zip(times, spectra)):
        ref(t, c, _state(c, step_index=i))
    return ref


def _streamed(ref, path, times, r=2.0, q=2.0):
    """The _StreamingDistance of the trajectory of band spectra path to ref,
    both sampled at times."""
    dist = _StreamingDistance(_reference(times, ref, r, q))
    for t, spectra in zip(times, path):
        dist(t, None, _state(spectra))
    return dist.distance()


def _trajectory(plan, sys, noise, **kwargs):
    """The grid values of a run of sys from plan's v0 on the steps its
    record samples, as the observer sees them."""
    out = []
    run(sys, noise, plan.solver, plan.v0, observer=lambda t, values, st: (
        None if values is None else out.append(values.copy())), **kwargs)
    return out


class TestStreamingDistance:
    """The L^r(0,T; L^q) distance that run_scaling_limit streams."""

    def test_scaling_limit_distance_is_the_recorded_trajectories_distance(self):
        # q = 3: the grid branch, its difference from one inverse transform
        plan = dataclasses.replace(small_heat_plan(shells=(1,), paths=2, n=16, T=0.05),
                                   q=3.0)
        result = run_scaling_limit(plan)
        ref = _trajectory(plan, plan.sys.enhanced(plan.nu), None)
        noise = NoiseModel(build_theta_shell(1, plan.gamma, 2), nu=plan.nu)
        for p, got in enumerate(result.shells[0].distances):
            norms = np.array([lq_norm_vector(a - b, plan.q)
                              for a, b in zip(_trajectory(plan, plan.sys, noise, path_index=p), ref)])
            expected = np.trapezoid(norms**plan.r, result.reference_times) ** (1.0 / plan.r)
            assert got > 0 and got == pytest.approx(expected, rel=1e-13)

    def test_constant_offset_closed_form(self):
        times = np.linspace(0.0, 1.0, 21)
        ell = 3
        ref = [np.zeros((ell, 16, 16), dtype=complex)] * len(times)
        path = [_band_spectra(np.full((ell, 16, 16), 0.7), 2)] * len(times)
        # |u - w|_{L^q} = c sqrt(ell) at every time; L^r over [0,1] keeps it
        assert _streamed(ref, path, times) == pytest.approx(0.7 * np.sqrt(ell), rel=1e-12)

    def test_blown_up_path_ends_at_its_off_cadence_sample(self):
        # a path's blow-up step off the reference cadence adds no norm
        times = np.linspace(0.0, 1.0, 5)
        ref = [np.zeros((1, 8, 8), dtype=complex)] * len(times)
        dist = _StreamingDistance(_reference(times, ref))
        dist(0.0, None, _state(_band_spectra(np.ones((1, 8, 8)), 2)))
        dist(0.1, np.full((1, 8, 8), np.inf), _state(np.full((1, 8, 8), np.inf + 0j), 0.1))
        assert dist.norms == [1.0] and dist.max_lq == 1.0

    def test_off_cadence_sample_rejected(self):
        # a path that steps past a reference time without sampling it
        times = np.linspace(0.0, 1.0, 5)
        ref = [np.zeros((1, 8, 8), dtype=complex)] * len(times)
        dist = _StreamingDistance(_reference(times, ref))
        dist(0.0, None, _state(ref[0]))
        dist(0.125, None, _state(ref[0]))  # between reference times: not sampled
        with pytest.raises(ValueError, match="off the reference cadence"):
            dist(0.5, None, _state(ref[1]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 1.0, 6)
        a, b, c = ([_band_spectra(v, 2) for v in rng.standard_normal((6, 2, 8, 8))]
                   for _ in range(3))

        def d(u, w):
            return _streamed(w, u, times, q=3.0)

        assert d(a, c) <= d(a, b) + d(b, c) + 1e-12
        assert d(a, b) == pytest.approx(d(b, a))
        assert d(a, a) == 0.0


def _two_species_plan(d: int, n: int, q: float = 2.0, nu: float = 0.1):
    """A two-species zero-reaction scaling-limit plan with an H^{-1/2}
    distance: record_every 2 of 10 steps, two shells of two paths."""
    grid = TorusGrid(d, n)
    mode = (1,) + (0,) * (d - 1)
    v0 = [mode_field(grid, mode, 0.5), GridField(grid, 1.0 + mode_field(grid, mode[::-1], 0.3).values)]
    cfg = SolverConfig(dt=2e-3, T=0.02, record_every=2, seed=7, balance_q=())
    return ScalingLimitPlan(shells=(1, 2), gamma=0.0, nu=nu, paths=2, solver=cfg,
                            sys=build_builtin("zero", [0.01, 0.02]), v0=v0, epsilon=0.05,
                            q=q, hminus_gamma=0.5)


def _recording(cls, made: list):
    """A subclass of cls that appends each instance it makes to made."""

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    return Recorded


class TestSpectralObservables:
    """The scaling-limit observables read from the half band equal their grid
    formulas: lq_norm_vector of the grid values (or of their difference) and
    the H^{-gamma} sum over forward of the grid difference."""

    @pytest.fixture
    def references(self, monkeypatch):
        made = []
        monkeypatch.setattr(experiments_module, "_Reference",
                            _recording(experiments_module._Reference, made))
        return made

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 16)])
    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_observables_equal_their_grid_formulas(self, d, n, q, references):
        plan = _two_species_plan(d, n, q)
        result = run_scaling_limit(plan)
        grid = plan.v0[0].grid
        band = grid.dealias_band
        [ref] = references
        # a linear reference keeps its t = 0 half band only
        [half] = ref.halves
        assert half.shape == (2,) + (2 * band + 1,) * (d - 1) + (band + 1,)
        weight = (1.0 + grid.k_squared) ** -0.5
        ref_values = _trajectory(plan, plan.sys.enhanced(plan.nu), None)
        for si, shell in enumerate(result.shells):
            noise = NoiseModel(build_theta_shell(shell.shell, plan.gamma, d), nu=plan.nu)
            max_lq = 0.0
            for p in range(plan.paths):
                values = _trajectory(plan, plan.sys, noise, path_index=si * plan.paths + p)
                diffs = [a - b for a, b in zip(values, ref_values)]
                norms = np.array([lq_norm_vector(x, q) for x in diffs])
                expected = np.trapezoid(norms**plan.r, result.reference_times) ** (1.0 / plan.r)
                hminus = max(np.sqrt(np.sum(weight * np.abs(forward(x, d)) ** 2)) for x in diffs)
                max_lq = max([max_lq] + [lq_norm_vector(v, q) for v in values])
                assert shell.distances[p] > 0
                assert shell.distances[p] == pytest.approx(expected, rel=1e-13)
                assert shell.hminus_distances[p] == pytest.approx(hminus, rel=1e-13)
            assert shell.max_lq == pytest.approx(max_lq, rel=1e-13)

    def test_3d_q2_distance_keeps_its_bits(self):
        # the path's and the reference's half bands are read from the band
        # block by the open-mesh index (half_band_index), whose result the
        # L^2 sum adds in its memory order: a slice of the block, summed in
        # another order, moves the distance by about one ulp
        result = run_scaling_limit(_two_species_plan(3, 16, 2.0))
        assert [d.hex() for d in result.shells[0].distances] == [
            "0x1.8a329331797a8p-6", "0x1.f8db0906c1c02p-6"]

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_zero_noise_distance_is_exactly_zero(self, q):
        result = run_scaling_limit(_two_species_plan(3, 16, q, nu=0.0))
        for shell in result.shells:
            assert np.all(shell.distances == 0.0) and np.all(shell.hminus_distances == 0.0)


class TestObserverCost:
    def test_q2_path_reads_grid_values_at_t0_and_its_last_step_only(self, monkeypatch):
        # the reference and every path read their grid values at t = 0 and T
        # only: the reference reads its record steps' band blocks
        # keyed by the Stepper itself, which the dict keeps alive: a freed
        # Stepper's id() can be reused by the next path's
        calls: dict[Stepper, list] = {}
        to_values = Stepper.to_values

        def counted(self, fields):
            calls.setdefault(self, [self.noise is not None, 0])[1] += 1
            return to_values(self, fields)

        monkeypatch.setattr(Stepper, "to_values", counted)
        plan = _two_species_plan(2, 16)
        result = run_scaling_limit(plan)
        assert len(result.reference_times) == 6  # t = 0 and 5 record steps
        path_calls = [n for noisy, n in calls.values() if noisy]
        assert path_calls == [2] * (len(plan.shells) * plan.paths)
        assert [n for noisy, n in calls.values() if not noisy] == [2]

    def test_tables_do_not_depend_on_the_thread_count(self):
        plan = _two_species_plan(2, 16)
        one, two = (run_scaling_limit(plan, threads=k) for k in (1, 2))
        assert one.table() == two.table()
        for a, b in zip(one.shells, two.shells):
            assert np.array_equal(a.distances, b.distances)
            assert np.array_equal(a.hminus_distances, b.hminus_distances)


class TestRegeneratedReference:
    """A linear sweep keeps the t = 0 half band of its reference, and each
    path regenerates the others by the reference's propagator: its
    observables keep the bits they have against the half bands the reference
    run would store, which a nonlinear sweep still stores."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 16)])
    @pytest.mark.parametrize("q", [2.0, 4.0])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_observables_equal_those_against_stored_half_bands(self, d, n, q, threads,
                                                                monkeypatch):
        plan = _two_species_plan(d, n, q)
        refs, dists = [], []
        monkeypatch.setattr(experiments_module, "_Reference",
                            _recording(experiments_module._Reference, refs))
        monkeypatch.setattr(experiments_module, "_StreamingDistance",
                            _recording(experiments_module._StreamingDistance, dists))
        regenerated = run_scaling_limit(plan, threads=threads)
        [ref] = refs
        assert ref.propagator is not None and len(ref.halves) == 1
        # every path dropped its copy after its last sample
        assert len(dists) == len(plan.shells) * plan.paths
        assert all(dist.heat is None for dist in dists)

        class Stored(experiments_module._Reference):  # one half band per sample
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.propagator = None

        monkeypatch.setattr(experiments_module, "_Reference", _recording(Stored, refs))
        stored = run_scaling_limit(plan, threads=threads)
        assert len(refs[1].halves) == len(stored.reference_times) == 6
        assert np.array_equal(regenerated.reference_times, stored.reference_times)
        for a, b in zip(regenerated.shells, stored.shells):
            assert np.array_equal(a.distances, b.distances)
            assert np.array_equal(a.hminus_distances, b.hminus_distances)
            assert a.max_lq == b.max_lq and a.taus == b.taus

    def test_nonlinear_reference_stores_a_half_band_per_sample(self, monkeypatch):
        refs = []
        monkeypatch.setattr(experiments_module, "_Reference",
                            _recording(experiments_module._Reference, refs))
        plan = dataclasses.replace(_two_species_plan(2, 16), sys=build_builtin("logistic", [0.05]),
                                   v0=[GridField(TorusGrid(2, 16), np.full((16, 16), 0.6))])
        result = run_scaling_limit(plan)
        [ref] = refs
        band = plan.v0[0].grid.dealias_band
        assert ref.propagator is None and len(ref.halves) == len(result.reference_times) == 6
        assert all(h.shape == (1, 2 * band + 1, band + 1) for h in ref.halves)

    def test_blown_up_path_drops_its_copy(self):
        grid = TorusGrid(2, 8)
        spectra = _band_spectra(np.ones((1, 8, 8)), 2)
        ref = _Reference(grid, 2.0, 2.0, 1, 2, propagator=block_of(grid, np.full((1, 8, 8), 0.5)))
        for i, t in enumerate((0.0, 0.5, 1.0)):
            ref(t, np.ones((1, 8, 8)), _state(spectra, step_index=i))
        assert len(ref.halves) == 1
        dist = _StreamingDistance(ref)
        dist(0.0, None, _state(spectra, None, 0))
        assert dist.heat is not None and dist.norms == [0.0]
        dist(0.25, None, _state(spectra, 0.25, 1))
        assert dist.heat is None and dist.norms == [0.0]

    def test_peak_memory_does_not_grow_with_the_reference_samples(self):
        # T and the samples after t = 0 x4 (5 -> 20 at 24^2, two species):
        # the peaks differ by less than one half band, where a reference
        # storing each sample would grow by 15 of them
        plan = _two_species_plan(2, 24)
        long = _with_solver(plan, T=4 * plan.solver.T)
        half_band = plan.sys.ell * (2 * 8 + 1) * (8 + 1) * 16  # bytes, K = 8
        run_scaling_limit(long)  # fills the lazy caches before the peaks are taken

        def peak(p):
            tracemalloc.start()
            try:
                result = run_scaling_limit(p)
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (short_result, short_peak), (long_result, long_peak) = peak(plan), peak(long)
        assert (len(short_result.reference_times), len(long_result.reference_times)) == (6, 21)
        assert abs(long_peak - short_peak) < half_band


def _blowing_survival_plan():
    """f = v^2 from data near 2: paths blow up near t = 0.5, the noisy ones
    at their own tau."""
    grid = TorusGrid(2, 16)
    sys = build_builtin("quadratic_unsafe", [0.05], allow_unsafe=True)
    cfg = SolverConfig(dt=2e-3, T=0.6, noise_on=True, balance_q=(), seed=9,
                       blowup_threshold=1e3, blowup_norm_q0=4.0)
    v0 = [GridField(grid, 2.0 + mode_field(grid, (1, 0), 0.25).values)]
    return SurvivalPlan(nus=(0.0, 0.2), shell_n=1, gamma=0.0, paths=3,
                        solver=cfg, sys=sys, v0=v0)


class TestSurvival:
    def test_gentle_system_always_survives(self):
        grid = TorusGrid(2, 16)
        sys = build_builtin("logistic", [0.1])
        cfg = SolverConfig(dt=5e-3, T=0.5, noise_on=True, balance_q=(), seed=3)
        v0 = [GridField(grid, np.full(grid.shape, 0.5))]
        plan = SurvivalPlan(nus=(0.05, 0.1), shell_n=1, gamma=0.0, paths=8,
                            solver=cfg, sys=sys, v0=v0)
        result = run_survival(plan)
        assert all(r.p_hat == 1.0 for r in result.rows)
        assert result.monotone_in_nu()

    def test_detector_calibration_mode(self):
        # f = v^2 with constant data 2 and no noise: every path blows up
        # near the 1/v0 = 0.5 mark
        grid = TorusGrid(2, 8)
        sys = build_builtin("quadratic_unsafe", [0.1], allow_unsafe=True)
        cfg = SolverConfig(dt=5e-4, T=1.0, noise_on=False, balance_q=(),
                           blowup_threshold=1e3, blowup_norm_q0=4.0)
        v0 = [GridField(grid, np.full(grid.shape, 2.0))]
        plan = SurvivalPlan(nus=(0.0,), shell_n=1, gamma=0.0, paths=4,
                            solver=cfg, sys=sys, v0=v0)
        result = run_survival(plan)
        row = result.rows[0]
        assert row.p_hat == 0.0
        assert abs(row.mean_tau_blowups - 0.5) < 0.1

    def test_step_guard_checked_for_every_nu_at_construction(self):
        # shell 1 on 32 points at dt = 1e-2: the guard allows nu <= 0.78
        grid = TorusGrid(2, 32)
        sys = build_builtin("logistic", [0.1])
        v0 = [GridField(grid, np.full(grid.shape, 0.5))]
        cfg = SolverConfig(dt=1e-2, T=0.1, noise_on=True, balance_q=())
        with pytest.raises(ValueError, match="nu = 1.0: dt = 0.01 violates the noise step guard"):
            SurvivalPlan(nus=(0.1, 0.5, 1.0), shell_n=1, gamma=0.0, paths=2,
                         solver=cfg, sys=sys, v0=v0)
        # without noise no path samples it, so no guard applies
        SurvivalPlan(nus=(0.1, 1.0), shell_n=1, gamma=0.0, paths=2,
                     solver=dataclasses.replace(cfg, noise_on=False), sys=sys, v0=v0)

    @pytest.mark.parametrize("nus, paths, bad", [
        ((), 2, ["nus"]), ((0.1, -0.2), 2, ["nus"]), ((0.1,), 0, ["paths"]), ((), 0, ["nus", "paths"]),
    ])
    def test_nus_and_paths_rules_name_their_arguments(self, nus, paths, bad):
        grid = TorusGrid(2, 8)
        cfg = SolverConfig(dt=5e-3, T=0.1, noise_on=False, balance_q=())
        with pytest.raises(ArgumentErrors) as info:
            SurvivalPlan(nus=nus, shell_n=1, gamma=0.0, paths=paths, solver=cfg,
                         sys=build_builtin("logistic", [0.1]),
                         v0=[GridField(grid, np.ones(grid.shape))])
        assert list(info.value.problems) == bad

    def test_worker_count_does_not_change_taus(self):
        plan = _blowing_survival_plan()
        serial = run_survival(plan, threads=1)
        pooled = run_survival(plan, threads=2)
        assert [r.taus for r in serial.rows] == [r.taus for r in pooled.rows]
        assert any(tau is not None for r in serial.rows for tau in r.taus)

    def test_negative_data_rejected(self):
        grid = TorusGrid(2, 8)
        sys = build_builtin("logistic", [0.1])
        cfg = SolverConfig(dt=5e-3, T=0.1, noise_on=True, balance_q=())
        v0 = [GridField(grid, np.full(grid.shape, -1.0))]
        with pytest.raises(ValueError, match="v0 >= 0"):
            SurvivalPlan(nus=(0.1,), shell_n=1, gamma=0.0, paths=2,
                         solver=cfg, sys=sys, v0=v0)

    def test_data_with_a_negative_band_part_rejected(self):
        # a box indicator has minimum 0, but its band part, the data the
        # paths integrate, reaches -0.150
        grid = TorusGrid(2, 16)
        x, y = grid.node_coordinates()
        v0 = [GridField(grid, ((x < 0.25) & (y < 0.25)).astype(float))]
        cfg = SolverConfig(dt=5e-3, T=0.1, noise_on=True, balance_q=())
        with pytest.raises(ValueError, match="v0 >= 0"):
            SurvivalPlan(nus=(0.1,), shell_n=1, gamma=0.0, paths=2,
                         solver=cfg, sys=build_builtin("logistic", [0.1]), v0=v0)


class TestDecay:
    def _plan(self, v0_value=1.5, nu=0.0, paths=1, tracked=None, T=2.0, n=16):
        grid = TorusGrid(2, n)
        sys = build_builtin("decay", [0.01])
        cfg = SolverConfig(dt=2e-3, T=T, noise_on=nu > 0, balance_q=(),
                           record_every=20, seed=13)
        x = grid.node_coordinates()[0]
        vals = np.full(grid.shape, v0_value)
        if tracked is not None:
            vals = vals + 0.5 * np.cos(2 * np.pi * x)
        v0 = [GridField(grid, vals)]
        return DecayPlan(solver=cfg, sys=sys, v0=v0, q0=2.0, paths=paths,
                         shell_n=1, gamma=0.0, nu=nu, tracked_mode=tracked)

    def test_pure_decay_rate(self):
        report = run_decay(self._plan())
        assert not report.degenerate
        assert report.fitted_rate == pytest.approx(1.0, abs=0.02)
        assert report.expected_rate == 1.0

    def test_zero_data_degenerate(self):
        report = run_decay(self._plan(v0_value=0.0))
        assert report.degenerate

    def test_tracked_mode_rate_with_noise(self):
        plan = self._plan(nu=0.1, paths=32, tracked=(1, 0), T=0.8, n=32)
        report = run_decay(plan)
        assert report.mode_expected == pytest.approx(1.0 + 4 * np.pi**2 * 0.11)
        assert report.mode_rate == pytest.approx(report.mode_expected, rel=0.1)

    def test_noise_off_runs_the_enhanced_diffusion(self):
        # with the noise off, nu enhances the diffusion of the one path, so
        # the tracked mode decays at the reported |a1| + 4 pi^2 |k|^2 (nu_i + nu)
        plan = self._plan(nu=0.1, tracked=(1, 0), T=0.8)
        plan = dataclasses.replace(plan, solver=dataclasses.replace(plan.solver, noise_on=False))
        report = run_decay(plan)
        assert report.mode_expected == pytest.approx(1.0 + 4 * np.pi**2 * 0.11)
        assert report.mode_rate == pytest.approx(report.mode_expected, rel=1e-3)

    @pytest.mark.parametrize("tail_fraction", [0.0, -0.5, 1.5])
    def test_tail_fraction_outside_unit_interval_rejected(self, tail_fraction):
        with pytest.raises(ArgumentErrors, match=r"tail_fraction: must lie in \(0, 1\]"):
            dataclasses.replace(self._plan(), tail_fraction=tail_fraction)

    def test_noise_free_plan_runs_one_path(self, monkeypatch):
        # every noise-free path is the same deterministic path
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["path_index"])
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "run", counted)
        report = run_decay(self._plan(paths=16, tracked=(1, 0), T=0.4))
        assert calls == [0]
        assert report == run_decay(self._plan(paths=1, tracked=(1, 0), T=0.4))

    def test_worker_count_does_not_change_report(self):
        plan = self._plan(nu=0.1, paths=4, tracked=(1, 0), T=0.2)
        assert run_decay(plan, threads=1) == run_decay(plan, threads=2)

    @pytest.mark.parametrize("q0", [0.0, -2.0])
    def test_norm_exponent_below_one_rejected(self, q0):
        with pytest.raises(ArgumentErrors, match="q0: must be >= 1"):
            dataclasses.replace(self._plan(), q0=q0)

    def test_whole_record_tail_fits(self):
        plan = dataclasses.replace(self._plan(), tail_fraction=1.0)
        assert run_decay(plan).fitted_rate == pytest.approx(1.0, abs=0.02)

    def test_decay_regime_enforced(self):
        grid = TorusGrid(2, 16)
        sys = build_builtin("logistic", [0.1])  # a1 = +1: not a decay system
        cfg = SolverConfig(dt=1e-2, T=0.5, noise_on=False, balance_q=())
        with pytest.raises(ValueError, match="a1 < 0"):
            DecayPlan(solver=cfg, sys=sys, v0=[GridField(grid, np.ones(grid.shape))])


def _with_solver(plan, **change):
    return dataclasses.replace(plan, solver=dataclasses.replace(plan.solver, **change))


class TestPathsReadNoRecord:
    """No experiment reads a path's diagnostics record, so its outputs are
    the same whatever balance and cadence of that record the plan asks for."""

    def test_scaling_limit(self):
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(dt=2e-3, T=0.1, record_every=2, seed=5, blowup_threshold=5.0)
        v0 = [GridField(grid, 4.0 + mode_field(grid, (1, 1), 0.5).values)]
        plan = ScalingLimitPlan(shells=(1, 2), gamma=0.0, nu=0.1, paths=2, solver=cfg,
                                sys=build_builtin("logistic", [0.05]), v0=v0, epsilon=0.1,
                                hminus_gamma=0.5)
        tracked, untracked = (run_scaling_limit(_with_solver(plan, balance_q=q))
                              for q in ((2.0,), ()))
        for a, b in zip(tracked.shells, untracked.shells):
            assert np.array_equal(a.distances, b.distances)
            assert np.array_equal(a.hminus_distances, b.hminus_distances)
            assert a.max_lq == b.max_lq
            assert a.taus == b.taus
        assert not any(tau is not None for s in tracked.shells for tau in s.taus)

    def test_survival(self):
        plan = _blowing_survival_plan()
        every_step = run_survival(_with_solver(plan, balance_q=(2.0,), record_every=1))
        sparse = run_survival(_with_solver(plan, balance_q=(), record_every=7))
        assert [r.taus for r in every_step.rows] == [r.taus for r in sparse.rows]
        assert any(tau is not None for r in every_step.rows for tau in r.taus)

    def test_decay(self):
        plan = TestDecay()._plan(nu=0.1, paths=3, tracked=(1, 0), T=0.2)
        assert run_decay(_with_solver(plan, balance_q=(2.0,))) == run_decay(
            _with_solver(plan, balance_q=()))


UNRESOLVED_GRID = TorusGrid(2, 24)  # resolves shell <= 3; shell 4 reaches |k_j| = 8


@pytest.mark.parametrize("make, prefix", [
    (lambda cfg, v0: SurvivalPlan(nus=(0.01,), shell_n=4, gamma=0.0, paths=1, solver=cfg,
                                  sys=build_builtin("zero", [0.01]), v0=v0),
     "shell_n: nu = 0.01: "),
    (lambda cfg, v0: DecayPlan(solver=cfg, sys=build_builtin("decay", [0.01]), v0=v0,
                               shell_n=4, nu=0.01), "shell_n: "),
    (lambda cfg, v0: ScalingLimitPlan(shells=(1, 4), gamma=0.0, nu=0.01, paths=1, solver=cfg,
                                      sys=build_builtin("zero", [0.01]), v0=v0, epsilon=0.1),
     "shells: shell 4: "),
], ids=["survival", "decay", "scaling_limit"])
def test_unresolved_shell_noise_rejected_at_construction(make, prefix):
    # Stepper.__init__'s checks, before any path runs; dt passes the step guard
    cfg = SolverConfig(dt=1e-4, T=1e-3, balance_q=())
    v0 = [GridField(UNRESOLVED_GRID, np.ones(UNRESOLVED_GRID.shape))]
    with pytest.raises(ArgumentErrors, match="^" + re.escape(
            prefix + "max|k_j| = 8 is under-resolved on grid n = 24")):
        make(cfg, v0)
    # with the noise off no path builds the shell noise
    make(dataclasses.replace(cfg, noise_on=False), v0)
