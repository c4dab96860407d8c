"""Each input rule has one home, and NaN fails every rule.

A rule written `x <= 0` lets NaN through, since every comparison with NaN is
false; the rules are written `not x > 0` so that NaN breaks them.  The parse
rejects NaN and inf before any constructor sees them (`<key>: expected a
finite number`), so the constructors, plan rules and closed forms are probed
here directly.  An infinite exponent passes a lower bound but switches its
check off, so the exponent rules also reject inf; a seed must be an
integer in the signed 64-bit range, the key word of a Philox stream; and a
record interval, a path count and a noise shell must be integers >= 1.
"""

import math

import numpy as np
import pytest

from torusrd.config import ConfigError, RunConfig, build_v0
from torusrd.diagnostics import spectral_weight
from torusrd.experiments import (DecayPlan, ScalingLimitPlan, SurvivalPlan, decay_plan_errors,
                                 scaling_plan_errors, survival_plan_errors)
from torusrd.exponents import ParamSet, barrier_mu0, interp_exponents_strong
from torusrd.fields import ArgumentErrors, GridField, TorusGrid
from torusrd.noise import (NoiseModel, NoiseSpectrum, build_theta_shell, path_rng,
                           sample_increments, seed_error)
from torusrd.reactions import MassActionSpec, ReactionSystem, build_builtin, zero_rates
from torusrd.solver import CutOffParams, SolverConfig

NAN = math.nan
INF = math.inf
SHELL = build_theta_shell(1, 0.0, 2)


def _solver(**kwargs):
    return SolverConfig(dt=1e-3, T=1e-2, **kwargs)


def _reaction(**kwargs):
    return ReactionSystem(**({"ell": 1, "nu": [0.1], "h": 2.0, "f": zero_rates} | kwargs))


def _params(**kwargs):
    return ParamSet(**({"d": 2, "h": 3.0, "q": 4.0} | kwargs))


def _barrier(**kwargs):
    return barrier_mu0(**({"R": 1.0, "e_bar": 0.5, "gamma": 0.5, "N": 1.0, "q": 4.0} | kwargs))


def _scaling(**kwargs):
    return scaling_plan_errors(**({"shells": [1], "paths": 1, "epsilon": 0.05, "r": 2.0,
                                   "q": 2.0, "hminus_gamma": None} | kwargs))


def _decay(**kwargs):
    return decay_plan_errors(**({"paths": 1, "tail_fraction": 0.5, "q0": 2.0,
                                 "tracked_mode": None, "d": 2, "n": 16} | kwargs))


def _problems(make) -> dict[str, str]:
    """The problems of make(): a plan's rules return them, a constructor
    raises them as ArgumentErrors."""
    try:
        return make()
    except ArgumentErrors as exc:
        return exc.problems


# (the rule's owner and argument, a call that gives it NaN, the owner's
# problems as ArgumentErrors maps them, or its ValueError message)
NAN_RULES = [
    ("SolverConfig.blowup_threshold", lambda: _solver(blowup_threshold=NAN),
     {"blowup_threshold": "must be > 0, got nan"}),
    ("SolverConfig.blowup_norm_q0", lambda: _solver(blowup_norm_q0=NAN),
     {"blowup_norm_q0": "must be > 2, got nan"}),
    ("SolverConfig.lq_norms", lambda: _solver(lq_norms=(2.0, NAN)),
     {"lq_norms": "exponents must be >= 1, got [2.0, nan]"}),
    ("SolverConfig.balance_q", lambda: _solver(balance_q=(NAN, 2.0)),
     {"balance_q": "exponents must be >= 2, got [nan, 2.0]"}),
    ("CutOffParams.R", lambda: CutOffParams(R=NAN, r=2.0, q=4.0), {"R": "must be > 0, got nan"}),
    ("CutOffParams.r", lambda: CutOffParams(R=1.0, r=NAN, q=4.0), {"r": "must be > 1, got nan"}),
    ("CutOffParams.q", lambda: CutOffParams(R=1.0, r=2.0, q=NAN), {"q": "must be >= 1, got nan"}),
    ("NoiseModel.nu", lambda: NoiseModel(SHELL, nu=NAN), {"nu": "must be > 0, got nan"}),
    ("build_theta_shell.gamma", lambda: build_theta_shell(1, NAN, 2),
     {"gamma": "must be >= 0, got nan"}),
    ("NoiseSpectrum.theta", lambda: NoiseSpectrum(SHELL.support, np.full(len(SHELL.theta), NAN)),
     "theta must be nonnegative"),
    ("MassActionSpec.r_plus", lambda: MassActionSpec(q=(1,), p=(0,), r_plus=NAN),
     {"r_plus": "reaction rate must be positive, got nan"}),
    ("MassActionSpec.r_minus", lambda: MassActionSpec(q=(1,), p=(0,), r_minus=NAN),
     {"r_minus": "reaction rate must be positive, got nan"}),
    ("ReactionSystem.nu", lambda: _reaction(nu=[NAN]),
     {"nu": "diffusivities must be nonnegative, got [nan]"}),
    ("ReactionSystem.h", lambda: _reaction(h=NAN), {"h": "growth exponent must be > 1, got nan"}),
    ("ReactionSystem.mass_alpha", lambda: _reaction(mass_alpha=[NAN]),
     {"mass_alpha": "mass weights must be positive, one per species"}),
    ("ReactionSystem.enhanced", lambda: build_builtin("zero", [0.1]).enhanced(NAN),
     "enhancement nu must be >= 0, got nan"),
    ("scaling_plan_errors.epsilon", lambda: _scaling(epsilon=NAN),
     {"epsilon": "must be > 0, got nan"}),
    ("scaling_plan_errors.r", lambda: _scaling(r=NAN), {"r": "must be >= 1, got nan"}),
    ("scaling_plan_errors.q", lambda: _scaling(q=NAN), {"q": "must be >= 1, got nan"}),
    ("scaling_plan_errors.hminus_gamma", lambda: _scaling(hminus_gamma=NAN),
     {"hminus_gamma": "must be >= 0, got nan"}),
    ("survival_plan_errors.nus", lambda: survival_plan_errors([0.1, NAN], 1),
     {"nus": "must be nonempty and >= 0, got [0.1, nan]"}),
    ("decay_plan_errors.tail_fraction", lambda: _decay(tail_fraction=NAN),
     {"tail_fraction": "must lie in (0, 1], got nan"}),
    ("decay_plan_errors.q0", lambda: _decay(q0=NAN), {"q0": "must be >= 1, got nan"}),
    ("ParamSet.h", lambda: _params(h=NAN), "growth exponent h must be > 1"),
    ("ParamSet.delta", lambda: _params(delta=NAN), "delta must lie in (1, 2]"),
    ("ParamSet.q", lambda: _params(q=NAN), "q, p must be positive and N >= 1"),
    ("ParamSet.p", lambda: _params(p=NAN), "q, p must be positive and N >= 1"),
    ("ParamSet.N", lambda: _params(N=NAN), "q, p must be positive and N >= 1"),
    *((f"barrier_mu0.{arg}", lambda arg=arg: _barrier(**{arg: NAN}),
       "all barrier inputs must be positive") for arg in ("R", "e_bar", "gamma", "N", "q")),
    ("interp_exponents_strong.q", lambda: interp_exponents_strong(2, 3.0, NAN),
     "q = nan is not subcritical: need q > max(d(h-1)/2, 2) = 2.0"),
    ("sample_increments.dt", lambda: sample_increments(NoiseModel(SHELL, 0.1), NAN,
                                                       path_rng(0, 0, 0)),
     "dt must be >= 0, got nan"),
    ("spectral_weight.gamma", lambda: spectral_weight(2, 2, NAN), "gamma must be >= 0"),
]


@pytest.mark.parametrize("make, expected", [case[1:] for case in NAN_RULES],
                         ids=[case[0] for case in NAN_RULES])
def test_nan_fails_every_rule(make, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            make()
        assert not isinstance(info.value, ArgumentErrors)
        assert str(info.value) == expected
        return
    assert _problems(make) == expected


# an infinite exponent or radius once ran with its check off: the L^inf
# blow-up norm read mean(|v|^inf)^0 = 1 even for NaN fields, and the
# cut-off's phi stayed 1 at r = inf or R = inf
INF_RULES = [
    ("SolverConfig.blowup_norm_q0", lambda: _solver(blowup_norm_q0=INF),
     {"blowup_norm_q0": "must be finite, got inf"}),
    ("SolverConfig.lq_norms", lambda: _solver(lq_norms=(2.0, INF)),
     {"lq_norms": "exponents must be finite, got [2.0, inf]"}),
    ("SolverConfig.balance_q", lambda: _solver(balance_q=(INF,)),
     {"balance_q": "exponents must be finite, got [inf]"}),
    ("CutOffParams.R", lambda: CutOffParams(R=INF, r=2.0, q=4.0),
     {"R": "must be finite, got inf"}),
    ("CutOffParams.r", lambda: CutOffParams(R=1.0, r=INF, q=4.0),
     {"r": "must be finite, got inf"}),
    ("CutOffParams.q", lambda: CutOffParams(R=1.0, r=2.0, q=INF),
     {"q": "must be finite, got inf"}),
    ("scaling_plan_errors.r", lambda: _scaling(r=INF), {"r": "must be finite, got inf"}),
    ("scaling_plan_errors.q", lambda: _scaling(q=INF), {"q": "must be finite, got inf"}),
    ("decay_plan_errors.q0", lambda: _decay(q0=INF), {"q0": "must be finite, got inf"}),
]


@pytest.mark.parametrize("make, expected", [case[1:] for case in INF_RULES],
                         ids=[case[0] for case in INF_RULES])
def test_inf_fails_every_exponent_rule(make, expected):
    assert _problems(make) == expected


SEED_RANGE = "must lie in [-2^63, 2^63), got"


@pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
def test_seeds_at_the_ends_of_the_range_are_accepted(seed):
    assert seed_error(seed) is None
    assert _solver(seed=seed).seed == seed
    assert RunConfig.from_text(f"grid.n = 16\nv0.seed = {seed}\n")["v0.seed"] == seed
    with np.errstate(all="raise"):  # keyed without a cast
        path_rng(seed, 0, 0)


@pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1, 2**64])
def test_seeds_outside_the_range_are_rejected(seed):
    # 2^63 + 5 once shared 2^63's stream, 2^64 - 1 ran seed 0's, 2^64 crashed
    assert seed_error(seed) == f"{SEED_RANGE} {seed}"
    with pytest.raises(ArgumentErrors) as info:
        _solver(seed=seed)
    assert info.value.problems == {"seed": f"{SEED_RANGE} {seed}"}
    with pytest.raises(ConfigError) as parsed:
        RunConfig.from_text(f"grid.n = 16\nsolver.seed = {seed}\nv0.seed = {seed}\n")
    assert parsed.value.errors == [f"v0.seed: {SEED_RANGE} {seed}",
                                   f"solver.seed: {SEED_RANGE} {seed}"]


@pytest.mark.parametrize("seed", [np.int64(-7), np.uint32(5), np.uint64(2**63 - 1)])
def test_numpy_integer_seeds_are_accepted(seed):
    assert seed_error(seed) is None
    assert _solver(seed=seed).seed == seed
    with np.errstate(all="raise"):
        path_rng(seed, 0, 0)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), True, False, np.True_, "3"])
def test_seeds_that_are_not_integers_are_rejected(seed):
    # Philox once keyed a float or a bool seed with its truncation: 1.5 ran seed 1's stream
    expected = f"must be an integer, got {seed!r}"
    assert seed_error(seed) == expected
    with pytest.raises(ArgumentErrors) as info:
        _solver(seed=seed)
    assert info.value.problems == {"seed": expected}


@pytest.mark.parametrize("every", [2.5, 2.0, NAN, INF, True, False, np.True_, np.float64(5.0),
                                   "3", None])
def test_record_intervals_that_are_not_integers_are_rejected(every):
    # 2.5 once recorded every 5 steps, NaN only the last step (NaN < 1 is
    # false), and True as 1
    with pytest.raises(ArgumentErrors) as info:
        _solver(record_every=every)
    assert info.value.problems == {"record_every": f"must be an integer, got {every!r}"}


@pytest.mark.parametrize("every", [0, -3, np.int64(0)])
def test_record_intervals_below_one_are_rejected(every):
    with pytest.raises(ArgumentErrors) as info:
        _solver(record_every=every)
    assert info.value.problems == {"record_every": "must be >= 1"}


@pytest.mark.parametrize("every", [1, 7, np.int64(3), np.uint8(2)])
def test_integer_record_intervals_are_accepted(every):
    assert _solver(record_every=every).record_every == every


NOT_COUNTS = [2.5, 2.0, NAN, True, np.True_, np.float64(3.0), "3"]


def _plans(grid: TorusGrid, **change):
    """One ScalingLimitPlan, SurvivalPlan and DecayPlan on grid, with change."""
    cfg = SolverConfig(dt=1e-3, T=1e-2, balance_q=())
    v0 = [GridField(grid, np.ones(grid.shape))]
    common = {"solver": cfg, "v0": v0, "gamma": 0.0, "paths": 1}
    yield lambda **kw: ScalingLimitPlan(**(common | {"shells": (1,), "nu": 0.1, "epsilon": 0.1,
                                                     "sys": build_builtin("zero", [0.01])} | kw))
    yield lambda **kw: SurvivalPlan(**(common | {"nus": (0.1,), "shell_n": 1,
                                                 "sys": build_builtin("zero", [0.01])} | kw))
    yield lambda **kw: DecayPlan(**(common | {"shell_n": 1, "nu": 0.1,
                                              "sys": build_builtin("decay", [0.01])} | kw))


@pytest.mark.parametrize("paths", NOT_COUNTS)
def test_path_counts_that_are_not_integers_are_rejected(paths):
    # paths = 2.5 once ran the reference before failing, and True ran one path
    expected = {"paths": f"must be an integer, got {paths!r}"}
    assert _scaling(paths=paths) == expected
    assert _decay(paths=paths) == expected
    assert survival_plan_errors([0.1], paths) == expected
    for make in _plans(TorusGrid(2, 16)):
        with pytest.raises(ArgumentErrors) as info:
            make(paths=paths)
        assert info.value.problems == expected


@pytest.mark.parametrize("shell", NOT_COUNTS[:-1])
def test_shells_that_are_not_integers_are_rejected(shell):
    # build_theta_shell(1.5, ...) once built the annulus 1.5 <= |k| <= 3
    problem = f"must be an integer, got {shell!r}"
    with pytest.raises(ArgumentErrors) as info:
        build_theta_shell(shell, 0.0, 2)
    assert info.value.problems == {"shell_n": problem}
    scaling, survival, decay = _plans(TorusGrid(2, 16))
    for make, arg, expected in [
            (lambda: scaling(shells=(shell,)), "shells", f"shell {shell}: {problem}"),
            (lambda: survival(shell_n=shell), "shell_n", f"nu = 0.1: {problem}"),
            (lambda: decay(shell_n=shell), "shell_n", problem)]:
        with pytest.raises(ArgumentErrors) as info:
            make()
        assert info.value.problems == {arg: expected}


def test_plan_shell_gamma_checked_at_construction():
    # gamma < 0 once failed in build_theta_shell, after the reference run
    for make in _plans(TorusGrid(2, 16)):
        with pytest.raises(ArgumentErrors) as info:
            make(gamma=-0.5)
        [(arg, msg)] = info.value.problems.items()
        assert arg == "gamma" and msg.endswith("must be >= 0, got -0.5")


@pytest.mark.parametrize("count", [1, 3, np.int64(2)])
def test_integer_counts_are_accepted(count):
    assert _scaling(paths=count) == {}
    assert len(build_theta_shell(count, 0.0, 2).theta) > 0


@pytest.mark.parametrize("literal", ["1.5", "true"])
def test_parse_requires_an_integer_seed_before_the_seed_rule(literal):
    with pytest.raises(ConfigError) as parsed:
        RunConfig.from_text(f"grid.n = 16\nsolver.seed = {literal}\n")
    assert parsed.value.errors == [f"solver.seed: expected integer, got '{literal}'"]


@pytest.mark.parametrize("binding, make", [
    ("noise.nu = -1.0", lambda: NoiseModel(SHELL, nu=-1.0)),
    ("noise.shell_n = 0", lambda: build_theta_shell(0, 0.0, 2)),
    ("noise.gamma = -0.5", lambda: build_theta_shell(1, -0.5, 2)),
    ("noise.shell_n = 0\nnoise.gamma = -0.5", lambda: build_theta_shell(0, -0.5, 2)),
])
def test_parse_reports_the_noise_constructors_messages(binding, make):
    with pytest.raises(ConfigError) as parsed:
        RunConfig.from_text(f"grid.n = 32\n{binding}\n")
    with pytest.raises(ArgumentErrors) as built:
        make()
    assert parsed.value.errors == [f"noise.{arg}: {msg}"
                                   for arg, msg in built.value.problems.items()]


def test_build_v0_dispatches_on_its_kinds_only():
    cfg = RunConfig.from_text("grid.n = 16\nv0.kind = constant\n")
    assert len(build_v0(cfg, cfg.grid, 2)) == 2
    cfg.values["v0.kind"] = "bogus"  # a kind the parse would have rejected
    with pytest.raises(KeyError, match="bogus"):
        build_v0(cfg, cfg.grid, 1)
