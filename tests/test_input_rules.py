"""Each input rule has one home, and NaN fails every rule.

A rule written `x <= 0` lets NaN through, since every comparison with NaN is
false; the rules are written `not x > 0` so that NaN breaks them.  The parse
rejects NaN before any constructor sees it (`<key>: expected a finite
number`), so the constructors, plan rules and closed forms are probed here
directly.
"""

import math

import numpy as np
import pytest

from torusrd.config import ConfigError, RunConfig, build_v0
from torusrd.diagnostics import hminus_weight
from torusrd.experiments import decay_plan_errors, scaling_plan_errors, survival_plan_errors
from torusrd.exponents import ParamSet, barrier_mu0, interp_exponents_strong
from torusrd.fields import ArgumentErrors, TorusGrid
from torusrd.noise import (NoiseModel, NoiseSpectrum, build_theta_shell, path_rng,
                           sample_increments)
from torusrd.reactions import MassActionSpec, ReactionSystem, build_builtin, zero_rates
from torusrd.solver import CutOffParams, SolverConfig

NAN = math.nan
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
    ("hminus_weight.gamma", lambda: hminus_weight(TorusGrid(2, 8), NAN), "gamma must be >= 0"),
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
    try:
        problems = make()  # a plan's rules return their problems
    except ArgumentErrors as exc:  # a constructor raises them
        problems = exc.problems
    assert problems == expected


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
