"""Float mutants of the sampled checks: every identity can fail.

A mutant is a copy of a form's ``ModelNumerics`` with one attribute moved by
DELTA.  A row names the identity that the mutant must fail (a check's named
deviation, or the ``beta_base_block`` line); the identity's own deviation is
read by wrapping the ``identities`` callback that each check hands to
``sympver._run``.  A ``blind`` row is a change the checks cannot see, for the
reason given in the check's docstring: every sampled line must pass on it.
"""

import copy

import numpy as np
import pytest

from minorbit import sympver
from minorbit.numeric import numerics
from minorbit.sympver import DEFAULT_TOL_CLOSED

DELTA = 1e-6
SAMPLES = 30
SEED = 42

CHECKS = {
    "beta": (sympver.verify_beta_symplectic, "beta_symplectic"),
    "ks": (sympver.ks_correspondence_check, "ks_correspondence"),
    "poisson": (sympver.poisson_identities_check, "poisson_identities"),
    "moment": (sympver.moment_cone_check, "moment_cone"),
}


def _unit(X):
    """X scaled to a largest entry of 1."""
    return X / np.max(np.abs(X))


def scaled(name):
    return lambda num: {name: (1 + DELTA) * getattr(num, name)}


def nudged(name, towards):
    """The attribute plus DELTA times a basis element read by ``towards``."""
    return lambda num: {name: getattr(num, name) + DELTA * _unit(towards(num))}


def first_nudged(name, towards):
    """The attribute's first basis element plus DELTA times another one."""
    def mutate(num):
        first, *rest = getattr(num, name)
        return {name: [first + DELTA * _unit(towards(num)), *rest]}
    return mutate


def sigma_scaled(num):
    sigma = num.sigma
    return {"sigma": lambda X: (1 + DELTA) * sigma(X)}


def last_k(num):
    return num.k_basis[-1]


# (identity, check, form, mutant)
KILLED = [
    ("Gram agreement", "beta", "su21", scaled("x_psi")),
    ("beta_base_block", "beta", "su21", scaled("z")),
    ("unit-sphere slicing of u", "ks", "su21", scaled("v")),
    ("unit-sphere slicing of b(u)", "ks", "su21", scaled("e")),
    ("well-definedness of u", "ks", "su21", first_nudged("isotropy_basis", last_k)),
    ("well-definedness of b(u)", "ks", "sp4R", first_nudged("isotropy_basis", last_k)),
    ("[r, phi~] = 0", "poisson", "su21", nudged("e", lambda num: num.k_basis[0])),
    ("[r, s~] = 2 pi i s~", "poisson", "su21", nudged("v", lambda num: num.p_basis[-1])),
    ("momentum closure", "poisson", "su21", scaled("e")),
    ("section group derivative", "poisson", "su21", sigma_scaled),
    ("unipotent factor fixes e", "moment", "su21", nudged("e", lambda num: num.x_psi)),
    ("spectrum of s z", "moment", "sp4R", nudged("e", lambda num: num.p_basis[-1])),
    ("central pairing 0", "moment", "su21", first_nudged("center_k_basis", last_k)),
]

# (mutant, form, mutate), each passing every sampled line
BLIND = [
    ("k_nu_complement_basis[0] (1 + delta)", "su21",
     lambda num: {"k_nu_complement_basis": [(1 + DELTA) * num.k_nu_complement_basis[0],
                                            *num.k_nu_complement_basis[1:]]}),
    ("a_basis (1 + delta)", "su21",
     lambda num: {"a_basis": [(1 + DELTA) * a for a in num.a_basis]}),
    ("p_basis[-1] + delta k", "su21",
     lambda num: {"p_basis": [*num.p_basis[:-1],
                              num.p_basis[-1] + DELTA * _unit(last_k(num))]}),
]


def _mutant(form_id, mutate):
    num = copy.copy(numerics(form_id))
    for name, value in mutate(num).items():
        setattr(num, name, value)
    return num


def _run_checks(monkeypatch, num, checks):
    """The lines of ``checks`` on ``num``, by name, and the largest
    deviation of each identity they name."""
    deviations = {}
    run = sympver._run

    def recording_run(num, samples, seed, identities, *args, **kwargs):
        def recorded(*call):
            named = identities(*call)
            for name, dev in named.items():
                deviations[name] = max(deviations.get(name, 0.0), float(np.max(dev)))
            return named
        return run(num, samples, seed, recorded, *args, **kwargs)

    lines = {}
    with monkeypatch.context() as patch:
        patch.setattr(sympver, "_run", recording_run)
        for check in checks:
            lines.update((r.name, r) for r in CHECKS[check][0](num, samples=SAMPLES, seed=SEED))
    return lines, deviations


@pytest.mark.parametrize("identity, check, form_id, mutate", KILLED,
                         ids=[row[0] for row in KILLED])
def test_mutant_fails_its_identity(monkeypatch, identity, check, form_id, mutate):
    lines, deviations = _run_checks(monkeypatch, _mutant(form_id, mutate), [check])
    if identity in lines:  # a line of its own
        line, own = lines[identity], lines[identity].max_abs_deviation
    else:
        line, own = lines[CHECKS[check][1]], deviations[identity]
    assert own > DEFAULT_TOL_CLOSED, own
    assert not line.passed


@pytest.mark.parametrize("mutant, form_id, mutate", BLIND, ids=[row[0] for row in BLIND])
def test_blind_mutant_passes_every_line(monkeypatch, mutant, form_id, mutate):
    lines, _ = _run_checks(monkeypatch, _mutant(form_id, mutate), list(CHECKS))
    assert len(lines) == 5
    assert all(line.passed for line in lines.values()), mutant


def test_every_identity_has_a_killing_row(monkeypatch):
    """A new identity or line of a sampled check needs a row in KILLED."""
    named = set()
    for form_id in ("sl2R", "su21", "sp4R"):
        lines, deviations = _run_checks(monkeypatch, numerics(form_id), list(CHECKS))
        named |= set(deviations) | (set(lines) - {line for _, line in CHECKS.values()})
    assert named == {row[0] for row in KILLED}
