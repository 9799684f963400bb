"""Shared fixtures: built-in models and their safe step bounds."""

import numpy as np
import pytest
from hypothesis import settings

from nsfd.integrator import step_bound
from nsfd.model import BilinearTerm, Constraint, Domain, MassActionModel
from nsfd.models import make_host_vector, make_logistic, make_si

settings.register_profile("nsfd", deadline=None)
# A long property run of the samplers: pytest --hypothesis-profile=deep.
settings.register_profile("deep", max_examples=3000, deadline=None)
settings.load_profile("nsfd")


@pytest.fixture(scope="session")
def logistic():
    return make_logistic()


@pytest.fixture(scope="session")
def si():
    return make_si()


@pytest.fixture(scope="session")
def host_vector():
    return make_host_vector()


@pytest.fixture(scope="session")
def all_models(logistic, si, host_vector):
    return (logistic, si, host_vector)


@pytest.fixture(scope="session")
def h_bars(all_models):
    return {m.name: step_bound(m).h_bar for m in all_models}


@pytest.fixture
def rng():
    # fresh generator per test so draws never depend on test order
    return np.random.default_rng(20240817)


def _metapop_sir(sources, mu: float) -> MassActionModel:
    """Metapopulation SIR; patch p holds (S_p, I_p, R_p) at 3p, 3p+1, 3p+2.

    ``sources[p]`` lists the (patch q, beta) pairs whose infectives infect
    patch p.  Every patch has inflow 1, mortality ``mu``, recovery 0.2,
    loss of immunity 0.05 and population cap 10, so the disease-free
    equilibrium has S_p = 1 / mu.
    """
    alpha, gamma = 0.2, 0.05
    n = 3 * len(sources)
    linear = np.zeros((n, n))
    constant = np.zeros(n)
    terms = []
    for p, pairs in enumerate(sources):
        s, i, r = 3 * p, 3 * p + 1, 3 * p + 2
        for q, beta in pairs:
            terms += [BilinearTerm(s, 3 * q + 1, s, -beta), BilinearTerm(i, 3 * q + 1, s, beta)]
        linear[s, s] = -mu
        linear[s, r] = gamma
        linear[i, i] = -(mu + alpha)
        linear[r, i] = alpha
        linear[r, r] = -(mu + gamma)
        constant[s] = 1.0
    caps = tuple(
        Constraint(tuple(1.0 if m // 3 == p else 0.0 for m in range(n)), 10.0)
        for p in range(len(sources))
    )
    return MassActionModel(
        n=n,
        bilinear=tuple(terms),
        linear=linear,
        constant=constant,
        domain=Domain(nonnegative=(True,) * n, constraints=caps),
        labels=tuple(f"{c}{p}" for p in range(len(sources)) for c in "SIR"),
        name="metapop-sir",
    )


@pytest.fixture(scope="session")
def metapop_sir():
    return _metapop_sir


@pytest.fixture(scope="session")
def sir_network(metapop_sir):
    """4-patch SIR where each patch is infected by three patches.

    The rows of S_p and I_p gather three bilinear terms each, so paths
    that sum term contributions in different orders can disagree in the
    last bits.
    """
    sources = tuple(((p, 0.02), ((p + 1) % 4, 0.01), ((p + 2) % 4, 0.015)) for p in range(4))
    return metapop_sir(sources, mu=0.1)
