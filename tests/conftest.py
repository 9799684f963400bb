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


@pytest.fixture(scope="session")
def sir_ring_30(metapop_sir):
    """10-patch SIR ring where each patch is infected by three patches: 30 states.

    Its elimination schedule makes 916 operations, past the cut-off of the
    Python-float elimination, so the system of one of its states, assembled
    by the compiled step kernel, is solved by LAPACK.
    """
    sources = tuple(((p, 0.02), ((p + 1) % 10, 0.01), ((p + 2) % 10, 0.015)) for p in range(10))
    return metapop_sir(sources, mu=0.1)


@pytest.fixture(scope="session")
def seeded_network(metapop_sir):
    """10-patch SIR where each patch is infected by itself and three seeded random patches: 30 states.

    As in the benchmark's network model, the P + Q entry (S_p, S_p) reads
    the infectives of four patches, with seeded random rates.
    """
    rng = np.random.default_rng(11)
    others = [rng.choice([q for q in range(10) if q != p], 3, replace=False).tolist() for p in range(10)]
    sources = tuple(tuple((q, float(rng.uniform(0.005, 0.03))) for q in [p, *others[p]]) for p in range(10))
    return metapop_sir(sources, mu=0.1)


@pytest.fixture(scope="session")
def two_coordinate_entries():
    """A 3-state model whose P + Q entry (0, 0) reads two coordinates of x, x1 and x2."""
    terms = ((0, 1, 0, -0.37), (0, 2, 0, -0.61), (1, 1, 0, 0.37), (2, 2, 0, 0.61))
    return MassActionModel(
        n=3,
        bilinear=tuple(BilinearTerm(*t) for t in terms),
        linear=np.zeros((3, 3)),
        constant=np.zeros(3),
        domain=Domain((True,) * 3, (Constraint((1.0, 1.0, 1.0), 1.0),)),
        labels=("a", "b", "c"),
    )


def _touched_map(model):
    """(entries, G): the flat entries of P(x) + Q(x) that some term touches, and the map with ``x @ G`` their values.

    The dense (n, len(entries)) map that the model's ``_pq_map`` replaced,
    built by ``np.add.at`` from the term list: the P contributions of the
    terms in term order, then their Q contributions, each from 0.0.  It
    is the reference for ``_entry_terms``.
    """
    ti, tj, tk, tc = (np.array([getattr(t, name) for t in model.bilinear]) for name in "ijkc")
    cols = {}
    col = [cols.setdefault(e, len(cols)) for e in np.concatenate([ti * model.n + tk, ti * model.n + tj]).tolist()]
    g = np.zeros((model.n, len(cols)))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(g, (np.concatenate([tj, tk]).astype(int), np.array(col, dtype=int)), np.concatenate([tc, tc]))
    return np.array(list(cols), dtype=int), g


@pytest.fixture(scope="session")
def touched_map():
    return _touched_map
