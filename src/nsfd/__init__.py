"""Structure-preserving integration of mass-action ODE systems.

The core step map is second-order, time-reversible, and linearly
implicit: each step costs one small dense solve, keeps the model's
convex domain invariant for step sizes below a computable bound, and
has exactly the ODE's equilibria as fixed points, with matching local
stability.  Around it: safe step-bound computation, boundary tangent
checks and trajectory audits, equilibrium and stability analysis, and a
CLI reading declarative model specs.

The public names are the ``__all__`` lists of the layers ``model``,
``models``, ``linalg``, ``integrator``, ``invariance`` and ``analysis``.
"""

from . import analysis, integrator, invariance, linalg, model, models
from .model import *
from .models import *
from .linalg import *
from .integrator import *
from .invariance import *
from .analysis import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += models.__all__
__all__ += linalg.__all__
__all__ += integrator.__all__
__all__ += invariance.__all__
__all__ += analysis.__all__
