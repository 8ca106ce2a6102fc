"""Nodal domains of eigenvectors of random graphs.

Samplers for G(n,p), random regular graphs and centered Bernoulli matrices;
dense symmetric eigendecomposition with fixed ordering and sign conventions;
weak/strong nodal domain computation; closed-form evaluation of the explicit
tail-bound constants and the exceptional-vertex bound k; and a seeded,
thread-count-independent Monte-Carlo harness.

The package exports every module's public names, each declared once, in
its module's __all__.
"""

__version__ = "0.1.0"  # before the imports below, so any module may import it

from . import bounds, experiments, graph_core, nodal, spectral
from .graph_core import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .nodal import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__all__ = [
    *graph_core.__all__,
    *spectral.__all__,
    *nodal.__all__,
    *bounds.__all__,
    *experiments.__all__,
    "__version__",
]
