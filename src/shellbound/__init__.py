"""Lower bounds on bound-state counts for shell-minimum dispersions.

The toolkit certifies, variationally, that a Hamiltonian H0 + V whose
Fourier symbol attains its minimum m on a circle or sphere has at least
N eigenvalues below m, and cross-validates the certificates against a
brute-force momentum-grid discretization of the full operator.

Pipeline: ``symbols`` (dispersions and their minimum shells),
``surface`` (shell quadrature and tubular coordinates), ``potentials``
(V with its Fourier transform), ``surface_operator`` (the shell kernel
operator whose negative eigenvalues drive everything),
``rayleigh_ritz`` (trial-function certificates), ``direct_oracle``
(periodic-box reference spectra), ``spin_orbit`` (2x2 matrix symbols),
``cli`` (batch front end).
"""

from . import (
    direct_oracle,
    errors,
    kernels,
    potentials,
    rayleigh_ritz,
    spin_orbit,
    surface,
    surface_operator,
    symbols,
)

# there is no compiled extension; perfbench/worker.py still records this flag
HAVE_EXTENSION = False

__version__ = "0.1.0"

__all__ = [
    "HAVE_EXTENSION",
    "__version__",
    "direct_oracle",
    "errors",
    "kernels",
    "potentials",
    "rayleigh_ritz",
    "spin_orbit",
    "surface",
    "surface_operator",
    "symbols",
]
