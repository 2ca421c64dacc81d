"""Numerical toolkit for complex perturbations of band Schrodinger operators.

Submodules:

* ``bandset``   -- truncated band sets, distances, gap statistics
* ``moebius``   -- the map 1/(z - omega), image geometry, distortion bounds
* ``hill``      -- periodic-potential band computation via the monodromy trace
* ``operators`` -- finite-difference models of H0 = -D^2 + V0 and H = H0 + V
* ``schatten``  -- Schatten/Lebesgue norms and resolvent-difference bounds
* ``ltsums``    -- Lieb-Thirring type eigenvalue sums and ensemble checks
* ``cli``       -- configuration-driven experiment runner (``band-lt``)

Each submodule is imported on first access (``bandlt.hill`` or ``from
bandlt import hill``), so a command that needs no operator never loads
scipy.
"""

import importlib

__all__ = [
    "bandset", "cli", "errors", "hill", "ltsums", "moebius", "operators",
    "schatten",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
