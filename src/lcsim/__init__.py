"""Local-causal measure toolkit for spin-pair correlations.

Submodules:
  circle      angles, half-open detection arcs, vectorized ±1 spin values
  models      diagonal candidate densities and their quadrant statistics
  lcmeasure   finite local-causal measures, triviality, Markov transport
  uniqueness  constructive check that the |cos|/4 profile is forced
  protocol    strictly local three-actor coincidence simulation
  cli         command-line interface
"""

__version__ = "0.1.0"

from . import circle, lcmeasure, models, protocol, uniqueness  # noqa: F401
