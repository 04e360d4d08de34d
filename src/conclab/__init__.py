"""Multilevel concentration-of-measure toolkit.

Submodules:
  tensor    dense symmetric tensors, HS and l_p operator norms
  calculus  polynomial functions and intrinsic manifold derivatives
  samplers  seeded exact samplers for the supported measures
  discrete  difference operators and dependence diagnostics
  bounds    tail curves, certificates, and the setting catalog
  verify    empirical/exhaustive verification of the inequalities
  cli       command-line front end
"""

from . import bounds, calculus, discrete, samplers, tensor, verify

__all__ = ["bounds", "calculus", "cli", "discrete", "samplers", "tensor", "verify"]
__version__ = "0.1.0"
