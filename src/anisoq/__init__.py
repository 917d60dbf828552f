"""Numerical toolkit for degenerate anisotropic energies on Q-valued graphs.

Subpackages by role: exterior (exact 2-vector algebra in R^4), construction
(the explicit three-atom objects and their verification), multipoint
(the matching metric on Q-points held as (..., Q, d) arrays, and maximal
decompositions), gmeasures (atomic Grassmannian measures and transport),
currents (triangulated 2-currents and graph generators), energy (the
degenerate integrand and the envelope bracket), approx (interpolation and
piecewise-affine approximation of sheetwise-decomposable maps), cli
(command line).
"""

__version__ = "0.1.0"
