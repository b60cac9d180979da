"""Degrees of indistinguishability: interferometry numbers and finite models.

Modules:

* ``onephoton`` -- one-photon two-source density operators, their unique
  coherent/diagonal decomposition, coherence functions, fringe scans.
* ``zwm`` -- the two-crystal induced-coherence experiment as a one-knob
  parametric model (idler transmission = which-way information).
* ``quasiset`` -- finite models of a set theory with a primitive
  indistinguishability relation; axiom and permutation-theorem checks.
* ``qmetric`` -- quasi-metric and differentiation spaces, graded
  indistinguishability degrees, and the [0,1] Heyting operations.
* ``cli`` -- command-line front end.
"""

__version__ = "0.1.0"


def _read(x, convert=lambda v: v - 0.0):
    """convert(x): by default a float as is and an int as a float, or inf of its sign past them."""
    try:
        return convert(x)
    except OverflowError:  # an int past the largest float
        return convert(float("inf") if x > 0 else -float("inf"))
