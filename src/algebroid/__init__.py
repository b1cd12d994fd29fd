"""Exact exterior and Poisson calculus on polynomial models.

Everything is computed over the rationals with no floating point anywhere:
sparse polynomials, differential forms and multivector fields, constant
symplectic structures and their Poisson calculus, Lie algebroid axioms and
cohomology on finite truncations, Courant/Dirac checks, and a small
line-oriented modelling language with a CLI (``algebroid --help``).

The package re-exports nothing: callers import its modules, such as
``algebroid.cohomology`` or ``algebroid.exterior``.
"""

__version__ = "0.1.0"
