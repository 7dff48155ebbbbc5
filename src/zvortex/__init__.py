"""Numerical toolkit for complex-power vortex wave functions psi = z**c."""

__version__ = "0.1.0"
