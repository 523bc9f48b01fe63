"""Continuous-variable qumode probe simulation and thermodynamic inference.

Each public name is imported from its own module; importing the package
itself loads none of them."""

__version__ = "0.1.0"
