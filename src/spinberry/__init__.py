"""Exact and numerical toolkit for the complex generalized geometric phase
of a spin-1/2 particle in a uniformly rotating magnetic field."""

from . import cyclicity, evolution, model, oracle, phases
from .model import ModelParams

__all__ = ["ModelParams", "cyclicity", "evolution", "model", "oracle",
           "phases"]

__version__ = "0.1.0"
