"""Jacobian-routed multi-objective optimization of prompt perturbations
on a standalone bilinear logit model.

The package re-exports exactly the public names of its modules, the
union of their ``__all__`` lists."""

from . import attribution, model, optimizer, probgen, serialize, strategies
from .attribution import *
from .model import *
from .optimizer import *
from .probgen import *
from .serialize import *
from .strategies import *

__all__ = [
    name
    for module in (attribution, model, optimizer, probgen, serialize, strategies)
    for name in module.__all__
]

__version__ = "0.1.0"
