"""Steering and Bell criteria for two-mode oscillator Fock superpositions.

Evaluates the Reid inference-variance criterion, the conditional-entropy criterion,
and the maximal CHSH value for finite Fock superpositions of two harmonic-oscillator
modes, with sweep and critical-angle tooling for the two built-in one-parameter
families cos(t)|00>+sin(t)|11> and cos(t)|01>+sin(t)|10>.
"""

from . import criteria, fock, quadrature
from . import sweep as _sweep

__version__ = "0.1.0"

# The package exports every layer's public names; ``sweep`` is then the function.
_LAYERS = (fock, quadrature, criteria, _sweep)
globals().update({name: getattr(layer, name) for layer in _LAYERS for name in layer.__all__})
__all__ = sorted({name for layer in _LAYERS for name in layer.__all__}) + ["__version__"]
