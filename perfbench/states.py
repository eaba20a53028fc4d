"""Inputs of the general-states workload, built without importing ``cvsteer``.

Each template fixes the Fock indices, the amplitudes (one draw from a fixed generator
seed) and the m*omega values it is evaluated at. The run's seed sets a global phase
per state and the density probe points. It changes no value and no amount of work:
between two amplitude draws of one Fock structure the cost of ``entropic_value``
differs by up to 2.6x (1.6 s to 4.2 s for the n=6 template on the 2-core reference
machine), so seeded amplitudes would make the run time measure the seed.
``make_reference.py`` computes the reference values of every template once.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# name -> (Fock index pairs, complex amplitudes?, m*omega values)
TEMPLATES: dict[str, tuple[tuple[tuple[int, int], ...], bool, tuple[float, ...]]] = {
    "real-2-n6": (((0, 6), (6, 0)), False, (1.0,)),
    "real-3": (((0, 0), (2, 3), (4, 1)), False, (1.0, 2.0)),
    "real-4-ladder": (((0, 0), (1, 1), (2, 2), (3, 3)), False, (1.0,)),
    "complex-3": (((1, 0), (0, 2), (3, 3)), True, (1.0, 0.5)),
    "complex-4": (((0, 1), (1, 0), (2, 2), (4, 3)), True, (1.0,)),
    "factorized": (((2, 0), (2, 1), (2, 3)), True, (1.0,)),
}


def template_terms(template: str) -> list[tuple[int, int, complex]]:
    """Normalized amplitudes: magnitudes in [0.4, 1] before normalization (no term is
    negligible), random signs (real templates) or phases (complex ones)."""
    pairs, is_complex, _ = TEMPLATES[template]
    rng = np.random.default_rng([sorted(TEMPLATES).index(template), 0])
    mags = rng.uniform(0.4, 1.0, size=len(pairs))
    if is_complex:
        phases = np.exp(2j * math.pi * rng.uniform(size=len(pairs)))
    else:
        phases = rng.choice([-1.0, 1.0], size=len(pairs))
    amps = mags * phases
    amps = amps / np.linalg.norm(amps)
    return [(n1, n2, complex(a)) for (n1, n2), a in zip(pairs, amps)]


def seeded_terms(template: str, rng) -> list[tuple[int, int, complex]]:
    """The template's state times a global phase drawn from ``rng``."""
    phase = cmath.exp(2j * math.pi * float(rng.uniform()))
    return [(n1, n2, a * phase) for n1, n2, a in template_terms(template)]
