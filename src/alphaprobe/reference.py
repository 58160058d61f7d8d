"""Bundled reference demonstration: a 5 mm quartz probing measurement.

Tomographically reconstructed polarization states from the published
demonstration with a 5 mm quartz plate: two probe preparations, the same
probes after traversing the plate under two laser-controlled pump settings,
and the known control shift between the two resulting downconversion lines.
The true line width quoted for that source is kept alongside so simulated
reruns can be truth-labeled; the bound machinery itself never reads it.
"""
from __future__ import annotations

import functools

import numpy as np

from .bounds import ProbingRecord
from .linalg import density_matrices

# control shift between the two pump settings and the independently
# characterized line width of the source, both in Hz
REFERENCE_DELTA_MU_HZ = 7.95e11
REFERENCE_SIGMA_HZ = 5.68e11

REFERENCE_RHO_1 = np.array(
    [[0.513, 0.482 - 0.006j], [0.482 + 0.006j, 0.487]]
)
REFERENCE_RHO_2 = np.array(
    [[0.535, 0.496 - 0.017j], [0.496 + 0.017j, 0.465]]
)
REFERENCE_EVOLVED_1 = np.array(
    [[0.510, 0.435 + 0.073j], [0.435 - 0.073j, 0.490]]
)
REFERENCE_EVOLVED_2 = np.array(
    [[0.509, 0.257 + 0.329j], [0.257 - 0.329j, 0.491]]
)


@functools.cache
def reference_record() -> ProbingRecord:
    """The demonstration measurement as a probing record, built once: it is immutable."""
    states = (REFERENCE_RHO_1, REFERENCE_RHO_2, REFERENCE_EVOLVED_1, REFERENCE_EVOLVED_2)
    return ProbingRecord(*density_matrices(states), delta_mu=REFERENCE_DELTA_MU_HZ)
