"""Reference implementations that the tests compare the library against."""

import math
from dataclasses import dataclass

from atomphase import DipoleOrientation


@dataclass(frozen=True)
class DipolePattern:
    """Far-field dipole radiation pattern sin^2(Theta) about the dipole axis.

    For an axial dipole Theta is the polar angle itself; for a transverse
    dipole (axis in the phi = 0 plane) cos(Theta) = sin(theta) cos(phi).
    The intensity integrates to 8 pi / 3 over the full sphere.
    """

    orientation: DipoleOrientation

    def intensity(self, theta: float, phi: float = 0.0) -> float:
        if self.orientation is DipoleOrientation.AXIAL:
            return math.sin(theta) ** 2
        projection = math.sin(theta) * math.cos(phi)
        return 1.0 - projection * projection

    def amplitude(self, theta: float, phi: float = 0.0) -> float:
        return math.sqrt(self.intensity(theta, phi))
