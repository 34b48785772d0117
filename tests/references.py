"""Reference evaluations the tests compare the library against; no library path uses them."""

import numpy as np

from curvswim.fields import as_points, complex_view
from curvswim.geometry import Surface, rigid_velocity


def killing_frame(surface: Surface, p) -> np.ndarray:
    """The three Killing fields at chart points p, shape (..., 2), stacked as (3, ..., 2)."""
    a = as_points(p)
    return rigid_velocity(surface, np.eye(3), complex_view(a.reshape(-1, 2))).view(float).reshape((3,) + a.shape)
