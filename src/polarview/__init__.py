"""Deterministic core of polar-parametrized surround-view 3D detection.

Subpackages group by concern: box parametrization (:mod:`.geometry`),
camera rigs and projection (:mod:`.camera`), feature sampling
(:mod:`.sampling`), label assignment (:mod:`.assignment`), the matched-pair
loss with verified gradients (:mod:`.loss`), a synthetic scene simulator
(:mod:`.simulator`, :mod:`.serialization`), tracking-by-detection
(:mod:`.tracker`) and detection metrics (:mod:`.metrics`).  The
``polarview`` CLI (:mod:`.cli`) ties them into reproducible experiments.
"""

from .geometry import (
    BoxEncoding,
    CartesianBox,
    CartesianVelocity,
    PolarBox,
    PolarVelocity,
    RangeConfig,
    RangeError,
    cartesian_to_polar,
    decode_box_encoding,
    encode_polar_box,
    polar_to_cartesian,
    velocity_cartesian_to_polar,
    velocity_polar_to_cartesian,
    wrap_angle,
)

__version__ = "0.1.0"

__all__ = [
    "BoxEncoding",
    "CartesianBox",
    "CartesianVelocity",
    "PolarBox",
    "PolarVelocity",
    "RangeConfig",
    "RangeError",
    "cartesian_to_polar",
    "decode_box_encoding",
    "encode_polar_box",
    "polar_to_cartesian",
    "velocity_cartesian_to_polar",
    "velocity_polar_to_cartesian",
    "wrap_angle",
    "__version__",
]
