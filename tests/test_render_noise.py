"""``render``'s noise model against its closed forms, one noise source at a time.

A fixed scene is rendered once per source with every other source at 0.  Without drops and false positives
each rendered row is its own object's row, so each error is read against ``polar_fields`` of that object,
with no matching.  A mean absolute error of N(0, s^2) noise is half-normal, with mean s*sqrt(2/pi) and
std s*sqrt(1 - 2/pi); the length of two such errors is Rayleigh, with mean s*sqrt(pi/2) and std
s*sqrt(2 - pi/2).  Dropped rows are Binomial(n, p) and false positives Poisson(rate * frames).  Every check
holds within 5 standard errors of its sample.  The scene and noise seeds were fixed before the first run.
"""

import math

import numpy as np
import pytest

from polarview.geometry import polar_fields, rotate_planar
from polarview.simulator import NoiseModel, SceneConfig, generate_scene, render_detections

SCENE = generate_scene(SceneConfig(n_objects=300, n_frames=20, seed=2031))
STD = 0.3
BOUND = 5.0  # standard errors


def truth():
    """Each object row's polar box (n, 9) and its polar velocity (n, 2), in the scene's row order."""
    _, boxes, velocities = SCENE.stacked("boxes", "velocities")
    polar = np.array([polar_fields(*box) for box in boxes.tolist()])
    v_rad, v_tan = rotate_planar(velocities[:, 0], velocities[:, 1], -polar[:, 1], polar[:, 2])
    return polar, np.column_stack([v_rad, v_tan])


TRUE_BOXES, TRUE_VELOCITIES = truth()
N_ROWS = len(TRUE_BOXES)


def rendered(**noise):
    """The boxes and velocities of one render, row for row with the objects."""
    detections = render_detections(SCENE, NoiseModel(**noise))
    counts, boxes, velocities = detections.stacked("boxes", "velocities")
    assert counts.tolist() == [len(f) for f in SCENE.frames]
    return boxes, velocities


def assert_mean(values, mean, std):
    """The sample mean of ``values``, each of mean ``mean`` and std ``std``, lies within ``BOUND`` errors."""
    assert abs(np.mean(values) - mean) <= BOUND * std / math.sqrt(len(values))


def assert_half_normal(errors, std):
    assert_mean(np.abs(errors), std * math.sqrt(2.0 / math.pi), std * math.sqrt(1.0 - 2.0 / math.pi))


def assert_rayleigh(lengths, std):
    assert_mean(lengths, std * math.sqrt(math.pi / 2.0), std * math.sqrt(2.0 - math.pi / 2.0))


def bearings(boxes):
    return np.arctan2(boxes[:, 1], boxes[:, 2])


def assert_unmoved(boxes, box_fields, velocities=None):
    """The named box fields, and the velocities if given, are the truth's bit for bit."""
    assert boxes[:, box_fields].tobytes() == TRUE_BOXES[:, box_fields].tobytes()
    if velocities is not None:
        assert velocities.tobytes() == TRUE_VELOCITIES.tobytes()


class TestPositionNoise:
    def test_radial_error_is_half_normal(self):
        boxes, velocities = rendered(radial_std=STD, seed=101)
        assert_half_normal(boxes[:, 0] - TRUE_BOXES[:, 0], STD)
        assert_unmoved(boxes, slice(1, 9), velocities)

    def test_tangential_error_is_half_normal(self):
        std = 0.01
        boxes, _ = rendered(tangential_std=std, seed=102)
        error = np.remainder(bearings(boxes) - bearings(TRUE_BOXES) + math.pi, 2.0 * math.pi) - math.pi
        assert_half_normal(error, std)
        assert_unmoved(boxes, [0, 3, 4, 5, 6, 7, 8])

    def test_cartesian_error_is_rayleigh(self):
        boxes, _ = rendered(radial_std=STD, mode="cartesian", seed=103)
        dx, dy = (boxes[:, 0] * boxes[:, c] - TRUE_BOXES[:, 0] * TRUE_BOXES[:, c] for c in (2, 1))
        assert_half_normal(dx, STD)
        assert_half_normal(dy, STD)
        assert_rayleigh(np.hypot(dx, dy), STD)
        assert_unmoved(boxes, slice(3, 9))


class TestBoxNoise:
    def test_z_error_is_half_normal(self):
        boxes, velocities = rendered(z_std=STD, seed=107)
        assert_half_normal(boxes[:, 3] - TRUE_BOXES[:, 3], STD)
        assert_unmoved(boxes, [0, 1, 2, 4, 5, 6, 7, 8], velocities)

    def test_size_log_ratios_are_half_normal(self):
        boxes, velocities = rendered(size_rel_std=STD, seed=108)
        for c in (4, 5, 6):
            assert_half_normal(np.log(boxes[:, c] / TRUE_BOXES[:, c]), STD)
        assert_unmoved(boxes, [0, 1, 2, 3, 7, 8], velocities)

    def test_yaw_error_is_half_normal(self):
        boxes, velocities = rendered(yaw_std=STD, seed=109)
        error = np.arctan2(boxes[:, 7], boxes[:, 8]) - np.arctan2(TRUE_BOXES[:, 7], TRUE_BOXES[:, 8])
        assert_half_normal(np.remainder(error + math.pi, 2.0 * math.pi) - math.pi, STD)
        assert_unmoved(boxes, slice(0, 7), velocities)


class TestVelocityNoise:
    def test_velocity_error_is_half_normal_per_component_and_rayleigh_in_length(self):
        boxes, velocities = rendered(velocity_std=STD, seed=104)
        errors = velocities - TRUE_VELOCITIES
        assert_half_normal(errors[:, 0], STD)
        assert_half_normal(errors[:, 1], STD)
        assert_rayleigh(np.hypot(errors[:, 0], errors[:, 1]), STD)
        assert_unmoved(boxes, slice(0, 9))


class TestCounts:
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_dropped_rows_are_binomial(self, p):
        detections = render_detections(SCENE, NoiseModel(drop_prob=p, seed=105))
        dropped = N_ROWS - sum(len(f) for f in detections.frames)
        assert abs(dropped - N_ROWS * p) <= BOUND * math.sqrt(N_ROWS * p * (1.0 - p))

    @pytest.mark.parametrize("rate", [0.5, 20.0])
    def test_false_positives_are_poisson(self, rate):
        detections = render_detections(SCENE, NoiseModel(false_positive_rate=rate, seed=106))
        mean = rate * len(SCENE.frames)
        added = sum(len(f) for f in detections.frames) - N_ROWS
        assert abs(added - mean) <= BOUND * math.sqrt(mean)
