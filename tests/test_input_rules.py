"""Inputs that would make a verdict vacuous or fail late are refused where they
are built: measures with non-finite weights or mesh, boxes and circles whose
sizes underflow, and control breakpoints that are not finite."""

import warnings

import numpy as np
import pytest

from mkernel.applications.control import ControlQP, assemble_control_qp
from mkernel.domains import Box, Circle, QuadratureMeasure
from mkernel.kernels import Gaussian, build_kernel

LINE = Box([0.0], [1.0])


@pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
def test_a_measure_refuses_a_weight_that_is_not_finite_and_nonnegative(weight):
    with pytest.raises(ValueError, match=f"quadrature weights must be finite and nonnegative, "
                                         f"got weight 1 = {weight}"):
        QuadratureMeasure(LINE, [[0.25], [0.5]], [1.0, weight], 0.1)


@pytest.mark.parametrize("mesh", [np.nan, np.inf, -0.1])
def test_a_measure_refuses_a_mesh_that_is_not_finite_and_nonnegative(mesh):
    with pytest.raises(ValueError, match=f"measure mesh must be finite and nonnegative, "
                                         f"got {mesh}"):
        QuadratureMeasure(LINE, [[0.5]], [1.0], mesh)


def test_a_measure_keeps_zero_weights_and_mesh():
    m = QuadratureMeasure(LINE, [[0.5]], [0.0], 0.0)
    assert m.total_mass == 0.0 and m.mesh == 0.0


@pytest.mark.parametrize("widths,what", [
    ([1e-108] * 3, r"its product \(the volume\)"),
    ([1e-120] * 3, r"its product \(the volume\)"),
    ([1e-170], "the sum of its squares"),
])
def test_a_box_whose_sizes_underflow_is_rejected(widths, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"box upper - lower \[.*\] is too narrow: "
                                             rf"{what} underflows to 0"):
            Box([0.0] * len(widths), widths)


def test_a_box_at_the_edge_of_underflow_constructs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Box([0.0] * 3, [1e-107] * 3).volume > 0
        assert Box([0.0], [1e-160]).diameter > 0


def test_a_degenerate_box_is_named_before_its_sizes():
    with pytest.raises(ValueError, match="degenerate box"):
        Box([0.0, 0.0], [1.0, 0.0])


def test_a_circle_whose_squared_diameter_underflows_is_rejected():
    assert Circle(1e-162).diameter == 2e-162
    with pytest.raises(ValueError, match="circle radius 1e-163 is too small: "
                                         r"\(2 radius\)\^2 underflows to 0"):
        Circle(1e-163)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_control_breakpoints_must_be_finite(bad):
    k = build_kernel(Gaussian(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the Hessian is assembled
        with pytest.raises(ValueError, match=rf"non-finite value {bad} in breakpoints "
                                             r"at index \(1,\)"):
            assemble_control_qp(k, [0.0, bad, 1.0], 1.0)
    qp = assemble_control_qp(k, [0.0, 0.5, 1.0], 1.0)
    with pytest.raises(ValueError, match="in breakpoints"):
        ControlQP([0.0, bad, 1.0], qp.midpoints, qp.widths, qp.H, qp.b, 1)
