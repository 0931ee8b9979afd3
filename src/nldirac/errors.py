"""Exception types raised by the numerical machinery."""


class NonRealBilinear(ValueError):
    """A bilinear that must be real came out with a large imaginary part.

    This signals an inconsistency in the gamma-matrix basis, not a property
    of the input spinor.
    """


class PoleOrOrigin(ValueError):
    """Grid point sits on the coordinate axis or at the origin, where the
    spherical chart degenerates (cot(theta), 1/sin(theta), 1/r)."""


class SingularPoint(ArithmeticError):
    """Evaluation requested on (or numerically indistinguishable from) the
    singular locus of the matter distribution."""

    def __init__(self, r, theta, detail):
        self.r = r
        self.theta = theta
        super().__init__(f"singular locus hit at r={r!r}, theta={theta!r} "
                         f"({detail})")


class SingularG(SingularPoint):
    """The radial companion function G = 2/(r X^2) diverges where X = 0,
    i.e. on the sphere 2mr = 1."""


class DivergingState(RuntimeError):
    """ODE state exceeded the overflow guard during integration."""

    def __init__(self, r_last, message="state diverged"):
        self.r_last = r_last
        super().__init__(f"{message} (last good r = {r_last!r})")


class StepUnderflow(RuntimeError):
    """Adaptive integrator step collapsed, typically when approaching the
    singular radius 2mr = 1."""


class GridTooCoarse(RuntimeError):
    """Grid refinement failed to shrink the singular-locus uncertainty."""
