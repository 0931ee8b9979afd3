"""The closed-form profile X and density phi^2 as plain arithmetic.

Each function here is a sequence of +, -, * and / (and the square root it
is given) that reads the same on Python floats and on numpy arrays, and
this module imports no numpy:
singular evaluates it in floats with math, without loading numpy, and polar
on arrays, so that both read one spelling of each formula and agree bit for
bit.
"""


def profile(r, m):
    """Radial profile X = (u - 1/u)/2 = sinh(ln u), u = 2mr; vanishes at u = 1.

    Written as (u - 1)(u + 1)(0.5/u): next to u = 1 the difference u - 1
    is exact, so X keeps its full relative precision at the locus, where
    the spelling u - 1/u cancels.  Complex-analytic in r."""
    u = 2.0 * m * r
    return (u - 1.0) * (u + 1.0) * (0.5 / u)


def companion(r, X):
    """G = 2/(r X^2) of the scalar model at radius r from its profile X."""
    return 2.0 / (r * X * X)


def density(r, q, S):
    """phi^2 = 2 q / (r S), q = sqrt(D), D = X^2 + cos^2 theta and S = X^2
    + p cos^2 theta."""
    return 2.0 * q / (r * S)


def raw_density(r, X, c, p, sqrt):
    """phi^2 at radius r from the profile X, c = cos(theta) and p, with
    ``sqrt`` the square root of the number type (math.sqrt or np.sqrt)."""
    X2, c2 = X * X, c * c
    return density(r, sqrt(X2 + c2), X2 + p * c2)
