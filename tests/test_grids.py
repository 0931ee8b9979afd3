import numpy as np
import pytest

from nldirac import equations, grids
from nldirac.geometry import GridPoint
from nldirac.polar import ModelSpec


def scalar_sample_points(rng, n, m=1.0, reject=None):
    """One (ln r, theta) pair per draw, each point tested on its own: the
    reference stream the block sampler must reproduce."""
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > 10000:
            raise RuntimeError("rejection sampling did not terminate")
        r = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))) / m)
        th = float(rng.uniform(0.3, np.pi - 0.3))
        pt = GridPoint(r, th)
        if reject is not None and reject(pt):
            continue
        out.append(pt)
    return out


def half(pt):
    # drops about half of the draws, in runs of either kind
    return np.sin(7.0 * np.log(pt.r) + 3.0 * pt.theta) > 0.0


def test_block_sampler_reproduces_the_scalar_stream():
    spec = ModelSpec("soler", m=0.7)
    rejects = (None, half, lambda pt: equations.is_masked(pt, spec, 1.0))
    for seed in (42, 678993):
        for reject in rejects:
            for n in (1, 50):
                ref_rng = np.random.default_rng(seed)
                rng = np.random.default_rng(seed)
                ref = scalar_sample_points(ref_rng, n, spec.m, reject)
                pts = grids.sample_points(rng, n, spec.m, reject)
                assert pts.shape == (n,)
                assert np.array_equal(pts.r, [pt.r for pt in ref])
                assert np.array_equal(pts.theta, [pt.theta for pt in ref])
                # and no draw more than the scalar stream takes
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    kept = grids.sample_points(np.random.default_rng(42), 200, reject=half)
    assert not half(kept).any()
    drawn = grids.sample_points(np.random.default_rng(42), 200)
    assert 0.3 < half(drawn).mean() < 0.7


def test_block_sampler_stops_after_ten_thousand_draws():
    def reject_all(pt):
        return np.ones(np.shape(pt.r), dtype=bool)

    ref_rng, rng = np.random.default_rng(42), np.random.default_rng(42)
    with pytest.raises(RuntimeError, match="did not terminate"):
        scalar_sample_points(ref_rng, 5, reject=reject_all)
    with pytest.raises(RuntimeError, match="did not terminate"):
        grids.sample_points(rng, 5, reject=reject_all)
    # both gave up after the same 10000 pairs
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_points_is_the_whole_grid_in_r_major_order(monkeypatch):
    # one GridPoint of (n_r, n_theta) arrays, validated once: row i is
    # radius i at every theta, as the per-radius rows held it
    cfg = grids.GridConfig(r_min=0.07, r_max=13.0, n_r=9, n_theta=5)
    built = []
    new = GridPoint.__new__

    def counting(cls, r, theta):
        built.append(np.shape(r))
        return new(cls, r, theta)

    monkeypatch.setattr(GridPoint, "__new__", counting)
    grid = grids.points(cfg, m=0.6)
    assert built == [(9, 5)]
    ths = grids.thetas(cfg)
    for i, r in enumerate(grids.radii(cfg, m=0.6)):
        assert np.array_equal(grid.r[i], np.full_like(ths, r))
        assert np.array_equal(grid.theta[i], ths)
    assert not grid.r.flags.writeable and not grid.theta.flags.writeable
