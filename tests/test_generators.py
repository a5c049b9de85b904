import functools

import numpy as np
import pytest

from blaschke_lab import generators
from blaschke_lab.blaschke import BlaschkeProduct, separation_report
from blaschke_lab.carleson import carleson_norm
from blaschke_lab.disk import FiniteSequence, psh_distance
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_perturbed,
    gen_radial_geometric,
    gen_random_carleson,
    gen_union,
)
from oracles import rescanning_random_carleson


def test_radial_geometric():
    s = gen_radial_geometric(0.5, 3)
    assert np.allclose(s.zs, [0.5, 0.75, 0.875])
    two = gen_radial_geometric(0.5, 2, (0.0, np.pi))
    assert len(two) == 4
    with pytest.raises(ValueError):
        gen_radial_geometric(1.5, 3)
    with pytest.raises(ValueError):
        gen_radial_geometric(0.5, 0)


def test_radial_separation_limit():
    # consecutive gaps approach (1-q)/(1+q)
    q = 0.5
    s = gen_radial_geometric(q, 20)
    gaps = [psh_distance(s.zs[k], s.zs[k + 1]) for k in range(15, 19)]
    assert gaps[-1] == pytest.approx((1 - q) / (1 + q), abs=1e-4)


def test_union():
    base = gen_radial_geometric(0.5, 6)
    assert np.array_equal(gen_union(1, base, 3).zs, base.zs)
    u = gen_union(3, base, 3)
    assert len(u) == 18
    assert len(set(u.zs)) == 18
    with pytest.raises(ValueError):
        gen_union(0, base, 3)


def test_union_collision_raises():
    # every rotated copy of 0 is 0: each jitter draw collides
    base = FiniteSequence([0.0, 0.5])
    with pytest.raises(RuntimeError, match="kept colliding"):
        gen_union(2, base, 0)


def test_counterexample():
    s = gen_escalating_multiplicity(2, 0.25)
    assert [(z.real, m) for z, m in zip(s.zs.tolist(), s.mults.tolist())] == [
        (0.75, 1), (0.9375, 2),
    ]
    split = gen_escalating_multiplicity(3, 0.25, split=True)
    assert split.is_simple() and split.total_count == 6
    # split spacing close to the requested pseudohyperbolic step
    z1, z2 = split.zs[1], split.zs[2]
    assert psh_distance(z1, z2) == pytest.approx(1e-4, rel=0.1)
    with pytest.raises(ValueError):
        gen_escalating_multiplicity(0)


def test_random_carleson():
    for seed in (1, 2, 3):
        s = gen_random_carleson(seed, 80, 4.0)
        assert len(s) == 80
        assert carleson_norm(s) <= 1.2 * 4.0
    a = gen_random_carleson(7, 60, 4.0)
    b = gen_random_carleson(7, 60, 4.0)
    assert np.array_equal(a.zs, b.zs)
    huge = gen_random_carleson(0, 20, 1e9)
    assert len(huge) == 20
    with pytest.raises(ValueError):
        gen_random_carleson(0, 0, 4.0)
    with pytest.raises(RuntimeError, match="budget"):
        gen_random_carleson(0, 50, 0.05)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            gen_random_carleson(0, 10, bad)


def _draw(sampler, seed, n, target):
    """The sampler's points, or the message of the RuntimeError it raised."""
    try:
        return sampler(seed, n, target).zs
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("target", [2.0, 4.0])
@pytest.mark.parametrize("n", [8, 40, 200])
def test_random_carleson_matches_rescanning_sampler(n, target):
    # the cell-mass table must accept exactly the candidates a rescan of
    # every accepted atom accepts, and fail where the rescan fails
    for seed in range(30):
        want = _draw(rescanning_random_carleson, seed, n, target)
        got = _draw(gen_random_carleson, seed, n, target)
        if isinstance(want, str):
            assert got == want, seed
        else:
            assert not isinstance(got, str) and np.array_equal(got, want), seed


def test_random_carleson_angle_of_two_pi_lies_in_cell_zero(monkeypatch):
    # a uniform draw on [0, 2 pi) divided by 2 pi stays below 1, so no
    # seeded cloud reaches the wrap; a stub generator turns every other
    # angle below 1/2 into exactly 2 pi and the rest into angles below
    # 5e-5, so that the rescan's wrapped cells crowd both into cell 0.  The
    # rescan draws its angles one by one and the sampler in blocks of
    # three doubles per candidate (the angle is 2 pi times the third); a
    # draw of 1.0 is 2 pi on both paths, and scaling by 2^-14 is exact, so
    # both paths see the same angles
    seeded = np.random.default_rng

    class Wrapping:
        def __init__(self, seed):
            self.rng, self.small = seeded(seed), 0

        def _wrap(self, u, unit):
            self.small += 1
            return unit if self.small % 2 else u * 2.0**-14

        def choice(self, *args, **kwargs):
            return self.rng.choice(*args, **kwargs)

        def uniform(self, low=0.0, high=1.0):
            u = self.rng.uniform(low, high)
            if high == 2.0 * np.pi and u < 0.5:
                return self._wrap(u, 2.0 * np.pi)
            return u

        def random(self, size=None):
            u = self.rng.random(size)
            for row in u:
                if 2.0 * np.pi * row[2] < 0.5:
                    row[2] = self._wrap(row[2], 1.0)
            return u

    monkeypatch.setattr(np.random, "default_rng", Wrapping)
    for seed in range(4):
        want = _draw(rescanning_random_carleson, seed, 40, 4.0)
        got = _draw(gen_random_carleson, seed, 40, 4.0)
        assert not isinstance(want, str) and np.array_equal(got, want), seed
        at_two_pi = (want.imag < 0) & (want.imag > -1e-15)
        assert at_two_pi.any() and (~at_two_pi & (abs(want.imag) < 0.4)).any(), seed


@pytest.mark.parametrize("tries", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [40, 200])
def test_random_carleson_budget_counts_attempts_across_blocks(monkeypatch, n, tries):
    # the candidates come in blocks, but each point still gets exactly
    # `tries` of them, wherever a block ends; blocks of 5 put a block end
    # inside most budgets.  At target 12 small budgets give both finished
    # clouds and exhausted ones
    monkeypatch.setattr(generators, "_TRIES_PER_POINT", tries)
    oracle = functools.partial(rescanning_random_carleson, max_tries_per_point=tries)
    for seed in range(20):
        want = _draw(oracle, seed, n, 12.0)
        for block in (generators._DRAW_BLOCK, 5):
            monkeypatch.setattr(generators, "_DRAW_BLOCK", block)
            got = _draw(gen_random_carleson, seed, n, 12.0)
            if isinstance(want, str):
                assert got == want, (seed, block)
            else:
                assert not isinstance(got, str) and np.array_equal(got, want), (seed, block)


def test_random_carleson_tiny_target_matches_rescanning_sampler():
    # the levels run 28 and 36 deep, where a table of every dyadic cell
    # would not fit in memory; no atom fits under so small a cap, so both
    # samplers give up on the first point
    for seed, n, target in [(0, 10, 1e-6), (1, 10, 1e-6), (2, 3, 2.0**-9 * 1e-6)]:
        want = _draw(rescanning_random_carleson, seed, n, target)
        got = _draw(gen_random_carleson, seed, n, target)
        assert type(got) is type(want) and np.array_equal(got, want), seed


@pytest.mark.parametrize("seed, n", [(287335975, 200), (276102408, 800)])
def test_random_carleson_bench_clouds_match_rescanning_sampler(seed, n):
    want = rescanning_random_carleson(seed, n, 4.0).zs
    assert np.array_equal(gen_random_carleson(seed, n, 4.0).zs, want)


def test_perturbed():
    base = gen_radial_geometric(0.5, 6)
    s = gen_perturbed(base, n_satellites=2, n_doubles=1, seed=4)
    assert len(s) == 8
    assert s.total_count == 9
    t = gen_perturbed(base, n_satellites=2, n_doubles=1, seed=4)
    assert np.array_equal(s.zs, t.zs)
    with pytest.raises(ValueError):
        gen_perturbed(base, n_satellites=5, n_doubles=5)
    with pytest.raises(ValueError):
        gen_perturbed(base, n_satellites=-1, n_doubles=2)


def test_family_properties_hold():
    # documented battery: separation and carleson bounds across seeds
    for seed in range(3):
        u = gen_union(2, gen_radial_geometric(0.5, 8), seed)
        rep = separation_report(BlaschkeProduct(u))
        assert rep.delta > 1e-4
        assert carleson_norm(u) < 10.0
