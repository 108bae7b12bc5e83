import dataclasses
import math

from cnr import checks


def test_generic_real_range_failures_reported_once(monkeypatch):
    # a solver that reports h(pi/2) = h(3 pi/2) = 0 makes every generic range
    # look real; the suite must say so once, with the number of such cases
    solve = checks.support_direction

    def flat(a, theta, *cfg):
        res = solve(a, theta, *cfg)
        vertical = math.isclose(theta, math.pi / 2.0) or math.isclose(theta, 1.5 * math.pi)
        return dataclasses.replace(res, value=0.0) if vertical else res

    monkeypatch.setattr(checks, "support_direction", flat)
    results = checks.basic_suite(2, 0, count=3)
    generic = [r for r in results if r.name == "real_range_criterion_generic"]
    assert len(generic) == 1 and not generic[0].passed
    assert generic[0].detail == "3 of 3 generic matrices reported a real range"
    assert [r.name for r in results if r is not generic[0]] == list(checks.BASIC_BOUNDS)
