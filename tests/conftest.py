import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def path_counts(monkeypatch):
    """The centred barrier path's work while a test runs: the Newton steps
    of each mu level in order (levels) and the Cholesky factorisations that
    failed (failed), each a trial step outside the cone."""
    from cnr import crange, metrics

    counts = types.SimpleNamespace(levels=[], failed=0)
    cholesky, centred_path = np.linalg.cholesky, crange._centred_path

    def counted_cholesky(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            counts.failed += 1
            raise

    def counted_path(slack, newton, x, mu, stop, mu_min=0.0):
        mus = []

        def counted_newton(w, mu):
            if not mus or mu != mus[-1]:
                mus.append(mu)
                counts.levels.append(0)
            counts.levels[-1] += 1
            return newton(w, mu)

        return centred_path(slack, counted_newton, x, mu, stop, mu_min)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(crange, "_centred_path", counted_path)
    monkeypatch.setattr(metrics, "_centred_path", counted_path)
    return counts
