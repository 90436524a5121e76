import numpy as np
import pytest
from hypothesis import given, settings

from conftest import column_stochastic, simplex
from peerpred.divergence import DivergenceDomainError, hellinger, monotonicity_strict_predicate
from peerpred.priors import all_permutations
from peerpred.tolerances import RATIO_TOL

APPENDIX_P = np.array([0.1, 0.2, 0.7])
APPENDIX_Q = np.array([0.2, 0.4, 0.4])
APPENDIX_THETA = np.array([[0.3, 0.6, 0.0], [0.7, 0.4, 0.0], [0.0, 0.0, 1.0]])


def kl_divergence(p, q) -> float:
    """KL(p||q), the f-divergence sum_s q(s) f(p(s) / q(s)) of f(x) = x log x:
    terms with p(s) = 0 vanish, and p(s) > 0 = q(s) is outside its domain."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DivergenceDomainError(f"shape mismatch {p.shape} vs {q.shape}")
    if np.any((q == 0.0) & (p > 0.0)):
        raise DivergenceDomainError("KL is unbounded where q is zero and p is not")
    support = p > 0.0
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def strict_predicate_by_rows(theta, p, q) -> bool:
    """The predicate row by row: some row of theta takes positive p-mass from
    two signals whose cross products p(s') q(s'') and p(s'') q(s') differ."""
    mass = theta * p[None, :]
    for row in range(p.size):
        active = np.nonzero(mass[row] > 0.0)[0]
        pa, qa = p[active], q[active]
        cross = np.abs(pa[:, None] * qa[None, :] - pa[None, :] * qa[:, None])
        if active.size >= 2 and np.max(cross) > RATIO_TOL:
            return True
    return False


class TestHellinger:
    def test_zero_at_equality(self):
        p = np.array([0.2, 0.3, 0.5])
        assert hellinger(p, p) == 0.0

    def test_disjoint_supports(self):
        assert hellinger(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_reference_value(self):
        assert float(hellinger(APPENDIX_P, APPENDIX_Q)) == pytest.approx(0.093171, abs=1e-6)

    def test_generic_matches_closed_form(self):
        # the f-divergence sum_s q(s) f(p(s) / q(s)) of f(x) = (sqrt(x) - 1)^2
        generic = np.sum(APPENDIX_Q * (np.sqrt(APPENDIX_P / APPENDIX_Q) - 1.0) ** 2)
        assert float(hellinger(APPENDIX_P, APPENDIX_Q)) == pytest.approx(generic, abs=1e-15)

    def test_broadcasting(self):
        pts = np.array([[0.5, 0.5], [0.9, 0.1]])
        out = hellinger(pts[:, None, :], pts[None, :, :])
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.0 and out[0, 1] == out[1, 0]

    @settings(max_examples=200, deadline=None)
    @given(simplex(3), simplex(3))
    def test_bounds_and_identity(self, p, q):
        d = float(hellinger(p, q))
        assert -1e-15 <= d <= 2.0
        if np.max(np.abs(p - q)) > 1e-6:
            assert d > 0.0

    @settings(max_examples=200, deadline=None)
    @given(simplex(3), simplex(3), simplex(3))
    def test_sqrt_is_metric(self, p, q, r):
        dpq, dpr, drq = (np.sqrt(float(hellinger(a, b))) for a, b in ((p, q), (p, r), (r, q)))
        assert dpq <= dpr + drq + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(simplex(3), simplex(3), simplex(3))
    def test_joint_convexity_midpoints(self, p, q, r):
        # convex in each argument separately
        lhs = float(hellinger(p, 0.5 * q + 0.5 * r))
        rhs = 0.5 * float(hellinger(p, q)) + 0.5 * float(hellinger(p, r))
        assert lhs <= rhs + 1e-12
        lhs = float(hellinger(0.5 * q + 0.5 * r, p))
        rhs = 0.5 * float(hellinger(q, p)) + 0.5 * float(hellinger(r, p))
        assert lhs <= rhs + 1e-12


class TestKL:
    def test_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)

    def test_zero_numerator_ok(self):
        assert kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(
            np.log(2.0)
        )

    def test_unbounded_at_zero_denominator(self):
        with pytest.raises(DivergenceDomainError, match="unbounded"):
            kl_divergence(np.array([0.5, 0.5]), np.array([0.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DivergenceDomainError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))


class TestMonotonicity:
    @settings(max_examples=300, deadline=None)
    @given(column_stochastic(3), simplex(3), simplex(3))
    def test_never_increases(self, theta, p, q):
        assert float(hellinger(theta @ p, theta @ q)) <= float(hellinger(p, q)) + 1e-12
        kl_before = kl_divergence(p, q)
        kl_after = kl_divergence(theta @ p, theta @ q)
        assert kl_after <= kl_before + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(simplex(3), simplex(3))
    def test_permutation_equality(self, p, q):
        for perm in all_permutations(3):
            theta = perm.matrix()
            assert abs(float(hellinger(theta @ p, theta @ q)) - float(hellinger(p, q))) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(column_stochastic(3), simplex(3), simplex(3))
    def test_strictness_oracle(self, theta, p, q):
        before = float(hellinger(p, q))
        after = float(hellinger(theta @ p, theta @ q))
        if monotonicity_strict_predicate(theta, p, q):
            assert before - after > 0.0
        else:
            assert before - after <= 1e-12


class TestStrictPredicate:
    def test_appendix_example(self):
        assert not monotonicity_strict_predicate(APPENDIX_THETA, APPENDIX_P, APPENDIX_Q)
        before = float(hellinger(APPENDIX_P, APPENDIX_Q))
        after = float(hellinger(APPENDIX_THETA @ APPENDIX_P, APPENDIX_THETA @ APPENDIX_Q))
        assert abs(before - after) <= 1e-12
        # equality holds for any convex generator, not just Hellinger
        assert kl_divergence(APPENDIX_THETA @ APPENDIX_P, APPENDIX_THETA @ APPENDIX_Q) == (
            pytest.approx(kl_divergence(APPENDIX_P, APPENDIX_Q), abs=1e-12)
        )

    def test_identity_never_strict(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        assert not monotonicity_strict_predicate(np.eye(2), p, q)

    def test_uniform_rows_strict(self):
        theta = np.full((2, 2), 0.5)
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        assert monotonicity_strict_predicate(theta, p, q)
        assert float(hellinger(theta @ p, theta @ q)) < float(hellinger(p, q))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stack_matches_rows(self, m):
        """A stack of 3,000 (theta, p, q), a fifth of the entries zeroed and a
        fifth of the q equal to p, against the row-by-row rule entry by entry."""
        rng = np.random.default_rng(m)
        size = 3000
        theta = rng.dirichlet(np.ones(m), size=(size, m)).transpose(0, 2, 1)
        theta = np.where(rng.random(theta.shape) < 0.2, 0.0, theta)
        p = np.where(rng.random((size, m)) < 0.2, 0.0, rng.dirichlet(np.ones(m), size))
        q = np.where(rng.random((size, m)) < 0.2, 0.0, rng.dirichlet(np.ones(m), size))
        q[::5] = p[::5]
        stacked = monotonicity_strict_predicate(theta, p, q)
        rows = [strict_predicate_by_rows(theta[k], p[k], q[k]) for k in range(size)]
        assert stacked.tolist() == rows
        assert 0 < sum(rows) < size

    def test_dimension_mismatch(self):
        with pytest.raises(DivergenceDomainError):
            monotonicity_strict_predicate(np.eye(3), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(DivergenceDomainError):  # a stack of two p against one theta
            monotonicity_strict_predicate(np.eye(2), np.full((2, 2), 0.5), np.full((2, 2), 0.5))

