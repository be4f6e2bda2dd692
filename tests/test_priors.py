import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import beta as beta_dist

import crowdbp as cb
from crowdbp.priors import FactorTable, gauss_rules
from tests.conftest import random_prior


def check_factor_normalization(table: FactorTable, atol: float = 1e-9) -> None:
    """sum_c binom(r, c) f(c, r) must be 1 for every r: answers are a distribution."""
    for r in range(table.r_max + 1):
        total = sum(
            math.comb(r, c) * math.exp(table.log_values[r, c]) for c in range(r + 1)
        )
        assert math.isclose(total, 1.0, abs_tol=atol, rel_tol=0.0), (
            f"factor table row r={r} sums to {total!r}")


class TestMoments:
    def test_spammer_hammer(self):
        mu, q = cb.spammer_hammer().moments()
        assert mu == pytest.approx(0.4, abs=1e-15)
        assert q == pytest.approx(0.32, abs=1e-15)

    def test_adversarial_mixture(self):
        mu, q = cb.adversary_spammer_hammer().moments()
        assert mu == pytest.approx(0.2, abs=1e-15)
        assert q == pytest.approx(0.48, abs=1e-15)

    def test_beta_2_1(self):
        mu, q = cb.ReliabilityPrior.from_beta(2, 1).moments()
        assert mu == pytest.approx(1 / 3, rel=1e-12)
        assert q == pytest.approx(1 / 3, rel=1e-12)

    def test_beta_moments_match_quadrature(self, rng):
        for _ in range(20):
            a, b = rng.uniform(0.5, 6, size=2)
            prior = cb.ReliabilityPrior.from_beta(a, b)
            mu, q = prior.moments()
            density = beta_dist(a, b).pdf
            mu_ref, _ = integrate.quad(lambda p: (2 * p - 1) * density(p), 0, 1)
            q_ref, _ = integrate.quad(lambda p: (2 * p - 1) ** 2 * density(p), 0, 1)
            assert mu == pytest.approx(mu_ref, abs=1e-9)
            assert q == pytest.approx(q_ref, abs=1e-9)


class TestLogFactor:
    def test_spammer_hammer_values(self):
        sh = cb.spammer_hammer()
        assert math.exp(sh.log_factor(2, 2)) == pytest.approx(0.53, abs=1e-12)
        assert math.exp(sh.log_factor(1, 2)) == pytest.approx(0.17, abs=1e-12)
        assert math.exp(sh.log_factor(0, 2)) == pytest.approx(0.13, abs=1e-12)

    def test_beta_mean_and_empty_pattern(self):
        assert math.exp(cb.ReliabilityPrior.from_beta(2, 1).log_factor(1, 1)) == \
            pytest.approx(2 / 3, rel=1e-12)
        assert cb.spammer_hammer().log_factor(0, 0) == 0.0

    def test_beta_against_numeric_integration(self, rng):
        # Independent oracle: integrate p^c (1-p)^(r-c) against the density.
        for _ in range(20):
            a, b = rng.uniform(0.5, 6, size=2)
            r = int(rng.integers(0, 9))
            c = int(rng.integers(0, r + 1))
            prior = cb.ReliabilityPrior.from_beta(a, b)
            density = beta_dist(a, b).pdf
            ref, _ = integrate.quad(
                lambda p: p**c * (1 - p) ** (r - c) * density(p), 0, 1)
            assert math.exp(prior.log_factor(c, r)) == pytest.approx(ref, abs=1e-8)

    def test_zero_mass_pattern_is_minus_inf(self):
        perfect = cb.ReliabilityPrior.from_atoms([1.0], [1.0])
        assert perfect.log_factor(0, 1) == -math.inf
        assert perfect.log_factor(1, 1) == 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(cb.ParameterError):
            cb.spammer_hammer().log_factor(3, 2)
        with pytest.raises(cb.ParameterError):
            cb.spammer_hammer().log_factor(-1, 2)


class TestSupportAtoms:
    def test_atom_priors_return_their_own_support(self):
        sh = cb.spammer_hammer()
        p, w = sh.support_atoms(12)
        np.testing.assert_array_equal(p, [0.5, 0.9])
        np.testing.assert_array_equal(w, [0.5, 0.5])

    def test_beta_quadrature_reproduces_factors_exactly(self, rng):
        # The quadrature rule must integrate every p^c (1-p)^(r-c) with
        # r <= degree to near machine precision, or the message kernel
        # would silently disagree with the factor table.
        for _ in range(20):
            a, b = rng.uniform(0.5, 6, size=2)
            degree = int(rng.integers(1, 13))
            prior = cb.ReliabilityPrior.from_beta(a, b)
            p, w = prior.support_atoms(degree)
            for r in range(degree + 1):
                for c in range(r + 1):
                    quad = float(w @ (p**c * (1 - p) ** (r - c)))
                    assert quad == pytest.approx(math.exp(prior.log_factor(c, r)),
                                                 rel=1e-12, abs=1e-14)


class TestGaussRules:
    """The reduced rules the degree classes run: k nodes exact to degree 2k - 1."""

    def check_moments(self, p, w, sizes):
        mu = 2.0 * p - 1.0
        for k, (nodes, weights) in zip(sizes, gauss_rules(mu, w, sizes)):
            assert nodes.size == weights.size == k
            assert (weights > 0).all() and (nodes >= mu.min()).all() and (nodes <= mu.max()).all()
            powers = np.arange(2 * k)
            exact = np.sum(w[:, None] * mu[:, None] ** powers, axis=0)
            rule = np.sum(weights[:, None] * nodes[:, None] ** powers, axis=0)
            np.testing.assert_allclose(rule, exact, rtol=0, atol=1e-13, err_msg=f"k={k}")

    def test_empirical_prior_of_400_atoms(self, rng):
        degrees = rng.integers(1, 900, size=4000)
        scores = (0.25 + rng.binomial(degrees, rng.uniform(0.1, 0.95, size=4000))) / (
            0.5 + degrees)
        values = rng.choice(np.unique(scores), size=400, replace=False)
        prior = cb.empirical_prior(np.repeat(values, rng.integers(1, 9, size=400)))
        assert prior.atom_p.size == 400
        self.check_moments(prior.atom_p, prior.atom_w,
                           [1, 2, 3, 4, 7, 8, 15, 16, 31, 64, 127, 200, 255, 399])

    def test_beta_quadrature_at_r_max_862(self):
        # The skewed benchmark graph's largest degree: a 432-node
        # Gauss-Jacobi rule for the U-shaped Beta(1/2, 1/2), reduced again.
        p, w = cb.ReliabilityPrior.from_beta(0.5, 0.5).support_atoms(862)
        assert p.size == 432
        self.check_moments(p, w, [1, 2, 3, 5, 8, 16, 32, 63, 128, 255, 300, 431])

    def test_reduced_beta_rule_is_the_smaller_gauss_jacobi_rule(self, rng):
        for _ in range(10):
            prior = cb.ReliabilityPrior.from_beta(*rng.uniform(0.5, 5.0, size=2))
            p, w = prior.support_atoms(200)
            k = int(rng.integers(1, 100))
            nodes, weights = gauss_rules(2.0 * p - 1.0, w, [k])[0]
            small_p, small_w = prior.support_atoms(2 * k - 1)
            # Two computations of one rule: SciPy's and the reduction's.
            np.testing.assert_allclose(nodes, 2.0 * small_p - 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, small_w, rtol=0, atol=1e-12)


class TestValidationAndParsing:
    def test_prior_validation(self):
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior.from_atoms([0.5, 1.2], [0.5, 0.5])
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior.from_atoms([0.5, 0.9], [0.7, 0.7])
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior.from_atoms([0.5], [0.5, 0.5])
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior.from_atoms([], [])
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior.from_beta(0.0, 1.0)
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior(kind="gamma")

    def test_parse_prior_spec(self):
        assert cb.parse_prior_spec("sh").atom_p.tolist() == [0.5, 0.9]
        assert cb.parse_prior_spec("ASH").atom_w.tolist() == [0.25, 0.25, 0.5]
        beta = cb.parse_prior_spec("beta:2,1")
        assert (beta.alpha, beta.beta) == (2.0, 1.0)
        atoms = cb.parse_prior_spec("atoms:0.3=0.25,0.8=0.75")
        np.testing.assert_allclose(atoms.atom_p, [0.3, 0.8])
        np.testing.assert_allclose(atoms.atom_w, [0.25, 0.75])

    @pytest.mark.parametrize("bad", ["", "bogus", "beta:1", "beta:a,b",
                                     "atoms:", "atoms:0.5", "atoms:x=y"])
    def test_parse_prior_spec_rejects(self, bad):
        with pytest.raises(cb.ParameterError):
            cb.parse_prior_spec(bad)

    def test_empirical_prior_merges_duplicates(self):
        prior = cb.empirical_prior(np.array([0.6, 0.6, 0.9, 0.6]))
        np.testing.assert_allclose(prior.atom_p, [0.6, 0.9])
        np.testing.assert_allclose(prior.atom_w, [0.75, 0.25])
        with pytest.raises(cb.ParameterError):
            cb.empirical_prior(np.array([]))
        with pytest.raises(cb.ParameterError):
            cb.empirical_prior(np.array([0.5, 1.5]))

    def test_sampling_stays_in_support(self, rng):
        sh = cb.spammer_hammer().sample(rng, 200)
        assert set(np.unique(sh)) <= {0.5, 0.9}
        bb = cb.ReliabilityPrior.from_beta(2, 3).sample(rng, 200)
        assert bb.min() >= 0.0 and bb.max() <= 1.0


class TestFactorTable:
    def test_layout_and_lookup(self):
        table = FactorTable.build(cb.spammer_hammer(), 3)
        assert table.r_max == 3
        assert math.exp(table.log_value(2, 2)) == pytest.approx(0.53, abs=1e-12)
        assert np.isnan(table.log_values[1, 2])
        with pytest.raises(cb.ParameterError):
            table.log_value(3, 2)
        with pytest.raises(cb.ParameterError):
            table.log_value(1, 4)
        with pytest.raises(cb.ParameterError):
            FactorTable.build(cb.spammer_hammer(), -1)

    def test_carries_the_prior_support_atoms(self, rng):
        # The pair API's worker half reads its atoms from the table, so they
        # must be the ones bp_run takes from the prior.
        for _ in range(20):
            prior = random_prior(rng)
            r = int(rng.integers(0, 15))
            table = FactorTable.build(prior, r)
            p, w = prior.support_atoms(r)
            assert table.atom_p.tobytes() == np.asarray(p).tobytes()
            assert table.atom_w.tobytes() == np.asarray(w).tobytes()

    def test_normalization_holds_for_random_priors(self, rng):
        for _ in range(20):
            check_factor_normalization(FactorTable.build(random_prior(rng), 12))

    def test_normalization_flags_a_broken_table(self):
        table = FactorTable.build(cb.spammer_hammer(), 2)
        values = table.log_values.copy()
        values[2, 1] += 0.05
        import dataclasses
        broken = dataclasses.replace(table, log_values=values)
        with pytest.raises(AssertionError, match="r=2"):
            check_factor_normalization(broken)


def test_import_leaves_scipy_special_unloaded():
    # scipy.special dominates import time; only Beta priors, factor tables
    # and exact enumeration need it.  scipy.linalg would also load SciPy's
    # own BLAS; the degree-class Gauss rules use numpy's.
    script = ("import sys, crowdbp; "
              "print([m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
