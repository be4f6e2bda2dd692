import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_jacobi, logsumexp, roots_jacobi
from scipy.stats import beta as beta_dist

import crowdbp as cb
from crowdbp import bp
from crowdbp.bp import bp_init, bp_update_worker_messages
from crowdbp.priors import FactorTable
from tests.conftest import random_prior
from tests.worker_reference import reference_worker_kernel


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


def log_factor(prior: cb.ReliabilityPrior, c: int, r: int) -> float:
    return float(FactorTable.build(prior, r).log_values[r, c])


def closed_form_log_factors(alpha: float, beta: float, r: int) -> np.ndarray:
    """log f(c, r) = log B(alpha + c, beta + r - c) - log B(alpha, beta), c = 0..r."""
    return np.array([
        math.lgamma(alpha + c) + math.lgamma(beta + r - c) - math.lgamma(alpha + beta + r)
        - (math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta))
        for c in range(r + 1)])


class TestLogFactor:
    def test_spammer_hammer_values(self):
        sh = cb.spammer_hammer()
        assert math.exp(log_factor(sh, 2, 2)) == pytest.approx(0.53, abs=1e-12)
        assert math.exp(log_factor(sh, 1, 2)) == pytest.approx(0.17, abs=1e-12)
        assert math.exp(log_factor(sh, 0, 2)) == pytest.approx(0.13, abs=1e-12)

    def test_beta_mean_and_empty_pattern(self):
        assert math.exp(log_factor(cb.ReliabilityPrior.from_beta(2, 1), 1, 1)) == \
            pytest.approx(2 / 3, rel=1e-12)
        assert log_factor(cb.spammer_hammer(), 0, 0) == 0.0

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
            assert math.exp(log_factor(prior, c, r)) == pytest.approx(ref, abs=1e-8)

    def test_zero_mass_pattern_is_minus_inf(self):
        perfect = cb.ReliabilityPrior.from_atoms([1.0], [1.0])
        assert log_factor(perfect, 0, 1) == -math.inf
        assert log_factor(perfect, 1, 1) == 0.0


class TestFactorQuadrature:
    """The prior's rules integrate every answer factor its workers need."""

    def test_atom_priors_return_their_own_atoms(self):
        sh = cb.spammer_hammer()
        for k in (2, 3, 7):
            (mu, w), = sh.gauss_rules([k])
            np.testing.assert_array_equal(mu, [0.0, 0.8])
            np.testing.assert_array_equal(w, [0.5, 0.5])
        assert sh.n_atoms == 2 and cb.ReliabilityPrior.from_beta(2, 1).n_atoms is None

    def test_beta_quadrature_reproduces_factors_exactly(self, rng):
        # The quadrature rule must integrate every p^c (1-p)^(r-c) with
        # r <= degree to near machine precision, or the message kernel
        # would silently disagree with the factor table.
        for _ in range(20):
            a, b = rng.uniform(0.5, 6, size=2)
            degree = int(rng.integers(1, 13))
            prior = cb.ReliabilityPrior.from_beta(a, b)
            (mu, w), = prior.gauss_rules([degree // 2 + 1])
            table = FactorTable.build(prior, degree)
            for r in range(degree + 1):
                for c in range(r + 1):
                    quad = float(w @ (((1 + mu) / 2) ** c * ((1 - mu) / 2) ** (r - c)))
                    assert quad == pytest.approx(math.exp(table.log_values[r, c]),
                                                 rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("degree", [63, 863, 1601])
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (2, 1), (0.5, 5), (5, 0.5), (5, 5),
                                            (1.5, 0.5), (0.3, 0.7)])
    def test_beta_rule_gives_every_factor_at_high_degree(self, alpha, beta, degree):
        # log f(c, degree) = log sum w ((1 + mu)/2)^c ((1 - mu)/2)^(degree - c)
        # against the lgamma closed form, for every c: the largest worker's
        # factors, where the rule is largest.  alpha + beta = 1 and 2 reach
        # the 0/0 terms of the Jacobi matrix.
        (mu, w), = cb.ReliabilityPrior.from_beta(alpha, beta).gauss_rules([degree // 2 + 1])
        assert mu.size == degree // 2 + 1 and (mu > -1).all() and (mu < 1).all()
        c = np.arange(degree + 1)[None, :]
        terms = (c * np.log1p(mu)[:, None] + (degree - c) * np.log1p(-mu)[:, None]
                 - degree * math.log(2.0))
        np.testing.assert_allclose(logsumexp(terms + np.log(w)[:, None], axis=0),
                                   closed_form_log_factors(alpha, beta, degree),
                                   rtol=0, atol=1e-10)


class TestGaussRules:
    """The rules the degree classes run: k nodes exact to degree 2k - 1."""

    def check_moments(self, prior, mu, w, sizes):
        # (mu, w) is a rule that integrates every power checked exactly.
        for k, (nodes, weights) in zip(sizes, prior.gauss_rules(sizes)):
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
        assert prior.atom_p.size == prior.n_atoms == 400
        self.check_moments(prior, 2.0 * prior.atom_p - 1.0, prior.atom_w,
                           [1, 2, 3, 4, 7, 8, 15, 16, 31, 64, 127, 200, 255, 399])

    def test_beta_rules_up_to_r_max_862(self):
        # The skewed benchmark graph's largest degree: the 432-node rule of
        # the U-shaped Beta(1/2, 1/2) integrates every power the smaller
        # rules must get right.
        prior = cb.ReliabilityPrior.from_beta(0.5, 0.5)
        (mu, w), = prior.gauss_rules([432])
        self.check_moments(prior, mu, w, [1, 2, 3, 5, 8, 16, 32, 63, 128, 255, 300, 431])

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.3, 0.7), (1, 1), (1.5, 0.5),
                                            (2, 1), (0.5, 5), (5, 0.5), (4.2, 3.1)])
    def test_beta_rule_is_scipys_gauss_jacobi_rule(self, alpha, beta):
        # alpha + beta = 1 and 2 are the 0/0 terms of the closed-form matrix;
        # roots_jacobi warns on the first.  The reference weights are
        # w ~ 1 / ((1 - x^2) P_k'(x)^2) at SciPy's nodes, with P_k' ~ P_(k-1)
        # of parameters one higher.  roots_jacobi's own weights are off by up
        # to 2.4e-11 at k = 200 when alpha or beta is below 1, measured
        # against 40-digit Christoffel weights.
        sizes = [1, 2, 8, 64, 200]
        rules = cb.ReliabilityPrior.from_beta(alpha, beta).gauss_rules(sizes)
        for k, (nodes, weights) in zip(sizes, rules):
            with np.errstate(invalid="ignore"):
                ref_nodes, _ = roots_jacobi(k, beta - 1.0, alpha - 1.0)
            ref_weights = 1.0 / ((1.0 - ref_nodes**2) * eval_jacobi(k - 1, beta, alpha,
                                                                   ref_nodes) ** 2)
            np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-12, err_msg=f"k={k}")
            np.testing.assert_allclose(weights, ref_weights / ref_weights.sum(),
                                       rtol=0, atol=1e-12, err_msg=f"k={k}")

    def test_an_atom_prior_reduces_below_its_atom_count(self):
        ash = cb.adversary_spammer_hammer()
        (nodes, weights), (mu, w) = ash.gauss_rules([2, 3])
        np.testing.assert_array_equal(mu, 2.0 * ash.atom_p - 1.0)
        # Two nodes integrate every polynomial of degree <= 3 against the
        # three atoms, which are the rule of three or more nodes.
        powers = np.arange(4)
        np.testing.assert_allclose(weights @ nodes[:, None] ** powers,
                                   w @ mu[:, None] ** powers, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("alpha,beta", [(math.nan, 1.0), (1.0, math.nan),
                                            (math.inf, 2.0), (2.0, math.inf)])
    def test_beta_parameters_must_be_finite(self, alpha, beta):
        # NaN slipped through the old "<= 0" checks, and bp_run then failed
        # with a zero-mass message instead.
        with pytest.raises(cb.ParameterError, match="finite"):
            cb.ReliabilityPrior.from_beta(alpha, beta)

    @pytest.mark.parametrize("p,w", [([math.nan], [1.0]), ([math.inf], [1.0]),
                                     ([0.5, math.nan], [0.5, 0.5]),
                                     ([0.5, 0.9], [math.nan, 1.0]),
                                     ([0.5, 0.9], [math.inf, 1.0])])
    def test_atoms_must_be_finite(self, p, w):
        with pytest.raises(cb.ParameterError):
            cb.ReliabilityPrior.from_atoms(p, w)

    def test_parse_prior_spec(self):
        assert cb.parse_prior_spec("sh").atom_p.tolist() == [0.5, 0.9]
        assert cb.parse_prior_spec("ASH").atom_w.tolist() == [0.25, 0.25, 0.5]
        beta = cb.parse_prior_spec("beta:2,1")
        assert (beta.alpha, beta.beta) == (2.0, 1.0)
        atoms = cb.parse_prior_spec("atoms:0.3=0.25,0.8=0.75")
        np.testing.assert_allclose(atoms.atom_p, [0.3, 0.8])
        np.testing.assert_allclose(atoms.atom_w, [0.25, 0.75])

    @pytest.mark.parametrize("bad", ["", "bogus", "beta:1", "beta:a,b",
                                     "atoms:", "atoms:0.5", "atoms:x=y",
                                     "beta:nan,1", "beta:inf,2", "beta:1,-inf",
                                     "atoms:nan=1", "atoms:inf=1", "atoms:0.5=nan,0.9=1"])
    def test_parse_prior_spec_rejects(self, bad):
        with pytest.raises(cb.ParameterError):
            cb.parse_prior_spec(bad)

    def test_atom_weights_that_do_not_sum_to_one_name_their_sum(self):
        # The weights are checked, not normalized; the message prints the sum
        # as a plain float rather than numpy's repr of a float64.
        with pytest.raises(cb.ParameterError, match=r"atom weights sum to 2\.0, expected 1$"):
            cb.parse_prior_spec("atoms:0.9=1,0.5=1")

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
        assert table.log_values.shape == (4, 4)
        assert math.exp(table.log_values[2, 2]) == pytest.approx(0.53, abs=1e-12)
        assert np.isnan(table.log_values[1, 2])
        with pytest.raises(cb.ParameterError):
            FactorTable.build(cb.spammer_hammer(), -1)

    def test_drives_the_magnetization_kernel_with_the_prior_rules(self, rng, monkeypatch):
        # The pair API's worker half takes its rules from the table's prior,
        # as bp_run does, whatever the table's own r_max.
        asked = []

        def gauss_rules(prior, sizes):
            asked.append(prior)
            return original(prior, sizes)

        original = cb.ReliabilityPrior.gauss_rules
        monkeypatch.setattr(cb.ReliabilityPrior, "gauss_rules", gauss_rules)
        for _ in range(20):
            prior = random_prior(rng)
            r = int(rng.integers(1, 9))
            table = FactorTable.build(prior, r + int(rng.integers(0, 20)))
            assert table.prior is prior
            g = cb.AssignmentGraph(r, 1, np.array([[t, 0] for t in range(r)]))
            a = rng.choice([-1, 1], size=r)
            x = rng.uniform(-0.99, 0.99, size=r)
            state = replace(bp_init(g), msg_task_to_worker=np.column_stack(((1 + x) / 2,
                                                                            (1 - x) / 2)))
            asked.clear()
            got = bp_update_worker_messages(state, g, a, table).msg_worker_to_task
            assert asked and all(p is prior for p in asked)
            llr = np.zeros(r)
            reference_worker_kernel(g, a.astype(np.float64), prior)(
                a * np.tanh(bp._pairs_to_llr(state.msg_task_to_worker) / 2), llr)
            assert got.tobytes() == bp._llr_to_pairs(llr).tobytes()

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


def test_runtime_never_loads_scipy():
    # SciPy is a test dependency only: a Beta prior's atoms, the factor
    # tables, exact enumeration and ebp's empirical rules all run on NumPy.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import crowdbp as cb\n"
        "from crowdbp.priors import FactorTable\n"
        "g = cb.AssignmentGraph(3, 4, np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2],\n"
        "                                       [0, 2], [0, 3], [1, 3], [2, 3]]))\n"
        "a = np.array([1, 1, -1, 1, -1, 1, 1, -1, 1])\n"
        "beta = cb.ReliabilityPrior.from_beta(2, 1)\n"
        "cb.bp_run(g, a, beta)\n"
        "cb.brute_force_marginals(g, a, beta)\n"
        "FactorTable.build(beta, 40)\n"
        "cb.ebp_run(g, a)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
