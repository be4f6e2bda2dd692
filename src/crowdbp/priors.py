"""Worker-reliability priors and their integrated answer factors.

A prior is either a finite mixture of point masses ("atoms") on [0, 1] or
a Beta(alpha, beta) distribution.  The quantity the inference engine needs
is the marginal probability that a worker of degree r produces a given
answer pattern, which depends only on the number c of answers matching the
task labels:

    f(c, r) = E_p[ p^c (1 - p)^(r - c) ]

computed in log space (atoms: log-sum-exp over the mixture; Beta: ratio of
Beta functions via lgamma).  For message updates a worker of degree r
integrates polynomials of degree r in mu = 2p - 1, which the prior's
r//2 + 1-node Gauss rule does exactly.  Every such rule comes from
:meth:`ReliabilityPrior.gauss_rules`, as the eigensystem of a Jacobi
matrix: a leading block of a Beta prior's closed-form one, or for atoms
one Lanczos reduction that serves every size below the atom count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count, check_probabilities

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ReliabilityPrior:
    """Distribution of a worker's probability of answering correctly."""

    kind: str  # "atoms" or "beta"
    atom_p: np.ndarray | None = None
    atom_w: np.ndarray | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "atoms":
            p = check_probabilities(self.atom_p, "atom locations")
            w = np.asarray(self.atom_w, dtype=np.float64)
            if p.ndim != 1 or p.shape != w.shape or p.size == 0:
                raise ParameterError("atoms require matching non-empty value/weight vectors")
            # Each check is written so that a NaN fails it.
            if not np.all(w > 0.0):
                raise ParameterError("atom weights must be positive")
            if not abs(w.sum() - 1.0) <= _WEIGHT_TOL:
                raise ParameterError(f"atom weights sum to {float(w.sum())!r}, expected 1")
            p.setflags(write=False)
            w.setflags(write=False)
            object.__setattr__(self, "atom_p", p)
            object.__setattr__(self, "atom_w", w)
        elif self.kind == "beta":
            if self.alpha is None or self.beta is None or not (
                    0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
                raise ParameterError("beta prior requires finite alpha > 0 and beta > 0")
        else:
            raise ParameterError(f"unknown prior kind {self.kind!r}")

    @classmethod
    def from_atoms(cls, p, w) -> "ReliabilityPrior":
        return cls(kind="atoms", atom_p=p, atom_w=w)

    @classmethod
    def from_beta(cls, alpha: float, beta: float) -> "ReliabilityPrior":
        return cls(kind="beta", alpha=float(alpha), beta=float(beta))

    def moments(self) -> tuple[float, float]:
        """Mean and second moment of 2p - 1 (collective quality mu, q)."""
        if self.kind == "atoms":
            mu_atoms = 2.0 * self.atom_p - 1.0
            return float(self.atom_w @ mu_atoms), float(self.atom_w @ mu_atoms**2)
        a, b = self.alpha, self.beta
        ep = a / (a + b)
        ep2 = a * (a + 1.0) / ((a + b) * (a + b + 1.0))
        return 2.0 * ep - 1.0, 4.0 * ep2 - 4.0 * ep + 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "atoms":
            return rng.choice(self.atom_p, size=size, p=self.atom_w)
        return rng.beta(self.alpha, self.beta, size=size)

    @property
    def n_atoms(self) -> int | None:
        """The number of distinct atoms in mu = 2p - 1; None for a Beta prior."""
        if self.kind == "beta":
            return None
        return int(np.count_nonzero(np.diff(np.sort(2.0 * self.atom_p - 1.0)))) + 1

    def gauss_rules(self, sizes: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """The k-node Gauss rule (nodes in mu = 2p - 1, weights) for each k in ``sizes``.

        It integrates every polynomial in mu of degree <= 2k - 1 exactly.  A
        Beta prior's rule is the leading k x k block of its closed-form
        Jacobi matrix.  An atom prior gives its own atoms once k reaches
        :attr:`n_atoms`, and below that the rules of one Lanczos run on
        diag(mu) from sqrt(w), fully reorthogonalized (moment-based
        Golub-Welsch is ill-conditioned at hundreds of atoms).  For K atoms
        and largest reduced size k it holds a k x K basis and costs O(k^2 K).
        """
        if self.kind == "beta":
            jacobi = _beta_jacobi(self.alpha, self.beta, max(sizes))
            return [_jacobi_rule(*jacobi, k, -1.0, 1.0) for k in sizes]
        mu, n_atoms = 2.0 * self.atom_p - 1.0, self.n_atoms
        reduced = [k for k in sizes if k < n_atoms]
        jacobi = _lanczos(mu, self.atom_w, max(reduced)) if reduced else None
        return [(mu, self.atom_w) if k >= n_atoms
                else _jacobi_rule(*jacobi, k, np.min(mu), np.max(mu)) for k in sizes]


def _beta_jacobi(alpha: float, beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the n x n Jacobi matrix of Beta(alpha, beta) in mu.

    The density in mu = 2p - 1 is the Jacobi weight (1 - mu)^a (1 + mu)^b with
    a = beta - 1, b = alpha - 1 (Gautschi, *Orthogonal Polynomials*, 2004).
    Both index-0 terms take their reduced forms: the general ones are 0/0
    when a + b is 0 (diagonal) or -1 (off-diagonal).
    """
    a, b = beta - 1.0, alpha - 1.0
    j = np.arange(n, dtype=np.float64)
    s = 2.0 * j + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
        off2 = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    diag[0] = (b - a) / (a + b + 2.0)
    off2[1:2] = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    return diag, np.sqrt(off2[1:])


def _logsumexp(terms: np.ndarray) -> np.ndarray:
    """log sum exp of ``terms`` over axis 0; -inf where every term is -inf."""
    top = np.max(terms, axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(terms - shift), axis=0)) + shift


def _atom_log_factor(p: np.ndarray, w: np.ndarray, cs: np.ndarray, r: int) -> np.ndarray:
    """log sum_k w_k p_k^c (1-p_k)^(r-c) for a vector of match counts."""
    cs = cs[None, :].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(p)[:, None]
        log1mp = np.log1p(-p)[:, None]
        terms = np.where(cs > 0, cs * logp, 0.0) + np.where(r - cs > 0, (r - cs) * log1mp, 0.0)
    return _logsumexp(terms + np.log(w)[:, None])


def _jacobi_rule(diag: np.ndarray, off: np.ndarray, k: int,
                 lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The k-node Gauss rule of the leading k x k block of a Jacobi matrix.

    Nodes are the block's eigenvalues, clipped to the support [lo, hi]
    against rounding; weights are the squared first eigenvector components
    (Golub-Welsch, *Math. Comp.* 1969).  ``numpy.linalg.eigh`` loads no
    second BLAS, and on a tridiagonal input LAPACK's Householder reduction
    is the identity; the tests check that ebp margins are the same at 1 and
    4 BLAS threads.
    """
    jacobi = np.diag(diag[:k]) + np.diag(off[:k - 1], 1) + np.diag(off[:k - 1], -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    return np.clip(nodes, lo, hi), weights / np.sum(weights)


def _lanczos(mu: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the measure's n x n Jacobi matrix.

    Dot products go through ``np.sum`` and ``np.einsum`` (which calls no
    BLAS unless asked to optimize), so they do not depend on the BLAS
    thread count.
    """
    q = np.zeros((n, mu.size))
    q[0] = np.sqrt(w / np.sum(w))
    alpha = np.empty(n)
    beta = np.empty(n - 1)
    for j in range(n):
        v = mu * q[j]
        alpha[j] = np.sum(q[j] * v)
        if j == n - 1:
            break
        # Two classical Gram-Schmidt passes against every earlier vector
        # keep the basis orthogonal to rounding ("twice is enough").
        basis = q[:j + 1]
        for _ in range(2):
            v -= np.einsum("i,ij->j", np.einsum("ij,j->i", basis, v), basis)
        beta[j] = np.sqrt(np.sum(v * v))
        q[j + 1] = v / beta[j]
    return alpha, beta


def spammer_hammer() -> ReliabilityPrior:
    """Half the workers answer at random, half are 90% correct."""
    return ReliabilityPrior.from_atoms([0.5, 0.9], [0.5, 0.5])


def adversary_spammer_hammer() -> ReliabilityPrior:
    """A quarter adversarial (10%), a quarter random, half 90% correct."""
    return ReliabilityPrior.from_atoms([0.1, 0.5, 0.9], [0.25, 0.25, 0.5])


def empirical_prior(estimates: np.ndarray) -> ReliabilityPrior:
    """Atom prior putting equal weight on each estimate; duplicates merge."""
    values = check_probabilities(estimates, "reliability estimates").ravel()
    if values.size == 0:
        raise ParameterError("empirical prior needs at least one estimate")
    uniq, counts = np.unique(values, return_counts=True)
    return ReliabilityPrior.from_atoms(uniq, counts / values.size)


def parse_prior_spec(text: str) -> ReliabilityPrior:
    """Parse a CLI prior: ``sh``, ``ash``, ``beta:A,B`` or ``atoms:p1=w1,p2=w2,...``."""
    spec = text.strip().lower()
    if spec == "sh":
        return spammer_hammer()
    if spec == "ash":
        return adversary_spammer_hammer()
    if spec.startswith("beta:"):
        parts = spec[len("beta:"):].split(",")
        if len(parts) != 2:
            raise ParameterError(f"beta prior needs two parameters, got {text!r}")
        try:
            return ReliabilityPrior.from_beta(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ParameterError(f"bad beta prior {text!r}: {exc}") from exc
    if spec.startswith("atoms:"):
        ps, ws = [], []
        for item in spec[len("atoms:"):].split(","):
            if "=" not in item:
                raise ParameterError(f"bad atom entry {item!r} in {text!r}")
            p_str, w_str = item.split("=", 1)
            try:
                ps.append(float(p_str))
                ws.append(float(w_str))
            except ValueError as exc:
                raise ParameterError(f"bad atom entry {item!r} in {text!r}") from exc
        return ReliabilityPrior.from_atoms(ps, ws)
    raise ParameterError(f"unknown prior spec {text!r}")


@dataclass(frozen=True)
class FactorTable:
    """Precomputed log f(c, r) for 0 <= c <= r <= r_max, and the prior they integrate.

    ``log_values[r, c]`` holds the factor; entries with c > r are NaN.  The
    magnetization message kernel of the pair API takes its Gauss rules from
    ``prior``; the table builds none.
    """

    r_max: int
    log_values: np.ndarray
    prior: ReliabilityPrior

    @classmethod
    def build(cls, prior: ReliabilityPrior, r_max: int) -> "FactorTable":
        r_max = check_count(r_max, "r_max")
        if prior.kind == "beta":  # f(c, r) = B(a + c, b + r - c) / B(a, b)
            a, b = prior.alpha, prior.beta
            lg_a, lg_b, lg_ab = (np.array([math.lgamma(x + k) - math.lgamma(x)
                                           for k in range(r_max + 1)]) for x in (a, b, a + b))
        table = np.full((r_max + 1, r_max + 1), np.nan)
        for r in range(r_max + 1):
            cs = np.arange(r + 1)
            if prior.kind == "atoms":
                table[r, : r + 1] = _atom_log_factor(prior.atom_p, prior.atom_w, cs, r)
            else:
                table[r, : r + 1] = lg_a[: r + 1] + lg_b[r::-1] - lg_ab[r]
        table.setflags(write=False)
        return cls(r_max=r_max, log_values=table, prior=prior)
