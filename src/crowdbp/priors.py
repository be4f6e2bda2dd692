"""Worker-reliability priors and their integrated answer factors.

A prior is either a finite mixture of point masses ("atoms") on [0, 1] or
a Beta(alpha, beta) distribution.  The quantity the inference engine needs
is the marginal probability that a worker of degree r produces a given
answer pattern, which depends only on the number c of answers matching the
task labels:

    f(c, r) = E_p[ p^c (1 - p)^(r - c) ]

computed in log space (atoms: log-sum-exp over the mixture; Beta: ratio of
Beta functions via lgamma).  For message updates the engine integrates
polynomials in p of degree at most r, so a Beta prior is represented there
by its Gauss-Jacobi quadrature atoms, which are exact for those degrees.

A worker of degree r needs only r//2 + 1 nodes, so the engine also asks
:func:`gauss_rules` for the smaller Gauss rules of an atom set: one Lanczos
reduction of the atoms (the Jacobi matrix of the discrete measure) serves
every rule size, and atom priors, empirical priors and Beta quadratures
all take that one path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

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
            p = np.asarray(self.atom_p, dtype=np.float64)
            w = np.asarray(self.atom_w, dtype=np.float64)
            if p.ndim != 1 or p.shape != w.shape or p.size == 0:
                raise ParameterError("atoms require matching non-empty value/weight vectors")
            if p.min() < 0.0 or p.max() > 1.0:
                raise ParameterError("atom locations must lie in [0, 1]")
            if w.min() <= 0.0:
                raise ParameterError("atom weights must be positive")
            if abs(w.sum() - 1.0) > _WEIGHT_TOL:
                raise ParameterError(f"atom weights sum to {w.sum()!r}, expected 1")
            p.setflags(write=False)
            w.setflags(write=False)
            object.__setattr__(self, "atom_p", p)
            object.__setattr__(self, "atom_w", w)
        elif self.kind == "beta":
            if self.alpha is None or self.beta is None or self.alpha <= 0 or self.beta <= 0:
                raise ParameterError("beta prior requires alpha > 0 and beta > 0")
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

    def log_factor(self, c: int, r: int) -> float:
        """log E[p^c (1-p)^(r-c)]; -inf when the expectation is exactly 0."""
        if r < 0 or c < 0 or c > r:
            raise ParameterError(f"need 0 <= c <= r, got c={c}, r={r}")
        if self.kind == "beta":
            from scipy.special import gammaln

            a, b = self.alpha, self.beta
            return float(
                gammaln(a + c) + gammaln(b + r - c) - gammaln(a + b + r)
                - (gammaln(a) + gammaln(b) - gammaln(a + b))
            )
        return float(_atom_log_factor(self.atom_p, self.atom_w, np.array([c]), r)[0])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "atoms":
            return rng.choice(self.atom_p, size=size, p=self.atom_w)
        return rng.beta(self.alpha, self.beta, size=size)

    def support_atoms(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Atom representation exact for polynomial integrands up to ``degree``.

        Atom priors return their own atoms; a Beta prior returns the
        Gauss-Jacobi rule with ``degree // 2 + 1`` nodes, which is exact up
        to degree ``2 (degree // 2) + 1 >= degree``.  Either set is the
        largest rule the message kernel uses; it derives the rule for each
        smaller worker degree from these atoms with :func:`gauss_rules`.
        """
        if self.kind == "atoms":
            return self.atom_p, self.atom_w
        from scipy.special import roots_jacobi

        npts = max(1, degree // 2 + 1)
        # weight (1-x)^(beta-1) (1+x)^(alpha-1) on [-1,1] maps to the Beta
        # density under p = (1+x)/2
        x, w = roots_jacobi(npts, self.beta - 1.0, self.alpha - 1.0)
        return (x + 1.0) / 2.0, w / w.sum()


def _atom_log_factor(p: np.ndarray, w: np.ndarray, cs: np.ndarray, r: int) -> np.ndarray:
    """log sum_k w_k p_k^c (1-p_k)^(r-c) for a vector of match counts."""
    from scipy.special import logsumexp

    cs = cs[None, :].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(p)[:, None]
        log1mp = np.log1p(-p)[:, None]
        terms = np.where(cs > 0, cs * logp, 0.0) + np.where(r - cs > 0, (r - cs) * log1mp, 0.0)
    terms = terms + np.log(w)[:, None]
    with np.errstate(divide="ignore"):
        return logsumexp(terms, axis=0)


def gauss_rules(mu: np.ndarray, w: np.ndarray,
                sizes: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The k-node Gauss rule of the atoms (``mu``, ``w``) for each k in ``sizes``.

    A k-node rule integrates every polynomial of degree <= 2k - 1 exactly
    against the discrete measure sum_i w_i delta(mu_i).  Each k must be
    below the number of distinct atoms.  The rules share one Lanczos run
    on diag(mu) from the start vector sqrt(w), with full
    reorthogonalization, which yields the measure's Jacobi matrix; the
    k-node rule is the eigensystem of its leading k x k block (nodes are
    the eigenvalues, weights the squared first eigenvector components).
    Moment-based Golub-Welsch would be ill-conditioned at hundreds of
    atoms.  For K atoms and largest size k the run holds a k x K basis and
    costs O(k^2 K) work.  Nodes lie in [min mu, max mu] (strictly inside, up to rounding).

    The eigensystem comes from ``numpy.linalg.eigh``: SciPy's tridiagonal
    solver would load SciPy's own BLAS, about 25 MB of resident memory.
    On a tridiagonal input LAPACK's Householder reduction is the identity;
    the tests check that ebp margins are the same at 1 and 4 BLAS threads.
    """
    alpha, beta = _lanczos(np.asarray(mu, dtype=np.float64),
                           np.asarray(w, dtype=np.float64), max(sizes))
    rules = []
    for k in sizes:
        jacobi = np.diag(alpha[:k]) + np.diag(beta[:k - 1], 1) + np.diag(beta[:k - 1], -1)
        nodes, vectors = np.linalg.eigh(jacobi)
        weights = vectors[0] ** 2
        rules.append((np.clip(nodes, np.min(mu), np.max(mu)), weights / np.sum(weights)))
    return rules


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
    values = np.asarray(estimates, dtype=np.float64).ravel()
    if values.size == 0:
        raise ParameterError("empirical prior needs at least one estimate")
    if values.min() < 0.0 or values.max() > 1.0:
        raise ParameterError("reliability estimates must lie in [0, 1]")
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
    """Precomputed log f(c, r) for 0 <= c <= r <= r_max plus engine atoms.

    ``log_values[r, c]`` holds the factor; entries with c > r are NaN.  The
    atom arrays carry the prior's support (quadrature nodes for Beta priors)
    used by the magnetization message kernel.
    """

    r_max: int
    log_values: np.ndarray
    atom_p: np.ndarray
    atom_w: np.ndarray

    @classmethod
    def build(cls, prior: ReliabilityPrior, r_max: int) -> "FactorTable":
        from scipy.special import gammaln

        if r_max < 0:
            raise ParameterError("r_max must be non-negative")
        table = np.full((r_max + 1, r_max + 1), np.nan)
        for r in range(r_max + 1):
            cs = np.arange(r + 1)
            if prior.kind == "atoms":
                table[r, : r + 1] = _atom_log_factor(prior.atom_p, prior.atom_w, cs, r)
            else:
                a, b = prior.alpha, prior.beta
                table[r, : r + 1] = (
                    gammaln(a + cs) + gammaln(b + r - cs) - gammaln(a + b + r)
                    - (gammaln(a) + gammaln(b) - gammaln(a + b))
                )
        atom_p, atom_w = prior.support_atoms(r_max)
        table.setflags(write=False)
        return cls(r_max=r_max, log_values=table, atom_p=np.asarray(atom_p),
                   atom_w=np.asarray(atom_w))

    def log_value(self, c: int, r: int) -> float:
        if not (0 <= c <= r <= self.r_max):
            raise ParameterError(f"need 0 <= c <= r <= {self.r_max}, got c={c}, r={r}")
        return float(self.log_values[r, c])
