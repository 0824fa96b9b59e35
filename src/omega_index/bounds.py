"""Randomized oracles for the package's operator-norm inequalities.

Each ``check_*`` function verifies one inequality on one input and returns a
:class:`BoundCheckResult`; :func:`run_suite` drives all five families over seeded
random ensembles.  The ensembles are keyed by a counter-based generator derived
from ``(seed, family, trial)``, so a suite run is bit-for-bit reproducible and
independent of execution order.

Bounds are strict inequalities analytically; every check grants a round-off
allowance of ``1e-9`` times the problem scale so floating point cannot produce
false failures.

The resolvent-difference family checks the bound ``e/(1-e)`` (the value the
defect-bound arithmetic actually consumes) and additionally records how the
smaller constant ``e/(2(1+e))`` fared, as observational data in ``extras`` —
that constant is tracked but never fails a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import InvalidParameter
from .index import q_blocks_from_c, theorem_bound

#: relative round-off allowance on all inequality checks
ROUNDOFF_ALLOWANCE = 1e-9

SUITE_LAMBDAS = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of one inequality family.

    ``max_lhs`` is the largest left-hand side seen, ``min_slack`` the smallest
    ``bound - lhs`` over all trials (on success it is >= minus the round-off
    allowance), ``violations`` the number of trials beyond the allowance.
    ``extras`` carries family-specific observational data.
    """

    name: str
    trials: int
    max_lhs: float
    min_slack: float
    violations: int
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _violates(lhs: float, bound: float, scale: float) -> bool:
    return bound - lhs < -ROUNDOFF_ALLOWANCE * max(1.0, abs(scale))


def _rng(seed: int, family: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox([seed, family, trial]))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, dim))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


#: relative width of the band around the target epsilon that random_near_normal hits
TARGET_BAND = 0.05
#: cap on epsilon evaluations in random_near_normal; bisection meets the band long before
TARGET_STEPS = 64


def random_near_normal(
    rng: np.random.Generator, dim: int, target_epsilon: float
) -> np.ndarray:
    """A normal matrix N plus a small non-normal part, ``N + delta * G``, with
    ``norm(C*C - CC*)`` within ``TARGET_BAND`` of ``target_epsilon``.

    epsilon(delta) is continuous with epsilon(0) = 0, so ``delta`` is searched in
    a bracket ``[lo, hi]`` with epsilon(lo) < target <= epsilon(hi).  Each step
    proposes the linear correction ``delta * target / epsilon`` (clamped to a
    factor in [1/4, 4]), which usually lands in the band in two or three steps,
    and bisects the bracket whenever the proposal leaves it.
    """
    u = _haar_unitary(rng, dim)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    normal = (u * z) @ linalg.adjoint(u)
    g = _ginibre(rng, dim)
    g /= linalg.operator_norm(g)
    lo, hi = 0.0, np.inf
    delta = np.sqrt(target_epsilon)
    for _ in range(TARGET_STEPS):
        c = normal + delta * g
        eps = _epsilon_of(c)
        if abs(eps - target_epsilon) < TARGET_BAND * target_epsilon:
            return c
        if eps < target_epsilon:
            lo = delta
        else:
            hi = delta
        ratio = target_epsilon / eps if eps > 0.0 else 4.0
        proposal = delta * min(4.0, max(0.25, ratio))
        delta = proposal if lo < proposal < hi else (lo + hi) / 2.0
    # unreachable in practice; epsilon(lo) is below the target, so still < 1
    return normal + lo * g


def _epsilon_of(c: np.ndarray) -> float:
    cs = linalg.adjoint(c)
    return linalg.operator_norm(cs @ c - c @ cs)


def check_resolvent_bound(c: np.ndarray, lam: float) -> BoundCheckResult:
    """``norm(C (lam + C*C)^-1) <= 1/sqrt(lam)`` and its mirrored form."""
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidParameter(f"lam must be positive, got {lam}")
    c = linalg.require_square(linalg.as_matrix(c))
    eye = np.eye(c.shape[0], dtype=np.complex128)
    cs = linalg.adjoint(c)
    lhs_right = linalg.operator_norm(c @ linalg.hpd_inverse(lam * eye + cs @ c))
    lhs_left = linalg.operator_norm(linalg.hpd_inverse(lam * eye + c @ cs) @ c)
    lhs = max(lhs_right, lhs_left)
    bound = 1.0 / np.sqrt(lam)
    violations = int(_violates(lhs, bound, bound))
    return BoundCheckResult(
        name="resolvent_bound",
        trials=1,
        max_lhs=lhs,
        min_slack=bound - lhs,
        violations=violations,
        extras={"lhs_times_sqrt_lam": lhs * np.sqrt(lam)},
    )


def check_intertwine(c: np.ndarray) -> BoundCheckResult:
    """Exact finite-dimensional identity ``C (I + C*C)^-1 = (I + CC*)^-1 C``."""
    c = linalg.require_square(linalg.as_matrix(c))
    eye = np.eye(c.shape[0], dtype=np.complex128)
    cs = linalg.adjoint(c)
    left = c @ linalg.hpd_inverse(eye + cs @ c)
    right = linalg.hpd_inverse(eye + c @ cs) @ c
    residual = linalg.operator_norm(left - right)
    tol = 1e-10 * (1.0 + linalg.operator_norm(c))
    return BoundCheckResult(
        name="intertwine_identity",
        trials=1,
        max_lhs=residual,
        min_slack=tol - residual,
        violations=int(residual > tol),
    )


def check_resolvent_difference(c: np.ndarray) -> BoundCheckResult:
    """Resolvent difference against the bound ``e/(1-e)``, e = norm(C*C - CC*).

    The smaller constant ``e/(2(1+e))`` is recorded in ``extras`` as data; it
    never fails the check.
    """
    c = linalg.require_square(linalg.as_matrix(c))
    epsilon = _epsilon_of(c)
    if epsilon >= 1.0:
        raise InvalidParameter(f"epsilon must be < 1, got {epsilon:.6g}")
    eye = np.eye(c.shape[0], dtype=np.complex128)
    cs = linalg.adjoint(c)
    gamma_inv = linalg.hpd_inverse(eye + cs @ c)
    delta_inv = linalg.hpd_inverse(eye + c @ cs)
    diff = gamma_inv - delta_inv
    lhs = max(
        linalg.operator_norm(diff @ c),
        linalg.operator_norm(c @ diff),
    )
    bound = epsilon / (1.0 - epsilon)
    stated = epsilon / (2.0 * (1.0 + epsilon))
    return BoundCheckResult(
        name="resolvent_difference",
        trials=1,
        max_lhs=lhs,
        min_slack=bound - lhs,
        violations=int(_violates(lhs, bound, 1.0)),
        extras={
            "epsilon": epsilon,
            "stated_bound": stated,
            "stated_violations": int(_violates(lhs, stated, 1.0)),
            "stated_max_excess": max(0.0, lhs - stated),
        },
    )


def _f_of(eig: linalg.HermitianEigen) -> np.ndarray:
    """Matrix function t -> t/(1+t)^2 of a decomposed Hermitian matrix (functional calculus)."""
    w = eig.values / (1.0 + eig.values) ** 2
    return (eig.vectors * w) @ linalg.adjoint(eig.vectors)


def check_f_lipschitz(e: np.ndarray, f: np.ndarray) -> BoundCheckResult:
    """``norm(E(I+E)^-2 - F(I+F)^-2) <= (3d - d^2)/(1-d)^2`` with d = norm(E-F)."""
    e = linalg.require_square(linalg.as_matrix(e))
    f = linalg.require_square(linalg.as_matrix(f))
    if e.shape != f.shape:
        raise InvalidParameter("E and F must have the same shape")
    eigs = []
    for name, m in (("E", e), ("F", f)):
        eig = linalg.hermitian_eigen(m)
        scale = max(1.0, abs(float(eig.values[-1])))
        if float(eig.values[0]) < -1e-10 * scale:
            raise InvalidParameter(f"{name} must be positive semidefinite")
        eigs.append(eig)
    d = linalg.operator_norm(e - f)
    if d >= 1.0:
        raise InvalidParameter(f"norm(E - F) must be < 1, got {d:.6g}")
    lhs = linalg.operator_norm(_f_of(eigs[0]) - _f_of(eigs[1]))
    bound = (3.0 * d - d * d) / (1.0 - d) ** 2
    return BoundCheckResult(
        name="f_lipschitz",
        trials=1,
        max_lhs=lhs,
        min_slack=bound - lhs,
        violations=int(_violates(lhs, bound, 1.0)),
        extras={"distance": d},
    )


def check_theorem_defect(c: np.ndarray) -> BoundCheckResult:
    """``norm(Q^2 - Q)`` against the defect bound at epsilon = ``norm(C*C - CC*)``.

    Q is assembled from C by :func:`q_blocks_from_c`; both norms are exact and
    unmasked.
    """
    c = linalg.require_square(linalg.as_matrix(c))
    epsilon = _epsilon_of(c)
    q, _, _ = q_blocks_from_c(c)
    defect = linalg.operator_norm(q @ q - q)
    bound = theorem_bound(epsilon)
    return BoundCheckResult(
        name="projection_defect",
        trials=1,
        max_lhs=defect,
        min_slack=bound - defect,
        violations=int(_violates(defect, bound, 1.0)),
        extras={"epsilon": epsilon},
    )


def _merge(name: str, results: list[BoundCheckResult]) -> BoundCheckResult:
    extras: dict = {}
    for r in results:
        for key, value in r.extras.items():
            if key.endswith("violations"):
                extras[key] = extras.get(key, 0) + value
            else:
                extras[key] = max(extras.get(key, float("-inf")), value)
    return BoundCheckResult(
        name=name,
        trials=len(results),
        max_lhs=max(r.max_lhs for r in results),
        min_slack=min(r.min_slack for r in results),
        violations=sum(r.violations for r in results),
        extras=extras,
    )


def _random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    w = _ginibre(rng, dim) / np.sqrt(dim)
    return w @ linalg.adjoint(w)


def _random_scaled_pair(rng: np.random.Generator, dim: int, target_epsilon: float) -> np.ndarray:
    """C = A + iB for a random Hermitian pair scaled so that norm(C*C - CC*) is the target."""
    a = _ginibre(rng, dim)
    b = _ginibre(rng, dim)
    a = (a + linalg.adjoint(a)) / 2.0
    b = (b + linalg.adjoint(b)) / 2.0
    c = a + 1j * b
    eps = _epsilon_of(c)
    if eps > 0:
        s = np.sqrt(target_epsilon / eps)
        a, b = s * a, s * b
    return a + 1j * b


def run_suite(seed: int, trials: int, max_dim: int) -> list[BoundCheckResult]:
    """Run all five inequality families over seeded ensembles.

    Deterministic for a fixed ``(seed, trials, max_dim)``; failures are reported
    in the results, never raised.
    """
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if max_dim < 2:
        raise InvalidParameter(f"max_dim must be >= 2, got {max_dim}")

    resolvent = []
    for t in range(trials):
        rng = _rng(seed, 0, t)
        dim = int(rng.integers(2, max_dim + 1))
        c = _ginibre(rng, dim)
        lam = SUITE_LAMBDAS[t % len(SUITE_LAMBDAS)]
        resolvent.append(check_resolvent_bound(c, lam))

    intertwine = []
    for t in range(trials):
        rng = _rng(seed, 1, t)
        dim = int(rng.integers(2, max_dim + 1))
        intertwine.append(check_intertwine(_ginibre(rng, dim)))

    resolvent_diff = []
    for t in range(trials):
        rng = _rng(seed, 2, t)
        dim = int(rng.integers(2, max_dim + 1))
        target = float(rng.uniform(0.01, 0.1))
        c = random_near_normal(rng, dim, target)
        resolvent_diff.append(check_resolvent_difference(c))

    lipschitz = []
    for t in range(trials):
        rng = _rng(seed, 3, t)
        dim = int(rng.integers(2, max_dim + 1))
        e = _random_psd(rng, dim)
        s = _ginibre(rng, dim)
        s = (s + linalg.adjoint(s)) / 2.0
        s /= linalg.operator_norm(s)
        shift = float(rng.uniform(0.01, 0.12))
        f = e + shift * s
        # lift just enough to stay PSD; the lift is bounded by the perturbation
        # size so norm(E - F) stays below 0.3
        low = float(linalg.hermitian_eigen(f).values[0])
        if low < 0:
            f = f - low * np.eye(dim)
        lipschitz.append(check_f_lipschitz(e, f))

    defect = []
    for t in range(trials):
        rng = _rng(seed, 4, t)
        dim = int(rng.integers(2, max_dim + 1))
        target = float(rng.uniform(0.01, 0.1))
        defect.append(check_theorem_defect(_random_scaled_pair(rng, dim, target)))

    return [
        _merge("resolvent_bound", resolvent),
        _merge("intertwine_identity", intertwine),
        _merge("resolvent_difference", resolvent_diff),
        _merge("f_lipschitz", lipschitz),
        _merge("projection_defect", defect),
    ]
