"""Randomized oracles for the package's operator-norm inequalities.

Each ``check_*`` function verifies one inequality on one input, or on a stack
``(k, n, n)`` of inputs in one numpy call per step, and returns one
:class:`BoundCheckResult` over its ``k`` trials; one matrix is a stack of one.
:func:`run_suite` drives all five families over seeded random ensembles.  Each
trial draws its inputs from a counter-based generator derived from
``(seed, family, trial)``, so a suite run is bit-for-bit reproducible and
independent of execution order: the suite groups a family's trials by order and
checks them in stacks of at most :data:`STACK_BYTES` of input, and the grouping
changes no bit of the report.  The whole suite runs on one BLAS thread
(:func:`linalg.serial_blas`): on matrices of the suite's orders a second thread
buys little wall time and spin-waits after every call.  The fixed count also
keeps the report's bits whatever thread count the environment asks for, which
matters from ``max_dim`` 128, where OpenBLAS's threaded kernels round
differently; up to 64 the bits are the same at one thread and at two.

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
from .errors import DimensionMismatch, InvalidParameter
from .index import q_blocks_from_c, theorem_bound

#: relative round-off allowance on all inequality checks
ROUNDOFF_ALLOWANCE = 1e-9

SUITE_LAMBDAS = (0.1, 1.0, 10.0)

#: bytes of n-by-n complex input in one stack of the suite, which holds at least
#: one matrix: 8 trials at order 32.  About fifteen stack-sized temporaries are
#: live at once, so this is what keeps the suite's memory flat
STACK_BYTES = 2**17

#: stack-sized 2n-by-2n complex arrays that :func:`check_theorem_defect`, the
#: suite's largest step, holds at once
DEFECT_ARRAYS = 6

#: bytes per trial that :func:`run_suite` holds beside its stacks: a family's
#: Philox keys and orders and the sort that groups them (peaks of 47.4-47.7 bytes
#: per trial of virtual memory at 10^6 trials, for max_dim 2, 32 and 10^5;
#: tracemalloc sees 43.8 from 2*10^5 trials)
TRIAL_BYTES = 48

_COMPLEX_BYTES = np.dtype(np.complex128).itemsize


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of one inequality family.

    ``trials`` counts the inputs checked, ``max_lhs`` is the largest left-hand
    side seen, ``min_slack`` the smallest ``bound - lhs`` over all trials (on
    success it is >= minus the round-off allowance), ``violations`` the number
    of trials beyond the allowance.
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


def _violates(lhs, bound, scale):
    return bound - lhs < -ROUNDOFF_ALLOWANCE * np.maximum(1.0, abs(scale))


def _extra(key: str, values):
    """Extra ``key`` merged over ``values``: summed for a key ending in
    ``violations``, maximized otherwise."""
    return int(np.sum(values)) if key.endswith("violations") else float(np.max(values))


def _result(name: str, lhs, slack, violations, **extras) -> BoundCheckResult:
    """One result over a stack's trials, with each extra merged over the trials
    by :func:`_extra`."""
    return BoundCheckResult(
        name=name,
        trials=len(lhs),
        max_lhs=float(np.max(lhs)),
        min_slack=float(np.min(slack)),
        violations=int(np.count_nonzero(violations)),
        extras={key: _extra(key, value) for key, value in extras.items()},
    )


def _stack(c) -> np.ndarray:
    """``c`` as a stack of square complex matrices, each checked as
    :func:`linalg.as_matrix` checks one; one matrix is a stack of one."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got ndim={c.ndim}")
    # the rows of all matrices, one under another: a view, checked in one pass
    rows = linalg.as_matrix(c.reshape(-1, c.shape[-1]))
    return linalg.require_square(rows.reshape(-1, *c.shape[-2:]))


def _rng(seed: int, family: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox([seed, family, trial]))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitary(x: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of Ginibre matrices."""
    q, r = np.linalg.qr(x)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., np.newaxis, :]


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
    draws = _draw_near_normal(rng, dim)
    return _near_normal(*(x[np.newaxis] for x in draws), np.array([target_epsilon]))[0]


def _draw_near_normal(rng: np.random.Generator, dim: int) -> tuple:
    """The draws of :func:`random_near_normal`, in its order: the Ginibre matrix of
    the unitary, the eigenvalues, and the non-normal direction."""
    x = _ginibre(rng, dim)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x, z, _ginibre(rng, dim)


def _near_normal(x, z, g, target) -> np.ndarray:
    """:func:`random_near_normal` on stacks of its draws, with one bisection per
    matrix, all of them run in step until each lands in its band."""
    u = _haar_unitary(x)
    normal = (u * z[:, np.newaxis, :]) @ linalg.adjoint(u)
    g /= linalg.operator_norm(g)[:, np.newaxis, np.newaxis]
    lo, hi = np.zeros(len(target)), np.full(len(target), np.inf)
    delta = np.sqrt(target)
    out = np.empty_like(normal)
    active = np.arange(len(target))
    for _ in range(TARGET_STEPS):
        if not len(active):
            return out
        c = normal[active] + delta[active, np.newaxis, np.newaxis] * g[active]
        eps = _epsilon_of(c)
        goal, step = target[active], delta[active]
        hit = abs(eps - goal) < TARGET_BAND * goal
        out[active[hit]] = c[hit]
        below = eps < goal
        lo[active] = np.where(below, step, lo[active])
        hi[active] = np.where(below, hi[active], step)
        ratio = np.divide(goal, eps, out=np.full_like(eps, 4.0), where=eps > 0.0)
        proposal = step * np.minimum(4.0, np.maximum(0.25, ratio))
        inside = (lo[active] < proposal) & (proposal < hi[active])
        delta[active] = np.where(inside, proposal, (lo[active] + hi[active]) / 2.0)
        active = active[~hit]
    # unreachable in practice; epsilon(lo) is below the target, so still < 1
    out[active] = normal[active] + lo[active, np.newaxis, np.newaxis] * g[active]
    return out


def _epsilon_of(c: np.ndarray):
    cs = linalg.adjoint(c)
    return linalg.operator_norm(cs @ c - c @ cs)


def check_resolvent_bound(c: np.ndarray, lam: float | np.ndarray) -> BoundCheckResult:
    """``norm(C (lam + C*C)^-1) <= 1/sqrt(lam)`` and its mirrored form.

    ``lam`` is one value, or one per matrix of a stack.
    """
    lam = np.asarray(lam, dtype=np.float64)
    bad = ~(np.isfinite(lam) & (lam > 0))
    if np.any(bad):
        raise InvalidParameter(f"lam must be positive, got {lam[bad][0] if lam.ndim else lam}")
    c = _stack(c)
    if lam.ndim and lam.shape != c.shape[:1]:
        raise InvalidParameter(f"lam must be one value or one per matrix, got shape {lam.shape}")
    lhs_right = linalg.operator_norm(c @ linalg.hpd_inverse(c, lam))
    lhs_left = linalg.operator_norm(linalg.hpd_inverse(linalg.adjoint(c), lam) @ c)
    lhs = np.maximum(lhs_right, lhs_left)
    bound = 1.0 / np.sqrt(lam)
    return _result(
        "resolvent_bound",
        lhs,
        bound - lhs,
        _violates(lhs, bound, bound),
        lhs_times_sqrt_lam=lhs * np.sqrt(lam),
    )


def check_intertwine(c: np.ndarray) -> BoundCheckResult:
    """Exact finite-dimensional identity ``C (I + C*C)^-1 = (I + CC*)^-1 C``."""
    c = _stack(c)
    left = c @ linalg.hpd_inverse(c, 1.0)
    right = linalg.hpd_inverse(linalg.adjoint(c), 1.0) @ c
    residual = linalg.operator_norm(left - right)
    tol = 1e-10 * (1.0 + linalg.operator_norm(c))
    return _result("intertwine_identity", residual, tol - residual, residual > tol)


def check_resolvent_difference(c: np.ndarray) -> BoundCheckResult:
    """Resolvent difference against the bound ``e/(1-e)``, e = norm(C*C - CC*).

    The smaller constant ``e/(2(1+e))`` is recorded in ``extras`` as data; it
    never fails the check.
    """
    c = _stack(c)
    epsilon = _epsilon_of(c)
    if np.any(epsilon >= 1.0):
        raise InvalidParameter(f"epsilon must be < 1, got {epsilon[epsilon >= 1.0][0]:.6g}")
    gamma_inv = linalg.hpd_inverse(c, 1.0)
    delta_inv = linalg.hpd_inverse(linalg.adjoint(c), 1.0)
    diff = gamma_inv - delta_inv
    lhs = np.maximum(
        linalg.operator_norm(diff @ c),
        linalg.operator_norm(c @ diff),
    )
    bound = epsilon / (1.0 - epsilon)
    stated = epsilon / (2.0 * (1.0 + epsilon))
    return _result(
        "resolvent_difference",
        lhs,
        bound - lhs,
        _violates(lhs, bound, 1.0),
        epsilon=epsilon,
        stated_bound=stated,
        stated_violations=_violates(lhs, stated, 1.0),
        stated_max_excess=np.maximum(0.0, lhs - stated),
    )


def _f_of(eig: linalg.HermitianEigen) -> np.ndarray:
    """Matrix function t -> t/(1+t)^2 of decomposed Hermitian matrices (functional calculus)."""
    w = eig.values / (1.0 + eig.values) ** 2
    return (eig.vectors * w[..., np.newaxis, :]) @ linalg.adjoint(eig.vectors)


def _f_lipschitz_bound(d: float) -> float:
    return (3.0 * d - d * d) / (1.0 - d) ** 2


def _each(bound, values: np.ndarray) -> np.ndarray:
    """A scalar bound at each of ``values``.  The bounds square with Python's float
    power, the C library's ``pow``, which now and then differs in the last bit
    from numpy's ``x * x``; so they are taken one value at a time."""
    return np.array([bound(v) for v in values.tolist()])


def check_f_lipschitz(e: np.ndarray, f: np.ndarray) -> BoundCheckResult:
    """``norm(E(I+E)^-2 - F(I+F)^-2) <= (3d - d^2)/(1-d)^2`` with d = norm(E-F)."""
    e = _stack(e)
    f = _stack(f)
    if e.shape != f.shape:
        raise InvalidParameter("E and F must have the same shape")
    eigs = []
    for name, m in (("E", e), ("F", f)):
        eig = linalg.hermitian_eigen(m)
        scale = np.maximum(1.0, abs(eig.values[:, -1]))
        if np.any(eig.values[:, 0] < -1e-10 * scale):
            raise InvalidParameter(f"{name} must be positive semidefinite")
        eigs.append(eig)
    d = linalg.operator_norm(e - f)
    if np.any(d >= 1.0):
        raise InvalidParameter(f"norm(E - F) must be < 1, got {d[d >= 1.0][0]:.6g}")
    lhs = linalg.operator_norm(_f_of(eigs[0]) - _f_of(eigs[1]))
    bound = _each(_f_lipschitz_bound, d)
    return _result(
        "f_lipschitz", lhs, bound - lhs, _violates(lhs, bound, 1.0), distance=d
    )


def check_theorem_defect(c: np.ndarray) -> BoundCheckResult:
    """``norm(Q^2 - Q)`` against the defect bound at epsilon = ``norm(C*C - CC*)``.

    Q is assembled from C by :func:`q_blocks_from_c`; both norms are exact and
    unmasked.
    """
    c = _stack(c)
    epsilon = _epsilon_of(c)
    q = q_blocks_from_c(c)
    defect = linalg.operator_norm(q @ q - q)
    bound = _each(theorem_bound, epsilon)
    return _result(
        "projection_defect",
        defect,
        bound - defect,
        _violates(defect, bound, 1.0),
        epsilon=epsilon,
    )


def _merge(a: BoundCheckResult, b: BoundCheckResult) -> BoundCheckResult:
    """The result of ``a``'s trials and ``b``'s together, two results of one
    family, with each extra merged by :func:`_extra`."""
    return BoundCheckResult(
        name=a.name,
        trials=a.trials + b.trials,
        max_lhs=max(a.max_lhs, b.max_lhs),
        min_slack=min(a.min_slack, b.min_slack),
        violations=a.violations + b.violations,
        extras={key: _extra(key, (value, b.extras[key])) for key, value in a.extras.items()},
    )


# Each family draws one trial's inputs from its generator in a fixed order, and
# checks a stack of trials of one order.


def _draw_resolvent(rng: np.random.Generator, dim: int, trial: int) -> tuple:
    return _ginibre(rng, dim), SUITE_LAMBDAS[trial % len(SUITE_LAMBDAS)]


def _draw_intertwine(rng: np.random.Generator, dim: int, trial: int) -> tuple:
    return (_ginibre(rng, dim),)


def _draw_difference(rng: np.random.Generator, dim: int, trial: int) -> tuple:
    return (float(rng.uniform(0.01, 0.1)), *_draw_near_normal(rng, dim))


def _check_difference(target, x, z, g) -> BoundCheckResult:
    return check_resolvent_difference(_near_normal(x, z, g, target))


def _draw_lipschitz(rng: np.random.Generator, dim: int, trial: int) -> tuple:
    return _ginibre(rng, dim), _ginibre(rng, dim), float(rng.uniform(0.01, 0.12))


def _check_lipschitz(w, s, shift) -> BoundCheckResult:
    """E a random PSD matrix, F = E + shift * S for a unit Hermitian S."""
    dim = w.shape[-1]
    w = w / np.sqrt(dim)
    e = w @ linalg.adjoint(w)
    s = (s + linalg.adjoint(s)) / 2.0
    s /= linalg.operator_norm(s)[:, np.newaxis, np.newaxis]
    f = e + shift[:, np.newaxis, np.newaxis] * s
    # lift just enough to stay PSD; the lift is bounded by the perturbation
    # size so norm(E - F) stays below 0.3
    low = linalg.hermitian_eigen(f).values[:, 0]
    lift = low < 0
    f[lift] -= low[lift, np.newaxis, np.newaxis] * np.eye(dim)
    return check_f_lipschitz(e, f)


def _draw_defect(rng: np.random.Generator, dim: int, trial: int) -> tuple:
    return float(rng.uniform(0.01, 0.1)), _ginibre(rng, dim), _ginibre(rng, dim)


def _check_defect(target, a, b) -> BoundCheckResult:
    """C = A + iB for a random Hermitian pair scaled so that norm(C*C - CC*) is the target."""
    a = (a + linalg.adjoint(a)) / 2.0
    b = (b + linalg.adjoint(b)) / 2.0
    eps = _epsilon_of(a + 1j * b)
    scaled = eps > 0
    s = np.sqrt(target[scaled] / eps[scaled])[:, np.newaxis, np.newaxis]
    a[scaled], b[scaled] = s * a[scaled], s * b[scaled]
    return check_theorem_defect(a + 1j * b)


def _stack_size(dim: int) -> int:
    return max(1, STACK_BYTES // (_COMPLEX_BYTES * dim * dim))


def suite_bytes(max_dim: int) -> int:
    """Bytes :func:`run_suite` may hold at once for orders up to ``max_dim``: the
    :data:`DEFECT_ARRAYS` 2n-by-2n arrays of a largest stack in
    :func:`check_theorem_defect`.  A stack holds at most :data:`STACK_BYTES` of
    n-by-n input, or one matrix, so its 2n-by-2n arrays hold four times that."""
    return DEFECT_ARRAYS * 4 * max(STACK_BYTES, _COMPLEX_BYTES * max_dim**2)


def _key(seed: int, family: int, trial: int) -> np.ndarray:
    """The Philox key of the trial, the one ``_rng(seed, family, trial)`` uses."""
    return np.random.SeedSequence([seed, family, trial]).generate_state(2, np.uint64)


def _run_family(seed: int, family: int, trials: int, max_dim: int, draw, check) -> BoundCheckResult:
    """The merged result of one family's stacks: its trials grouped by order, each
    group checked in stacks of :func:`_stack_size` trials.

    Each trial's Philox key is derived once.  One generator is re-keyed to the
    start of a trial's stream to read its order, and again to read the order and
    then draw, so it yields the bytes of ``_rng(seed, family, trial)`` with no
    generator built per trial.  The keys and orders are what :func:`run_suite`
    charges :data:`TRIAL_BYTES` a trial for; each stack's result is merged as it
    comes, so nothing else grows with the trials.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = rng.bit_generator.state  # counter 0 and nothing buffered

    def read_order(key) -> int:
        fresh["state"]["key"] = key
        rng.bit_generator.state = fresh
        return int(rng.integers(2, max_dim + 1))

    keys = np.empty((trials, 2), dtype=np.uint64)
    orders = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        keys[t] = _key(seed, family, t)
        orders[t] = read_order(keys[t])
    # a stable sort puts the orders in ascending order and keeps each order's
    # trials in trial order
    by_order = np.argsort(orders, kind="stable")
    orders = orders[by_order]
    merged = None
    start = 0
    while start < trials:
        dim = int(orders[start])
        end = int(np.searchsorted(orders, dim, side="right"))
        size = _stack_size(dim)
        for first in range(start, end, size):
            stack = []
            for t in by_order[first : min(first + size, end)].tolist():
                read_order(keys[t])
                stack.append(draw(rng, dim, t))
            result = check(*(np.stack(column) for column in zip(*stack)))
            merged = result if merged is None else _merge(merged, result)
        start = end
    return merged


def run_suite(seed: int, trials: int, max_dim: int) -> list[BoundCheckResult]:
    """Run all five inequality families over seeded ensembles.

    Deterministic for a fixed ``(seed, trials, max_dim)``; failures are reported
    in the results, never raised.  Each family's trials are checked in stacks of
    one order, at most :data:`STACK_BYTES` of input each.  All five families
    run in one :func:`linalg.serial_blas` scope, which sets the process-wide
    BLAS thread count to one and restores it on return: BLAS work running
    alongside the suite runs on one thread too.

    Raises
    ------
    InvalidParameter
        If an argument is out of range.
    InsufficientMemory
        If :func:`suite_bytes` of ``max_dim`` and :data:`TRIAL_BYTES` a trial
        would not fit; checked before anything is drawn.
    """
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if max_dim < 2:
        raise InvalidParameter(f"max_dim must be >= 2, got {max_dim}")
    linalg.require_memory(
        suite_bytes(max_dim) + TRIAL_BYTES * trials,
        f"the verify suite at max_dim {max_dim} with {trials} trials",
    )
    # looked up at each call, so a patched check_* is the one that runs
    families = (
        (_draw_resolvent, check_resolvent_bound),
        (_draw_intertwine, check_intertwine),
        (_draw_difference, _check_difference),
        (_draw_lipschitz, _check_lipschitz),
        (_draw_defect, _check_defect),
    )
    # one switch for the whole suite: each switch around real work costs a
    # thread wake-up of a few milliseconds
    with linalg.serial_blas():
        return [
            _run_family(seed, family, trials, max_dim, draw, check)
            for family, (draw, check) in enumerate(families)
        ]
