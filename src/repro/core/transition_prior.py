"""The DPP diversity prior over transition-matrix rows and its M-step updater.

This module contains the two objects that turn a plain HMM into a dHMM:

* :class:`DPPTransitionPrior` — evaluates ``alpha * log det(K~_A)`` and its
  gradient for a transition matrix ``A`` (paper Eq. 6 and Eq. 15).
* :class:`DiversityTransitionUpdater` — the M-step strategy plugged into
  :class:`~repro.hmm.baum_welch.BaumWelchTrainer`; it maximizes the MAP
  objective of Sec. 3.4.1

      F(A) = sum_ij xi_ij log A_ij + alpha log det(K~_A)

  over row-stochastic matrices with entries at least ``transition_floor``.
  It starts from the better of the current ``A`` and the normalized counts
  and accepts no step that lowers ``F``.

With the paper's ``rho = 0.5`` a row-stochastic ``A`` has unit-norm rows
``S = sqrt(A)``, so ``K~_A = S S^T`` and stationarity with one multiplier
per row gives the fixed point

    A <- (xi + alpha * S o (K~^-1 S)) / (n_i + alpha),    n_i = sum_j xi_ij,

whose correction rows sum to one.  The updater iterates it with the target
clipped at the floor, backtracking along the segment until ``F`` does not
fall.  Where the prior dominates the counts the fixed point converges
slowly; once its measured per-step gain ratio predicts more than
``FIXED_POINT_BUDGET`` further steps, projected Newton steps on ``S`` take
over (one sphere per row, floor entries as an active set, the Newton
system solved by conjugate gradients on ``K x K`` Hessian-vector
products).  They run while CG finds the objective concave along its first
direction, and hand back to the fixed point where it is not.  The ascent
stops when the fixed point's remaining steps, or a Newton step, are
predicted to gain less than ``GAIN_TOL`` nats.  A solution whose rows
collapse onto each other (a near-singular kernel, where neither step can
separate identical rows) restarts from the solution mixed with the
identity, which makes the rows distinct, if that raises ``F``.  Other
kernel exponents ``rho`` run the projected-gradient ascent of the paper's
Algorithm 1 instead.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.config import DHMMConfig
from repro.dpp.kernels import transition_kernel_matrix
from repro.dpp.log_det import dpp_log_prior, dpp_log_prior_gradient, psd_log_det_and_solve
from repro.exceptions import ValidationError
from repro.hmm.transition_updaters import TransitionUpdater
from repro.optim.projected_gradient import maximize_rowwise_simplex
from repro.utils.maths import normalize_rows, safe_log

#: Cap on fixed-point steps in one ``rho = 0.5`` M-step.
FIXED_POINT_STEPS = 1000
#: Cap on accepted Newton steps in one ``rho = 0.5`` M-step.
NEWTON_STEPS = 50
#: The ascent stops once the fixed point's remaining steps (extrapolated
#: from its rate), or a Newton step, are predicted to gain less than this
#: many nats.
GAIN_TOL = 1e-6
#: A fixed-point run whose remaining gain is under ``GAIN_TOL`` has
#: settled only if its last search accepted at least this much of the
#: step; after a shorter one it has stalled.
CONVERGED_STEP = 0.25
#: Fixed-point steps over which the convergence rate is measured ...
RATE_WINDOW = 4
#: ... and the most further steps that rate may need to bring the
#: remaining gain under ``GAIN_TOL`` before Newton takes over (a Newton
#: step costs about five fixed-point steps at K = 15).
FIXED_POINT_BUDGET = 30
#: Conjugate-gradient iterations per Newton step, and the relative
#: (preconditioned) residual at which they stop.
CG_STEPS = 200
CG_TOL = 1e-3
#: Step halvings tried before a search direction counts as stalled.
BACKTRACKS = 30
#: Smallest kernel eigenvalue below which rows count as collapsed ...
SINGULAR_EIGENVALUE = 1e-6
#: ... and the weights of the self-transitions mixed in to separate them.
TIE_BREAK_WEIGHTS = tuple(10.0 ** -np.arange(1.0, 9.0))


class DPPTransitionPrior:
    """Diversity-encouraging k-DPP prior over the rows of a transition matrix.

    Parameters
    ----------
    alpha:
        Prior weight; ``alpha = 0`` disables the prior entirely.
    rho:
        Probability product kernel exponent (paper: 0.5).
    jitter:
        Diagonal jitter added to the kernel before log-det / inversion.
    """

    def __init__(self, alpha: float = 1.0, rho: float = 0.5, jitter: float = 1e-10) -> None:
        if alpha < 0:
            raise ValidationError(f"alpha must be non-negative, got {alpha}")
        if rho <= 0:
            raise ValidationError(f"rho must be positive, got {rho}")
        if jitter < 0:
            raise ValidationError(f"jitter must be non-negative, got {jitter}")
        self.alpha = alpha
        self.rho = rho
        self.jitter = jitter

    def log_prior(self, transmat: np.ndarray) -> float:
        """``alpha * log det(K~_A)`` (0 when ``alpha`` is 0)."""
        if self.alpha == 0:
            return 0.0
        return self.alpha * dpp_log_prior(transmat, rho=self.rho, jitter=self.jitter)

    def gradient(self, transmat: np.ndarray) -> np.ndarray:
        """Gradient of the weighted log prior with respect to ``A``."""
        if self.alpha == 0:
            return np.zeros_like(np.asarray(transmat, dtype=np.float64))
        return self.alpha * dpp_log_prior_gradient(
            transmat, rho=self.rho, jitter=self.jitter
        )


class DiversityTransitionUpdater(TransitionUpdater):
    """MAP M-step for the transition matrix under the DPP prior.

    When ``alpha = 0`` the update falls back to the closed-form normalized
    counts, matching the classical Baum-Welch update exactly.  With
    ``rho = 0.5`` it runs the converged fixed point / Newton ascent of the
    module docstring; ``max_inner_iter``, ``inner_tol`` and
    ``initial_step`` of the config govern only the projected-gradient
    ascent that other ``rho`` run.
    """

    def __init__(self, prior: DPPTransitionPrior, config: DHMMConfig | None = None) -> None:
        self.prior = prior
        self.config = config or DHMMConfig(alpha=prior.alpha, rho=prior.rho)

    def objective(self, expected_counts: np.ndarray, transmat: np.ndarray) -> float:
        """Expected transition log-likelihood plus the weighted DPP log prior."""
        counts = np.asarray(expected_counts, dtype=np.float64)
        likelihood = float(np.sum(counts * safe_log(transmat)))
        return likelihood + self.prior.log_prior(transmat)

    def log_prior(self, transmat: np.ndarray) -> float:
        """``alpha * log det(K~_A)``, the prior term of the MAP objective."""
        return self.prior.log_prior(transmat)

    def update(self, expected_counts: np.ndarray, current: np.ndarray) -> np.ndarray:
        counts = np.asarray(expected_counts, dtype=np.float64)
        if self.prior.alpha == 0:
            return normalize_rows(counts)

        floor = self.config.transition_floor
        candidates = (
            _floor_rows(normalize_rows(counts), floor),
            _floor_rows(np.asarray(current, dtype=np.float64), floor),
        )
        start = max(candidates, key=lambda A: self.objective(counts, A))
        if self.prior.rho != 0.5:
            return self._projected_gradient(counts, start)

        ascent = _SqrtKernelAscent(counts, self.prior.alpha, self.prior.jitter, floor)
        solution, value = ascent.solve(start)
        if np.linalg.eigvalsh(transition_kernel_matrix(solution))[0] < SINGULAR_EIGENVALUE:
            # Rows collapsed onto each other: neither the fixed point nor
            # Newton separates identical rows.  Moving every row toward its
            # own self-transition makes them distinct; restart from the
            # mixing weight that F likes best, if it beats the solution.
            identity = np.eye(counts.shape[0])
            restarts = [
                _floor_rows((1.0 - weight) * solution + weight * identity, floor)
                for weight in TIE_BREAK_WEIGHTS
            ]
            scored = [(ascent.evaluate(A)[0], i) for i, A in enumerate(restarts)]
            best_value, best = max(scored)
            if best_value > value:
                solution, value = ascent.solve(restarts[best])
        return solution

    def _projected_gradient(self, counts: np.ndarray, start: np.ndarray) -> np.ndarray:
        """The paper's Algorithm 1 from ``start``, under the config's stopping rules."""
        cfg = self.config
        floor = cfg.transition_floor

        def objective(A: np.ndarray) -> float:
            return self.objective(counts, A)

        def gradient(A: np.ndarray) -> np.ndarray:
            safe_A = np.clip(A, floor, None)
            return counts / safe_A + self.prior.gradient(safe_A)

        result = maximize_rowwise_simplex(
            objective,
            gradient,
            start,
            max_iter=cfg.max_inner_iter,
            tol=cfg.inner_tol,
            initial_step=cfg.initial_step,
            min_value=floor,
        )
        return result.solution


def _floor_rows(matrix: np.ndarray, floor: float) -> np.ndarray:
    """Rows of ``matrix`` clipped below at ``floor`` and renormalized to one."""
    clipped = np.maximum(matrix, floor)
    return clipped / clipped.sum(axis=1, keepdims=True)


class _SqrtKernelAscent:
    """Monotone ascent of ``F`` at ``rho = 0.5``: fixed point, then Newton."""

    def __init__(self, counts: np.ndarray, alpha: float, jitter: float, floor: float) -> None:
        self.counts = counts
        self.alpha = alpha
        self.jitter = jitter
        self.floor = floor
        # The per-row multiplier n_i + alpha of the fixed point.
        self.multiplier = counts.sum(axis=1, keepdims=True) + alpha

    def evaluate(self, A: np.ndarray) -> tuple[float, np.ndarray]:
        """``F(A)`` (as ``DiversityTransitionUpdater.objective``) and ``K~^-1 sqrt(A)``."""
        kernel = transition_kernel_matrix(A, jitter=self.jitter)
        log_det, solved = psd_log_det_and_solve(kernel, np.sqrt(A))
        return float(np.sum(self.counts * safe_log(A))) + self.alpha * log_det, solved

    def _search(
        self,
        value: float,
        candidate: Callable[[float], np.ndarray],
        strict: bool,
        step: float = 1.0,
    ) -> tuple[np.ndarray, float, np.ndarray, float] | None:
        """First of ``step``, ``step / 2``, ... whose ``F`` does not fall (rises if ``strict``).

        Returns the candidate, its ``F``, its ``K~^-1 sqrt(A)`` and the step.
        """
        for _ in range(BACKTRACKS):
            A = candidate(step)
            new_value, solved = self.evaluate(A)
            if new_value > value or (new_value == value and not strict):
                return A, new_value, solved, step
            step *= 0.5
        return None

    def solve(self, A: np.ndarray) -> tuple[np.ndarray, float]:
        """Ascend from the feasible ``A``; returns the solution and its ``F``.

        Runs of fixed-point steps alternate with runs of Newton steps.  A
        fixed-point run ends when what its remaining steps would gain, at
        the measured rate, is under ``GAIN_TOL`` after a step of at least
        ``CONVERGED_STEP`` (settled) or a shorter one (stalled), when no
        step along the segment keeps ``F`` (stalled), or when the rate
        would need more than ``FIXED_POINT_BUDGET`` further steps (slow).
        A Newton run follows every fixed-point run and lasts while CG finds
        the reduced Hessian negative definite and its steps ascend.  The
        ascent ends when Newton predicts a gain below ``GAIN_TOL``, or when
        a settled fixed point leaves Newton no step to take.
        """
        value, solved = self.evaluate(A)
        fixed_point_budget, newton_budget = FIXED_POINT_STEPS, NEWTON_STEPS
        while True:  # every pass spends at least one step of a finite budget
            A, value, solved, steps, settled = self._fixed_point_run(
                A, value, solved, fixed_point_budget
            )
            fixed_point_budget -= steps
            # Newton also checks a settled fixed point: its extrapolated
            # rate can miss a slow tail.
            A, value, solved, newton_steps, converged = self._newton_run(
                A, value, solved, newton_budget
            )
            newton_budget -= newton_steps
            if converged or (settled and newton_steps == 0) or steps + newton_steps == 0:
                return A, value

    def _fixed_point_run(  # repro: hot-path
        self, A: np.ndarray, value: float, solved: np.ndarray, budget: int
    ) -> tuple[np.ndarray, float, np.ndarray, int, bool]:
        """Fixed-point steps until converged, stalled, slow or out of ``budget``."""
        gains: list[float] = []
        step = 1.0
        for _ in range(budget):  # repro: loop-ok[each step needs the last]
            target = _floor_rows(
                (self.counts + self.alpha * np.sqrt(A) * solved) / self.multiplier, self.floor
            )
            # Start from the last accepted step: where the map overshoots,
            # the damping it needed keeps working, at one evaluation a step.
            found = self._search(value, lambda t: A + t * (target - A), strict=False, step=step)
            if found is None:
                break
            gain = found[1] - value
            A, value, solved, step = found
            gains.append(gain)
            # What the remaining steps still gain, at the measured rate.
            remaining = gain
            if len(gains) > RATE_WINDOW:
                rate = (gain / gains[-1 - RATE_WINDOW]) ** (1.0 / RATE_WINDOW)
                if rate >= 1.0:
                    break
                remaining = max(gain, gain * rate / (1.0 - rate))
            if remaining < GAIN_TOL:
                # A step cut far back gains little anywhere the map is a poor
                # direction (near-collapsed rows): that is a stall, not a
                # maximum, and Newton decides.
                return A, value, solved, len(gains), step >= CONVERGED_STEP
            if (
                len(gains) > RATE_WINDOW
                and math.log(GAIN_TOL / remaining) / math.log(rate) > FIXED_POINT_BUDGET
            ):
                break
        return A, value, solved, len(gains), False

    def _newton_run(  # repro: hot-path
        self, A: np.ndarray, value: float, solved: np.ndarray, budget: int
    ) -> tuple[np.ndarray, float, np.ndarray, int, bool]:
        """Newton steps while the reduced Hessian is negative definite and they ascend."""
        for steps in range(budget):  # repro: loop-ok[each step needs the last]
            root = np.sqrt(A)
            newton = self._newton_direction(root, solved)
            if newton is None:
                return A, value, solved, steps, False
            direction, predicted_gain = newton
            if predicted_gain < GAIN_TOL:
                return A, value, solved, steps, True
            found = self._search(
                value,
                lambda t: _floor_rows(np.maximum(root + t * direction, 0.0) ** 2, self.floor),
                strict=True,
            )
            if found is None:
                return A, value, solved, steps, False
            A, value, solved, _ = found
        return A, value, solved, budget, False

    def _newton_direction(  # repro: hot-path
        self, S: np.ndarray, solved: np.ndarray
    ) -> tuple[np.ndarray, float] | None:
        """Projected Newton step in ``S = sqrt(A)`` and the gain it predicts.

        Each row of ``S`` lives on the unit sphere.  A row's largest entry
        (its pivot) absorbs the tangency constraint ``sum_j S_ij dS_ij = 0``,
        and floor entries whose reduced gradient points out of the feasible
        set stay fixed.  The Hessian is that of the Lagrangian
        ``G(S) - sum_i lambda_i (|S_i|^2 - 1)`` with
        ``G(S) = 2 sum xi log S + alpha log det(S S^T)``:

            d2G / dS_ij dS_lk = -2 alpha W_ik W_lj
                                - [ij = lk] (2 xi_ij / S_ij^2 + 2 lambda_i),

        ``W = K~^-1 S``, so a Hessian-vector product is two ``K x K``
        products, ``-2 alpha W V^T W``.  The Newton system is solved by
        conjugate gradients with a diagonal preconditioner.  CG stops at
        the first direction of non-negative curvature (the prior is not
        concave there) with the iterate it has, or returns None when that
        is its first direction.
        """
        K = S.shape[0]
        rows = np.arange(K)
        W = solved
        grad = 2.0 * (self.counts / S + self.alpha * W)
        multiplier = 0.5 * np.sum(S * grad, axis=1, keepdims=True)
        pivot = np.argmax(S, axis=1)
        ratio = S / S[rows, pivot][:, None]
        reduced = grad - ratio * grad[rows, pivot][:, None]
        free = ~((S <= np.sqrt(self.floor)) & (reduced <= 0.0))
        free[rows, pivot] = False
        # Z x moves the free entries by x and each pivot by -sum_j ratio_ij x_ij.
        ratio = np.where(free, ratio, 0.0)
        curvature = 2.0 * self.counts / S**2 + 2.0 * multiplier
        two_alpha = 2.0 * self.alpha

        def lift(x: np.ndarray) -> np.ndarray:
            v = x.copy()
            v[rows, pivot] = -np.sum(ratio * x, axis=1)
            return v

        def negated_hessian(x: np.ndarray) -> np.ndarray:  # -Z^T H Z x
            v = lift(x)
            u = two_alpha * (W @ v.T @ W) + curvature * v
            return np.where(free, u - ratio * u[rows, pivot][:, None], 0.0)

        w_pivot = W[rows, pivot][:, None]
        diagonal = (
            two_alpha * (W - ratio * w_pivot) ** 2
            + curvature
            + ratio**2 * curvature[rows, pivot][:, None]
        )
        diagonal = np.where(free, diagonal, 1.0)
        gradient = np.where(free, reduced, 0.0)
        target = CG_TOL * np.sqrt(np.sum(gradient**2 / diagonal))
        x = np.zeros_like(S)
        residual = gradient
        preconditioned = residual / diagonal
        direction = preconditioned
        rz = float(np.sum(residual * preconditioned))
        for _ in range(CG_STEPS):  # repro: loop-ok[conjugate-gradient recursion]
            if np.sqrt(rz) <= target:
                break
            product = negated_hessian(direction)
            curvature_along = float(np.sum(direction * product))
            if curvature_along <= 0.0:
                if not x.any():
                    return None
                break
            step = rz / curvature_along
            x = x + step * direction
            residual = residual - step * product
            preconditioned = residual / diagonal
            rz_next = float(np.sum(residual * preconditioned))
            direction = preconditioned + (rz_next / rz) * direction
            rz = rz_next
        return lift(x), 0.5 * float(np.sum(gradient * x))
