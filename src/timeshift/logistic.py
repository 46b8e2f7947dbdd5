"""
L2-regularized binary logistic regression, built directly on numpy.

The model predicts the probability that produced time *decreases* in the next
trial. With standardized features z and weights w the logit is b + w.z and

    P(decrease | z) = 1 / (1 + exp(-(b + w.z)))

Training minimizes the summed negative log-likelihood plus ||w||^2 / (2C)
(intercept unpenalized); C is the inverse regularization strength, so the
reference C=12.06 plugs in directly. The optimizer is deterministic damped
Newton with Armijo backtracking (the Hessian is a 6x6, so exact second-order
steps are cheap and reach the tight gradient tolerance that quasi-Newton
updates stall above), falling back to steepest descent whenever the Hessian
solve is unusable. Same inputs give a bit-identical model. fit_folds runs the
same iteration for every leave-one-out fold of one design at once.

The module also carries the pinned reference model: intercept 0.016 and weights
(0.662, -0.191, -0.241, -0.187, 0.177) over the five standardized features.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Direction, atomic_write
from .errors import (
    ConfigError,
    NonConvergenceWarning,
    SingleClassError,
    TooFewSamplesError,
)
from .features import N_FEATURES, ScalerStats, identity_scaler

# Pinned reference coefficients, in canonical feature order.
PINNED_INTERCEPT = 0.016
PINNED_COEFFICIENTS = (0.662, -0.191, -0.241, -0.187, 0.177)
PINNED_C = 12.06

# Standardization statistics for replaying the pinned model on raw inputs.
# Only the t1_rel_error pair (mean 15, sd 44) is exact; the rest are
# approximations documented next to each value. Supply exact stats to
# pinned_model() when they are known.
PINNED_SCALER_APPROX = ScalerStats(
    means=(
        15.0,  # exact
        0.4,   # approx: productions skew above target, ~40% report "lower"
        0.06,  # 6% of participants flagged sensitive
        1.0,   # balanced design: engagement levels uniform over {0,1,2}
        1.0,   # balanced design: transitions uniform over lower/same/higher
    ),
    std_devs=(
        44.0,                   # exact
        math.sqrt(0.4 * 0.6),   # Bernoulli(0.4)
        math.sqrt(0.06 * 0.94),  # Bernoulli(0.06)
        math.sqrt(2.0 / 3.0),   # uniform over {0,1,2}
        math.sqrt(2.0 / 3.0),
    ),
)

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class LogisticModel:
    """Fitted (or pinned) logistic model with its scaler and regularization."""

    intercept: float
    coefficients: tuple[float, ...]
    scaler: ScalerStats
    inverse_reg_c: float
    converged: bool = True
    n_iter: int = 0
    trained_on: str = ""
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        if len(self.coefficients) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} coefficients")
        if not all(math.isfinite(c) for c in self.coefficients) or not math.isfinite(
            self.intercept
        ):
            raise ValueError("model parameters must be finite")
        if self.inverse_reg_c <= 0:
            raise ValueError("inverse_reg_c must be > 0")


def pinned_model(scaler: ScalerStats | None = None) -> LogisticModel:
    """
    The pinned reference model. Pass exact scaler statistics when available;
    otherwise the documented approximate statistics are attached.
    """
    return LogisticModel(
        intercept=PINNED_INTERCEPT,
        coefficients=PINNED_COEFFICIENTS,
        scaler=scaler if scaler is not None else PINNED_SCALER_APPROX,
        inverse_reg_c=PINNED_C,
        trained_on="pinned",
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """
    Numerically stable logistic function, exact for |x| up to ~700:
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e^-|x| shared.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def predict_proba(model: LogisticModel, z: np.ndarray) -> float | np.ndarray:
    """
    Probability of decrease for standardized features.

    Accepts a single 5-vector (returns a float) or an (n, 5) matrix
    (returns an array of n probabilities).
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(model.coefficients)
    logit = model.intercept + z @ w
    p = _sigmoid(logit)
    return float(p) if np.ndim(p) == 0 else p


def labels_to_array(y) -> np.ndarray:
    """0/1 float labels: 1, True and Direction.DECREASE are the positive class."""
    arr = np.asarray(y)
    positive = arr == 1
    if arr.dtype == object:
        positive |= arr == Direction.DECREASE
    return positive.astype(float)


def nll_loss(model: LogisticModel, Z: np.ndarray, y) -> float:
    """
    Summed negative log-likelihood plus ||w||^2/(2C), intercept unpenalized.

    Evaluated in softplus form, sum(softplus(logit) - y * logit), which equals
    clamping the probabilities away from 0/1 inside the logs over the whole
    trustworthy range but stays exact (and smooth, which the line search
    needs) at extreme logits where a clamped log would saturate.
    """
    theta = np.concatenate(([model.intercept], model.coefficients))
    loss, _ = _loss_and_grad(
        theta, np.asarray(Z, dtype=float), labels_to_array(y), model.inverse_reg_c
    )
    return loss


def gradient(model: LogisticModel, Z: np.ndarray, y) -> np.ndarray:
    """
    Gradient of nll_loss: [d/db, d/dw_0 ... d/dw_4] with
    d/db = sum(p - y) and d/dw_j = sum((p - y) z_j) + w_j / C.
    """
    theta = np.concatenate(([model.intercept], model.coefficients))
    _, grad = _loss_and_grad(
        theta, np.asarray(Z, dtype=float), labels_to_array(y), model.inverse_reg_c
    )
    return grad


def _loss_and_grad(
    theta: np.ndarray, Z: np.ndarray, y: np.ndarray, C: float
) -> tuple[float, np.ndarray]:
    b, w = theta[0], theta[1:]
    logits = b + Z @ w
    # softplus(m) - y*m == -[y log p + (1-y) log(1-p)], exact and stable
    loss = float(np.sum(np.logaddexp(0.0, logits) - y * logits))
    loss += float(w @ w) / (2.0 * C)
    residual = _sigmoid(logits) - y
    grad = np.empty_like(theta)
    grad[0] = residual.sum()
    grad[1:] = Z.T @ residual + w / C
    return loss, grad


def _hessian(theta: np.ndarray, A: np.ndarray, C: float) -> np.ndarray:
    """Exact Hessian over the augmented design A = [1 | Z]; intercept unpenalized."""
    p = _sigmoid(A @ theta)
    weights = p * (1.0 - p)
    H = (A * weights[:, None]).T @ A
    H[1:, 1:] += np.eye(A.shape[1] - 1) / C
    return H


def fit(
    Z: np.ndarray,
    y,
    C: float = PINNED_C,
    tol: float = 1e-8,
    max_iter: int = 5000,
    scaler: ScalerStats | None = None,
    trained_on: str = "",
    seed: int | None = None,
    trace: list | None = None,
) -> LogisticModel:
    """
    Fit by deterministic damped Newton from (b, w) = 0.

    Stops when the gradient infinity-norm drops below tol. Hitting max_iter
    first emits NonConvergenceWarning and returns the last iterate with
    converged=False rather than raising; the objective is convex, so the
    returned parameters are still the best ones seen.

    Args:
        Z: (n, 5) standardized feature matrix.
        y: labels; 1/True/Direction.DECREASE count as the positive class.
        C: inverse regularization strength.
        scaler: statistics to attach to the model (identity if omitted).
        trace: diagnostic; receives the objective value of every accepted
            iterate (Armijo backtracking keeps the sequence non-increasing,
            up to float resolution in the final machine-precision steps).

    Raises:
        SingleClassError: only one class present in y.
        TooFewSamplesError: fewer than 6 samples.
    """
    Z = np.asarray(Z, dtype=float)
    y_arr = labels_to_array(y)
    if Z.ndim != 2 or Z.shape[1] != N_FEATURES:
        raise ValueError(f"expected an (n, {N_FEATURES}) matrix, got shape {Z.shape}")
    if Z.shape[0] != y_arr.shape[0]:
        raise ValueError("Z and y differ in length")
    if Z.shape[0] < 6:
        raise TooFewSamplesError(f"need >= 6 samples to fit, got {Z.shape[0]}")
    if y_arr.min() == y_arr.max():
        raise SingleClassError("both classes are required to fit")

    theta = np.zeros(N_FEATURES + 1)
    A = np.hstack([np.ones((Z.shape[0], 1)), Z])
    loss, grad = _loss_and_grad(theta, Z, y_arr, C)
    if trace is not None:
        trace.append(loss)

    n_steps = 0
    converged = bool(np.max(np.abs(grad)) < tol)
    while not converged and n_steps < max_iter:
        try:
            direction = np.linalg.solve(_hessian(theta, A, C), -grad)
        except np.linalg.LinAlgError:
            direction = -grad
        descent = float(grad @ direction)
        if descent >= 0 or not np.all(np.isfinite(direction)):
            direction = -grad  # fallback: steepest descent
            descent = float(grad @ direction)

        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            theta_new = theta + step * direction
            loss_new, grad_new = _loss_and_grad(theta_new, Z, y_arr, C)
            predicted = _ARMIJO_C1 * step * descent
            if loss_new <= loss + predicted:
                accepted = True
                break
            # endgame: the predicted decrease is below the float resolution of
            # the loss, so Armijo is blind; accept on gradient-norm progress
            if abs(predicted) < 8 * np.finfo(float).eps * (1.0 + abs(loss)) and (
                np.max(np.abs(grad_new)) < np.max(np.abs(grad))
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted or np.array_equal(theta_new, theta):
            break  # no representable progress left

        theta, loss, grad = theta_new, loss_new, grad_new
        if trace is not None:
            trace.append(loss)
        n_steps += 1
        converged = bool(np.max(np.abs(grad)) < tol)

    if not converged:
        warnings.warn(
            f"optimizer stopped after {n_steps} iterations with "
            f"gradient norm {np.max(np.abs(grad)):.3e} > tol {tol:.1e}",
            NonConvergenceWarning,
        )

    return LogisticModel(
        intercept=float(theta[0]),
        coefficients=tuple(theta[1:]),
        scaler=scaler if scaler is not None else identity_scaler(),
        inverse_reg_c=C,
        converged=converged,
        n_iter=n_steps,
        trained_on=trained_on,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Leave-one-out folds, solved together
# ---------------------------------------------------------------------------

# Element budget of one block of folds: fit_folds solves budget // n folds at
# a time, with at most four (block, n) temporaries alive, 96 KB each here.
# Larger blocks cost fewer numpy calls per fold, but at 16384 a temporary
# reaches 128 KB, glibc's default mmap threshold, so each allocation maps
# fresh pages: that budget measured slower on the loocv workload.
_BLOCK_ELEMENTS = 12288


def fit_folds(
    Z: np.ndarray,
    y: np.ndarray,
    shift: np.ndarray,
    scale: np.ndarray,
    free: np.ndarray,
    C: float,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Fit every leave-one-out fold of Z by fit's damped Newton, in batches.

    Fold k trains on every row but k, z-scored by its own scaler: in Z's
    coordinates its features are (Z - shift[k]) / scale[k]. With v = w / scale
    and c = b - v.shift that is the same logistic loss over A = [1 | Z] with
    the weight penalty scale^2 v^2 / (2C), so all folds share one design and
    each Newton step of a block of folds is a few matrix products and one
    batched solve. A coordinate where free[k] is False (a column constant
    within fold k) keeps weight 0. Newton steps are invariant under the
    change of coordinates, so every fold starts from zero as fit does, keeps
    its Armijo backtracking and endgame rule, and tests tol on its gradient
    mapped back to its own coordinates.

    Returns:
        Each fold's probability for its held-out row, its Newton steps and
        whether its gradient norm fell below tol within max_iter steps.
    """
    n = len(y)
    A = np.hstack([np.ones((n, 1)), Z])
    pairs = (A[:, :, None] * A[:, None, :]).reshape(n, -1)  # rows of vec(a a^T)
    probability = np.empty(n)
    n_iter = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    size = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, size):
        block = slice(start, min(start + size, n))
        fold = _FoldBlock(A, pairs, y, np.arange(block.start, block.stop),
                          shift[block], scale[block], free[block], C)
        theta, n_iter[block], converged[block] = fold.solve(tol, max_iter)
        probability[block] = _sigmoid(np.einsum("ij,ij->i", theta, A[block]))
    return probability, n_iter, converged


class _FoldBlock:
    """The loss, gradient and Hessian of a block of leave-one-out folds."""

    def __init__(self, A, pairs, y, held_out, shift, scale, free, C):
        self.A, self.pairs, self.y, self.held_out = A, pairs, y, held_out
        self.sign = 1.0 - 2.0 * y
        # a fixed coordinate's shift and scale are never used
        self.shift, self.scale = np.where(free, shift, 0.0), np.where(free, scale, 1.0)
        self.penalty = self.scale**2 / C
        # the intercept is always free
        self.free = np.hstack([np.ones((len(held_out), 1), dtype=bool), free])
        self.fixed = None if free.all() else ~self.free

    def objective(self, theta: np.ndarray, folds: np.ndarray):
        """Loss, gradient, Hessian and fold-coordinate gradient norm at theta."""
        rows, held_out = np.arange(len(folds)), self.held_out[folds]
        penalty, w = self.penalty[folds], theta[:, 1:]
        # the held-out entries of each (block, n) temporary are zeroed in place,
        # and buffers are reused, so at most four blocks are alive at once
        logits = theta @ self.A.T
        e = np.abs(logits)
        np.exp(np.negative(e, out=e), out=e)  # e^-|m|
        # softplus(m) - y*m == log1p(e^-|m|) + max((1 - 2y) m, 0), exact and stable
        terms = np.multiply(logits, self.sign)
        np.maximum(terms, 0.0, out=terms)
        terms += np.log1p(e)
        terms[rows, held_out] = 0.0
        loss = terms.sum(axis=1) + 0.5 * np.einsum("ij,ij->i", penalty * w, w)
        denom = np.add(e, 1.0, out=terms)
        residual = np.where(logits >= 0, 1.0, e)  # _sigmoid's arithmetic
        del logits
        residual /= denom
        residual -= self.y
        residual[rows, held_out] = 0.0
        grad = residual @ self.A
        grad[:, 1:] += penalty * w
        del residual
        weight = e  # p (1 - p) == e^-|m| / (1 + e^-|m|)^2 for either sign of m
        weight /= denom
        weight /= denom
        weight[rows, held_out] = 0.0
        hess = (weight @ self.pairs).reshape(-1, N_FEATURES + 1, N_FEATURES + 1)
        diagonal = np.arange(1, N_FEATURES + 1)
        hess[:, diagonal, diagonal] += penalty
        if self.fixed is not None:  # a unit Hessian row and no gradient: no step
            free = self.free[folds]
            grad *= free
            hess *= free[:, :, None] & free[:, None, :]
            every = np.arange(N_FEATURES + 1)
            hess[:, every, every] += self.fixed[folds]
        # d/dw_fold = (d/dv - shift * d/dc) / scale
        grad_w = (grad[:, 1:] - self.shift[folds] * grad[:, :1]) / self.scale[folds]
        norm = np.maximum(np.abs(grad[:, 0]), np.abs(grad_w).max(axis=1))
        return loss, grad, hess, norm

    def solve(self, tol: float, max_iter: int):
        """fit's Newton loop, run for every fold of the block at once."""
        folds = np.arange(len(self.held_out))
        theta = np.zeros((len(folds), N_FEATURES + 1))
        loss, grad, hess, norm = self.objective(theta, folds)
        n_iter = np.zeros(len(folds), dtype=int)
        active = norm >= tol
        for _ in range(max_iter):
            live = np.flatnonzero(active)
            if not live.size:
                break
            direction = _newton_directions(hess[live], grad[live])
            descent = np.einsum("ij,ij->i", grad[live], direction)
            steepest = (descent >= 0) | ~np.isfinite(direction).all(axis=1)
            if steepest.any():  # fallback: steepest descent
                g = grad[live[steepest]]
                direction[steepest] = -g
                descent[steepest] = -np.einsum("ij,ij->i", g, g)
            step = np.ones(len(live))
            pending = np.arange(len(live))
            for _ in range(_MAX_BACKTRACKS):
                k = live[pending]
                trial = theta[k] + step[pending, None] * direction[pending]
                t_loss, t_grad, t_hess, t_norm = self.objective(trial, k)
                predicted = _ARMIJO_C1 * step[pending] * descent[pending]
                # fit's endgame rule when Armijo is below the loss resolution
                blind = np.abs(predicted) < 8 * np.finfo(float).eps * (1.0 + np.abs(loss[k]))
                ok = (t_loss <= loss[k] + predicted) | (blind & (t_norm < norm[k]))
                moved = ok & (trial != theta[k]).any(axis=1)
                done = k[moved]
                theta[done], loss[done], grad[done] = trial[moved], t_loss[moved], t_grad[moved]
                hess[done], norm[done] = t_hess[moved], t_norm[moved]
                n_iter[done] += 1
                active[k[ok & ~moved]] = False  # no representable progress left
                pending = pending[~ok]
                if not pending.size:
                    break
                step[pending] *= 0.5
            active[live[pending]] = False  # the line search found no step
            active &= norm >= tol
        return theta, n_iter, norm < tol


def _newton_directions(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve each H d = -g; a singular H gets -g, as in fit."""
    try:
        return np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        direction = -grad
        for j in range(len(grad)):
            try:
                direction[j] = np.linalg.solve(hess[j], -grad[j])
            except np.linalg.LinAlgError:
                pass
        return direction


# ---------------------------------------------------------------------------
# JSON serialization (lossless: floats are written with shortest round-trip repr)
# ---------------------------------------------------------------------------

def model_to_json(model: LogisticModel) -> str:
    payload = {
        "intercept": model.intercept,
        "coefficients": list(model.coefficients),
        "scaler": {
            "means": list(model.scaler.means),
            "stds": list(model.scaler.std_devs),
        },
        "C": model.inverse_reg_c,
        "trained_on": model.trained_on,
        "seed": model.seed,
        "converged": model.converged,
        "n_iter": model.n_iter,
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> LogisticModel:
    """Parse a saved model; text that is not one raises ConfigError."""
    try:
        payload = json.loads(text)
        return LogisticModel(
            intercept=payload["intercept"],
            coefficients=tuple(payload["coefficients"]),
            scaler=ScalerStats(
                means=tuple(payload["scaler"]["means"]),
                std_devs=tuple(payload["scaler"]["stds"]),
            ),
            inverse_reg_c=payload["C"],
            converged=payload.get("converged", True),
            n_iter=payload.get("n_iter", 0),
            trained_on=payload.get("trained_on", ""),
            seed=payload.get("seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:  # a missing key, a wrong type
        raise ConfigError(f"not a valid model file: {exc!r}") from None


def save_model(model: LogisticModel, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(model_to_json(model) + "\n")


def load_model(path: str | Path) -> LogisticModel:
    return model_from_json(Path(path).read_text())
