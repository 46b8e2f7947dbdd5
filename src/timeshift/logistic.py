"""
L2-regularized binary logistic regression, built directly on numpy.

The model predicts the probability that produced time *decreases* in the next
trial. With standardized features z and weights w the logit is b + w.z and

    P(decrease | z) = 1 / (1 + exp(-(b + w.z)))

Training minimizes the summed negative log-likelihood plus ||w||^2 / (2C)
(intercept unpenalized); C is the inverse regularization strength, so the
reference PINNED_C plugs in directly. The optimizer is deterministic damped
Newton with Armijo backtracking (the Hessian is a 6x6, so exact second-order
steps are cheap and reach the tight gradient tolerance that quasi-Newton
updates stall above), falling back to steepest descent whenever the Hessian
solve is unusable. Same inputs give a bit-identical model. There is one
solver, for a block of problems over one design: fit is the block of one
problem, with no held-out row, and fit_folds solves every leave-one-out fold
of a raw feature matrix in blocks, each with its own scaler and from a start
that its held-out label cannot reach. nll_loss and gradient evaluate that same
objective.

The module also carries the pinned reference model: intercept 0.016 and weights
(0.662, -0.191, -0.241, -0.187, 0.177) over the five standardized features.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .data import atomic_write, check_fields, read_object
from .errors import ConfigError, SingleClassError, TooFewSamplesError
from .features import N_FEATURES, ScalerStats, column_stats, constant_columns, identity_scaler

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
# Newton stops once the gradient infinity-norm, in the problem's own
# coordinates, is below this.
_TOL = 1e-8
# A solve stops after this many Newton steps, not converged (converged ones took <= 31).
_MAX_ITER = 200


@dataclass(frozen=True)
class LogisticModel:
    """Fitted (or pinned) logistic model with its scaler and regularization."""

    intercept: float
    coefficients: tuple[float, ...]
    scaler: ScalerStats
    # the model file's key; a subnormal C would overflow the penalty 1/C
    inverse_reg_c: float = field(metadata={"key": "C", "above": 0, "min": np.finfo(float).tiny})
    converged: bool = True
    n_iter: int = 0
    trained_on: str = ""
    seed: int | None = None

    def __post_init__(self):
        check_fields(self, prefix="model field ")
        if len(self.coefficients) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} coefficients")


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
    return np.maximum(e, x >= 0) / (1.0 + e)  # e <= 1, so 1 where x >= 0


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
    """0/1 float labels: 1 and True are the positive class (decrease)."""
    return (np.asarray(y) == 1).astype(float)


def nll_loss(model: LogisticModel, Z: np.ndarray, y) -> float:
    """
    Summed negative log-likelihood plus ||w||^2/(2C), intercept unpenalized:
    the objective fit minimizes.

    Evaluated in softplus form, sum(softplus(logit) - y * logit), which equals
    clamping the probabilities away from 0/1 inside the logs over the whole
    trustworthy range but stays exact (and smooth, which the line search
    needs) at extreme logits where a clamped log would saturate.
    """
    return float(_at(model, Z, y)[0][0])


def gradient(model: LogisticModel, Z: np.ndarray, y) -> np.ndarray:
    """
    Gradient of nll_loss: [d/db, d/dw_0 ... d/dw_4] with
    d/db = sum(p - y) and d/dw_j = sum((p - y) z_j) + w_j / C.
    """
    return _at(model, Z, y)[1][0]


def _at(model: LogisticModel, Z: np.ndarray, y):
    """The solver's objective at the model's parameters, over all of Z."""
    theta = np.array([[model.intercept, *model.coefficients]])
    whole = _whole(np.asarray(Z, dtype=float), labels_to_array(y), model.inverse_reg_c)
    return whole.objective(theta, np.arange(1))


def fit(
    Z: np.ndarray,
    y,
    C: float = PINNED_C,
    scaler: ScalerStats | None = None,
    trained_on: str = "",
    seed: int | None = None,
) -> LogisticModel:
    """
    Fit by deterministic damped Newton from (b, w) = 0.

    Stops when the gradient infinity-norm drops below 1e-8. Hitting _MAX_ITER
    steps first returns the last iterate with converged=False, for the caller
    to read, and neither raises nor warns; the objective is convex, so the
    returned parameters are still the best ones seen.

    Args:
        Z: (n, 5) standardized feature matrix.
        y: labels; 1 and True count as the positive class.
        C: inverse regularization strength.
        scaler: statistics to attach to the model (identity if omitted).

    Raises:
        SingleClassError: only one class present in y.
        TooFewSamplesError: fewer than 6 samples.
        ValueError: Z is not an (n, 5) matrix, or Z and y differ in length.
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

    theta, n_iter, norm = _whole(Z, y_arr, C).solve(np.zeros((1, N_FEATURES + 1)))
    return LogisticModel(
        intercept=float(theta[0, 0]),
        coefficients=tuple(theta[0, 1:]),
        scaler=scaler if scaler is not None else identity_scaler(),
        inverse_reg_c=C,
        converged=bool(norm[0] < _TOL),
        n_iter=int(n_iter[0]),
        trained_on=trained_on,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# The damped Newton solver, for a block of problems over one design
# ---------------------------------------------------------------------------

# Element budget of one block of folds: fit_folds solves budget // n folds at
# a time in four (block, n) work buffers, 192 KB each here. Larger blocks cost
# fewer numpy calls per fold, but the Hessian product (block, n) @ (n, 36),
# _BLOCK_ELEMENTS * 36 = 884,736 multiply-adds at most, must stay below the
# about 10^6 at which OpenBLAS wakes its helper thread. With numpy 2.4.6 on 2
# cores, (23, 1188) @ (1188, 36) ran on one thread and (24, 1188) @ (1188, 36)
# on two, in twice the time of (20, 1188) @ (1188, 36).
_BLOCK_ELEMENTS = 24576
# About this many consecutive folds share one group start (see _group_starts).
# In-process fit_folds on two 1,250-fold loocv cohorts (medians of 15
# alternating runs) took within 5% of each other for 32 to 256, and 7 to 10%
# longer for 16; from 32 up a fold took 2.0 to 2.1 Newton steps on average.
_GROUP_FOLDS = 64
# Rows per partial product of _row_sums. With numpy 2.4.6 (OpenBLAS 0.3.31) on
# 2 cores, (1, 12800) @ (12800, 36) was split over 2 threads and summed in
# another order; (1, 12288) @ (12288, 36) kept its bits, and so did every block
# product of fit_folds (k * n <= _BLOCK_ELEMENTS) at 26 sizes up to 100,000 rows.
_SUM_ROWS = 12288


def _design(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The augmented design A = [1 | Z] and the rows of vec(a a^T) for the Hessian."""
    A = np.hstack([np.ones((len(Z), 1)), Z])
    return A, (A[:, :, None] * A[:, None, :]).reshape(len(Z), -1)


def _whole(Z: np.ndarray, y: np.ndarray, C: float) -> "_Block":
    """All of Z as one problem: no held-out row, Z's own coordinates, no fixed column."""
    return _Block(*_design(Z), y, np.empty((1, 0), dtype=np.intp), C, np.empty((4, 1, len(y))))


def fit_folds(X: np.ndarray, y: np.ndarray, C: float):
    """
    Fit every leave-one-out fold of the (n, 5) raw feature matrix X by fit's
    damped Newton, in batches; NonFiniteFeatureError if a column's mean or std overflows.

    Fold k trains on every row but k, z-scored by its own scaler: in the
    full-data z-scores Z its features are (Z - shift[k]) / scale[k]
    (_fold_scalers). With v = w / scale and c = b - v.shift that is the same
    logistic loss over A = [1 | Z] with the weight penalty scale^2 v^2 / (2C),
    so all folds share one design and each Newton step of a block of folds is
    a few matrix products and one batched solve. A column constant within
    fold k is a fixed coordinate, at weight 0. Newton steps are invariant
    under the change of coordinates, so each fold tests fit's tolerance on its
    gradient mapped back to its own coordinates. A fold starts from a point
    that its held-out label cannot reach (_group_starts), which does not
    change the point the fold converges to.

    Returns:
        Each fold's probability for its held-out row, its Newton steps,
        whether its gradient norm fell below the tolerance within _MAX_ITER
        steps and whether it has a fixed coordinate.
    """
    n = len(y)
    Z, shift, scale, free = _fold_scalers(X)
    A, pairs = _design(Z)
    size = max(1, _BLOCK_ELEMENTS // n)
    # allocated once: temporaries freed on every objective call would let
    # glibc trim and regrow the heap, a page fault per page each time
    work = np.empty((4, size, n))
    start = _group_starts(A, pairs, y, scale, free, C, work)
    probability = np.empty(n)
    n_iter = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    for first in range(0, n, size):
        block = slice(first, min(first + size, n))
        held_out = np.arange(block.start, block.stop)[:, None]
        folds = _Block(A, pairs, y, held_out, C, work, shift[block], scale[block], free[block])
        theta, n_iter[block], norm = folds.solve(start[block])
        converged[block] = norm < _TOL
        probability[block] = _sigmoid(np.einsum("ij,ij->i", theta, A[block]))
    return probability, n_iter, converged, ~free.all(axis=1)


def _fold_scalers(X: np.ndarray):
    """
    Every fold's scaler as an affine map of the full-data z-scores Z: fold
    i's features are (Z - shift[i]) / scale[i], its mean and population std in
    Z's units, and free[i, j] is False where column j is constant within fold
    i by constant_columns (in every fold of a cohort-constant column). Each
    fold downdates Z's column sums without its row, but the fold of a column's
    most extreme row: only that row can hold over half of the column's sum of
    squares, so only there can the downdate of sum(Z^2) cancel. That fold
    takes column_stats of the other n - 1 raw rows.
    """
    n = len(X)
    mean, std = column_stats(X)
    varying = ~constant_columns(mean, std)
    std = np.where(varying, std, 1.0)
    Z = (X - mean) / std * varying
    shift = (Z.sum(axis=0) - Z) / (n - 1)
    scale = np.sqrt(np.maximum((np.sum(Z * Z, axis=0) - Z * Z) / (n - 1) - shift**2, 0.0))
    columns = np.flatnonzero(varying)
    for i, j in zip(np.abs(Z[:, columns]).argmax(axis=0), columns):
        fold_mean, fold_std = column_stats(np.delete(X, i, axis=0))
        shift[i, j], scale[i, j] = (fold_mean[j] - mean[j]) / std[j], fold_std[j] / std[j]
    free = ~constant_columns(mean + shift * std, scale * std)
    return Z, shift, scale, free


def _group_starts(A, pairs, y, scale, free, C, work) -> np.ndarray:
    """
    Each fold's Newton start, which its held-out label cannot reach.

    The folds are cut into groups of about _GROUP_FOLDS consecutive folds, a
    whole number of blocks of work's size. Each group's problem drops every
    row of the group and uses Z's coordinates and the penalty 1/C; the groups
    are solved as blocks of problems, from zero. Fold k then takes one Newton
    step of its own problem from its group's solution: the loss terms of the
    rows outside the group, unpenalized, plus _Block.objective over the
    group's own rows with row k held out and fold k's own penalty. So no bit
    of the start depends on y[k]. A fold with a fixed coordinate, or whose
    step is not finite (a singular Hessian's is NaN), starts at its group's
    solution with its fixed coordinates at 0.
    """
    n, size = len(y), len(work[0])
    group = size * max(1, round(_GROUP_FOLDS / size))
    # each group's rows; the last group's tail repeats its last row
    members = np.minimum(np.arange(-(-n // group) * group), n - 1).reshape(-1, group)
    theta = np.empty((len(members), N_FEATURES + 1))
    grad = np.empty_like(theta)
    hess = np.empty((len(members), N_FEATURES + 1, N_FEATURES + 1))
    for first in range(0, len(members), size):
        part = slice(first, first + size)
        groups = _Block(A, pairs, y, members[part], C, work)
        theta[part] = groups.solve(np.zeros_like(theta[part]))[0]
        # the loss terms of the rows outside each group, without the penalty
        rest = _Block(A, pairs, y, members[part], np.inf, work)
        _, grad[part], hess[part], _ = rest.objective(theta[part], np.arange(len(theta[part])))

    start = theta[np.arange(n) // group]
    local = np.empty(4 * group * group)  # the work buffer of every group's own rows
    for g, first in enumerate(range(0, n, group)):
        rows = slice(first, min(first + group, n))
        m = rows.stop - first
        folds = first + np.flatnonzero(free[rows].all(axis=1))
        own = _Block(A[rows], pairs[rows], y[rows], (folds - first)[:, None], C,
                     local[: 4 * m * m].reshape(4, m, m), scale=scale[folds])
        theta_g = np.tile(theta[g], (len(folds), 1))
        _, fold_grad, fold_hess, _ = own.objective(theta_g, np.arange(len(folds)))
        step = _newton_directions(hess[g] + fold_hess, grad[g] + fold_grad)
        finite = np.isfinite(step).all(axis=1)
        start[folds[finite]] += step[finite]
    start[:, 1:] = np.where(free, start[:, 1:], 0.0)
    return start


class _Block:
    """
    The loss, gradient and Hessian of a block of problems over one design A:
    problem k drops the rows held_out[k] (one per fold, none for fit), reads
    its features as (Z - shift[k]) / scale[k] and keeps weight 0 where
    free[k] is False (by default Z as it is: shift 0, scale 1, all free).
    """

    def __init__(self, A, pairs, y, held_out, C, work, shift=0.0, scale=1.0, free=True):
        self.A, self.pairs, self.y, self.held_out, self.work = A, pairs, y, held_out, work
        self.sign = 1.0 - 2.0 * y
        free = np.full((len(held_out), N_FEATURES), free)
        # a fixed coordinate's shift and scale are never used
        self.shift, self.scale = np.where(free, shift, 0.0), np.where(free, scale, 1.0)
        self.penalty = self.scale**2 / C
        # the intercept is always free
        self.free = np.hstack([np.ones((len(held_out), 1), dtype=bool), free])
        self.fixed = None if free.all() else ~self.free

    def objective(self, theta: np.ndarray, folds: np.ndarray):
        """Loss, gradient, Hessian and own-coordinate gradient norm at theta."""
        rows, held_out = np.arange(len(folds))[:, None], self.held_out[folds]
        penalty, w = self.penalty[folds], theta[:, 1:]
        # every (block, n) array is a work buffer; its held-out entries are
        # zeroed in place
        logits, e, terms, residual = (buffer[: len(folds)] for buffer in self.work)
        np.matmul(theta, self.A.T, out=logits)
        np.abs(logits, out=e)
        np.exp(np.negative(e, out=e), out=e)  # e^-|m|
        # softplus(m) - y*m == log1p(e^-|m|) + max((1 - 2y) m, 0), exact and stable
        np.multiply(logits, self.sign, out=terms)
        np.maximum(terms, 0.0, out=terms)
        terms += np.log1p(e, out=residual)
        terms[rows, held_out] = 0.0
        loss = terms.sum(axis=1) + 0.5 * np.einsum("ij,ij->i", penalty * w, w)
        denom = np.add(e, 1.0, out=terms)
        np.maximum(e, logits >= 0, out=residual)  # _sigmoid's arithmetic
        residual /= denom
        residual -= self.y
        residual[rows, held_out] = 0.0
        grad = _row_sums(residual, self.A)
        grad[:, 1:] += penalty * w
        weight = e  # p (1 - p) == e^-|m| / (1 + e^-|m|)^2 for either sign of m
        weight /= denom
        weight /= denom
        weight[rows, held_out] = 0.0
        hess = _row_sums(weight, self.pairs).reshape(-1, N_FEATURES + 1, N_FEATURES + 1)
        diagonal = np.arange(1, N_FEATURES + 1)
        hess[:, diagonal, diagonal] += penalty
        if self.fixed is not None:  # a unit Hessian row and no gradient: no step
            free = self.free[folds]
            grad *= free
            hess *= free[:, :, None] & free[:, None, :]
            every = np.arange(N_FEATURES + 1)
            hess[:, every, every] += self.fixed[folds]
        # d/dw_own = (d/dv - shift * d/dc) / scale
        grad_w = (grad[:, 1:] - self.shift[folds] * grad[:, :1]) / self.scale[folds]
        norm = np.maximum(np.abs(grad[:, 0]), np.abs(grad_w).max(axis=1))
        return loss, grad, hess, norm

    def solve(self, start: np.ndarray):
        """
        Damped Newton from start for every problem of the block at once: a
        Newton step (steepest descent where it is unusable) with Armijo
        backtracking, until the gradient norm is below _TOL or _MAX_ITER steps.
        Returns the parameters, the steps taken and the final gradient norms.
        """
        folds = np.arange(len(self.held_out))
        theta = np.array(start, dtype=float)
        loss, grad, hess, norm = self.objective(theta, folds)
        n_iter = np.zeros(len(folds), dtype=int)
        active = norm >= _TOL
        for _ in range(_MAX_ITER):
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
                # endgame: the predicted decrease is below the float resolution
                # of the loss, so Armijo is blind; accept on gradient-norm progress
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
            active &= norm >= _TOL
        return theta, n_iter, norm


def _row_sums(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """
    left @ right as partial products over _SUM_ROWS rows of right at a time,
    added in order, so its bits do not depend on the BLAS thread count. Up to
    _SUM_ROWS rows it is the one product left @ right.
    """
    total = left[:, :_SUM_ROWS] @ right[:_SUM_ROWS]
    for first in range(_SUM_ROWS, len(right), _SUM_ROWS):
        total += left[:, first:first + _SUM_ROWS] @ right[first:first + _SUM_ROWS]
    return total


def _newton_directions(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve each H d = -g; a singular H gets NaN, unusable like any non-finite step."""
    try:
        return np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        direction = np.full_like(grad, np.nan)
        for j in range(len(grad)):
            try:
                direction[j] = np.linalg.solve(hess[j], -grad[j])
            except np.linalg.LinAlgError:
                pass
        return direction


# ---------------------------------------------------------------------------
# The model file: save_model and load_model (lossless: shortest round-trip floats).
# Its keys are the fields of LogisticModel and ScalerStats, at metadata["key"]
# where that is set, and only those; a field with a default may be absent.
# ---------------------------------------------------------------------------

def _file_object(instance) -> dict:
    """A dataclass as its model-file JSON object, nested dataclasses too."""
    payload = {}
    for item in fields(instance):
        value = getattr(instance, item.name)
        payload[item.metadata.get("key", item.name)] = (
            _file_object(value) if is_dataclass(value) else value
        )
    return payload


def save_model(model: LogisticModel, path: str | Path) -> None:
    """Write the model as one line of sorted-key JSON."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(_file_object(model), sort_keys=True) + "\n")


def load_model(path: str | Path) -> LogisticModel:
    """
    Read a saved model; a file that is not UTF-8 text (a byte-order mark is
    allowed) or not a model (read_object, then check_fields) raises ConfigError.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        values = read_object(payload, fields(LogisticModel), "model", "the model")
        scaler = read_object(values["scaler"], fields(ScalerStats), "scaler", "the scaler")
        return LogisticModel(**{**values, "scaler": ScalerStats(**scaler)})
    except UnicodeDecodeError as exc:
        raise ConfigError(f"model file is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError too
        raise ConfigError(f"not a valid model file: {exc}") from None
