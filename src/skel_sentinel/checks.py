"""Numerical self-tests for the flow: invertibility, log-det vs a
finite-difference Jacobian, analytic vs finite-difference gradients, and grid
integration of the density. The finite-difference side is deliberately
independent of the analytic code paths it validates.
"""

from __future__ import annotations

import numpy as np

from .flow import FlowModel, flow_forward, flow_inverse, init_flow, log_prob, nll_loss_and_grad

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def make_perturbed_flow(
    dimension: int, n_layers: int, hidden_width: int, seed: int, scale: float = 0.1
) -> FlowModel:
    """A flow pushed off the identity so checks exercise non-trivial maps."""
    model = init_flow(dimension, n_layers, hidden_width, seed)
    rng = np.random.default_rng(seed + 1)
    model.trained += rng.standard_normal(model.trained.size) * scale
    return model


def invertibility_error(model: FlowModel, n_vectors: int, seed: int, spread: float = 3.0) -> float:
    """Worst infinity-norm reconstruction error over x -> z -> x."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_vectors, model.dimension)) * spread
    z, _ = flow_forward(model, x)
    back = flow_inverse(model, z)
    return float(np.abs(back - x).max())


def roundtrip_error_z(model: FlowModel, n_vectors: int, seed: int, spread: float = 3.0) -> float:
    """Worst infinity-norm error over z -> x -> z."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_vectors, model.dimension)) * spread
    x = flow_inverse(model, z)
    forward, _ = flow_forward(model, x)
    return float(np.abs(forward - z).max())


def numeric_logdet(model: FlowModel, x: np.ndarray, step: float = 1e-5) -> float:
    """ln|det J| at the vector x from a central-difference Jacobian of the
    forward map, one perturbed one-row batch per side and column."""
    d = model.dimension
    jac = np.empty((d, d))
    for j in range(d):
        delta = np.zeros(d)
        delta[j] = step
        z_plus, _ = flow_forward(model, (x + delta)[None])
        z_minus, _ = flow_forward(model, (x - delta)[None])
        jac[:, j] = (z_plus[0] - z_minus[0]) / (2.0 * step)
    sign, logabsdet = np.linalg.slogdet(jac)
    if sign == 0:
        raise ArithmeticError("numeric Jacobian is singular")
    return float(logabsdet)


def logdet_max_error(model: FlowModel, n_inputs: int, seed: int, spread: float = 2.0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_inputs):
        x = rng.standard_normal(model.dimension) * spread
        _, analytic = flow_forward(model, x[None])
        worst = max(worst, abs(analytic[0] - numeric_logdet(model, x)))
    return worst


def gradient_max_rel_error(
    model: FlowModel,
    batch_normal: np.ndarray,
    batch_abnormal: np.ndarray | None,
    step: float = 1e-4,
) -> float:
    """Compare analytic loss gradients against central finite differences."""
    _, grads = nll_loss_and_grad(model, batch_normal, batch_abnormal)
    # the gradient views come in `model.trained` order
    analytic = np.concatenate([g.ravel() for g in grads.values()])
    params = model.trained
    worst = 0.0
    for idx, a in enumerate(analytic):
        orig = params[idx]
        params[idx] = orig + step
        loss_plus, _ = nll_loss_and_grad(model, batch_normal, batch_abnormal)
        params[idx] = orig - step
        loss_minus, _ = nll_loss_and_grad(model, batch_normal, batch_abnormal)
        params[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        denom = max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, abs(a - numeric) / denom)
    return worst


def density_integral(model: FlowModel, half_width: float = 8.0, points: int = 481) -> float:
    """Trapezoid integration of exp(log_prob(x)) on a square grid
    centered at the normal base center; requires dimension 2."""
    if model.dimension != 2:
        raise ValueError("density grid check is defined for dimension 2")
    center = model.mu_normal
    axis = np.linspace(-half_width, half_width, points)
    xs, ys = np.meshgrid(axis + center[0], axis + center[1])
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    density = np.exp(log_prob(model, grid)).reshape(points, points)
    return float(_trapezoid(_trapezoid(density, axis, axis=1), axis))


def run_self_tests(seed: int = 0) -> list[tuple[str, bool, str]]:
    """The `check` subcommand body: (name, passed, detail) per test."""
    results = []

    model64 = make_perturbed_flow(64, 4, 128, seed, scale=0.05)
    err = invertibility_error(model64, 1000, seed + 10)
    results.append(("invertibility", err <= 1e-5, f"max |x - f^-1(f(x))| = {err:.3e}"))

    worst_ld = 0.0
    for d in (2, 4, 6):
        small = make_perturbed_flow(d, 3, 16, seed + d, scale=0.1)
        worst_ld = max(worst_ld, logdet_max_error(small, 25, seed + 20 + d))
    results.append(("logdet_vs_jacobian", worst_ld <= 1e-4, f"max |analytic - numeric| = {worst_ld:.3e}"))

    grad_model = make_perturbed_flow(4, 2, 8, seed + 3, scale=0.1)
    rng = np.random.default_rng(seed + 30)
    rel = gradient_max_rel_error(
        grad_model, rng.standard_normal((6, 4)), rng.standard_normal((5, 4)) + 2.0
    )
    results.append(("gradient_vs_fd", rel <= 1e-4, f"max relative error = {rel:.3e}"))

    density_model = make_perturbed_flow(2, 4, 16, seed + 4, scale=0.05)
    mass = density_integral(density_model)
    results.append(("density_normalization", abs(mass - 1.0) <= 0.02, f"integral = {mass:.4f}"))

    return results
