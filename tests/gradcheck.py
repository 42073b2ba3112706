"""Finite-difference gradient verification helpers shared by the tests.

All checks run in float64 with central differences. A layer is built in
float64 through its ``dtype``; a model is float32 only, so a float64 model
is a built one recast by ``as_float64``. Agreement is measured normwise:
||a - n|| / (||a|| + ||n||), which stays meaningful when individual
coordinates pass through zero.

A central difference is only a derivative where the function is smooth
between x - h and x + h. ``check_layer`` watches the inputs of every ReLU
inside the layer and leaves out of the comparison any coordinate whose two
evaluations see a pre-ReLU value on different sides of zero, so no check
depends on how close its random inputs happen to land to a kink.
"""

import numpy as np

from ev2vox import nn

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-6


def as_float64(module):
    """Recast every parameter's value and gradient to float64, in place, and
    return the module. Running statistics are float32 at any dtype, and the
    weights keep their float32-rounded values."""
    for p in module.parameters():
        p.value = p.value.astype(np.float64)
        p.grad = p.grad.astype(np.float64)
    return module


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.linalg.norm(a) + np.linalg.norm(n)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - n) / denom)


def numeric_grad_full(f, arr: np.ndarray, h: float = DEFAULT_H) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. every entry of arr,
    perturbing arr in place: f() runs at +h, then at -h, for each entry in
    flat order."""
    flat = arr.reshape(-1)
    out = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(arr.shape)


def numeric_grad_coords(f, arr: np.ndarray, coords, h: float = DEFAULT_H) -> np.ndarray:
    """Central-difference gradient at a flat-coordinate subset only."""
    flat = arr.reshape(-1)
    out = np.zeros(len(coords), dtype=np.float64)
    for j, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[j] = (fp - fm) / (2.0 * h)
    return out


def check_layer(layer, x: np.ndarray, rng, tol: float = DEFAULT_TOL, h: float = DEFAULT_H):
    """Verify layer input and parameter gradients against finite differences.

    The scalar objective is a fixed random projection of the output, so its
    analytic gradient is exactly backward(projection). Coordinates whose
    central difference crosses a ReLU kink are left out on both sides; every
    gradient keeps at least one coordinate, and nine in ten coordinates
    overall must remain. Every forward gets a copy of ``x``: batch norm and
    ReLU write into their input.
    """
    y = layer.forward(x.copy(), remember=True)
    proj = rng.normal(size=y.shape)

    for p in layer.parameters():
        p.zero_grad()
    analytic_x = layer.backward(proj)

    # the sign pattern of every ReLU input, one entry per objective call
    signs = []

    def watch(relu):
        def forward(z, remember=True):
            signs[-1].append((z > 0).tobytes())
            return type(relu).forward(relu, z, remember)
        return forward

    relus = [m for m in layer.modules() if isinstance(m, nn.ReLU)]
    for relu in relus:
        relu.forward = watch(relu)

    def objective():
        signs.append([])
        return float((layer.forward(x.copy(), remember=False) * proj).sum())

    errs = {}
    kept = total = 0
    try:
        targets = [("input", x, analytic_x)] + [(p.name, p.value, p.grad) for p in layer.parameters()]
        for label, arr, analytic in targets:
            signs.clear()
            numeric = numeric_grad_full(objective, arr, h)
            # an entry whose +h and -h evaluations differ in signs straddles a
            # kink, and its difference is not a derivative
            smooth = np.array([sp == sm for sp, sm in zip(signs[::2], signs[1::2])], dtype=bool)
            smooth = smooth.reshape(arr.shape)
            assert smooth.any(), f"{label}: every coordinate crosses a kink"
            errs[label] = rel_err(analytic[smooth], numeric[smooth])
            kept, total = kept + smooth.sum(), total + smooth.size
    finally:
        for relu in relus:
            del relu.forward
    assert kept >= 0.9 * total, f"only {kept} of {total} coordinates clear of kinks"

    for label, e in errs.items():
        assert e < tol, f"{label}: finite-difference mismatch {e:.3e} >= {tol}"
    return errs
