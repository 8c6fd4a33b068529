"""Output checks that hold for every seed.

Each check appends a message to ``Checker.failures`` when it fails; an op
with any failure counts as failed.  No check compares floats bit for bit,
because a legitimate transform change moves roundoff.  The calibration
table's bounds hold only on its own corpus seeds, so none is applied here.
"""

from __future__ import annotations

import math

import numpy as np

# Spectral divergence max|k . u_hat| / max|u_hat| of a Leray-projected state.
DIVERGENCE_TOL = 1e-10
# Relative 2D energy drift of the dealiased RK4 solver over a benchmark horizon.
ENERGY_DRIFT_TOL = 1e-9
JACOBIAN_TOL = 1e-4
PURE_MODE_TOL = 1e-9
# Bony pieces versus the dealiased product, relative to max|f g|.
BONY_TOL = 1e-12
# Criterion 10: the ladder gap stays within 10x the solver's own dt-halving floor.
LADDER_FLOOR_FACTOR = 10.0


def _spectral(comp) -> np.ndarray:
    v = np.asarray(comp.values)
    return v if comp.rep == "spectral" else np.fft.fftn(v) / v.size


class Checker:
    def __init__(self):
        self.failures: list[str] = []

    def finite(self, what: str, values) -> bool:
        arr = np.asarray(values, dtype=complex)
        if np.isfinite(arr).all():
            return True
        self.failures.append(f"{what}: non-finite value")
        return False

    def states(self, what: str, states) -> None:
        """Every state finite and solenoidal to roundoff."""
        for i, u in enumerate(states):
            spectra = [_spectral(c) for c in u.components]
            if not self.finite(f"{what}[{i}]", spectra):
                continue
            k = np.fft.fftfreq(u.grid.n, d=1.0 / u.grid.n)
            mesh = np.meshgrid(*([k] * u.grid.d), indexing="ij")
            div = np.abs(sum(m * s for m, s in zip(mesh, spectra))).max()
            scale = max(np.abs(s).max() for s in spectra)
            if scale > 0 and div / scale > DIVERGENCE_TOL:
                self.failures.append(f"{what}[{i}]: divergence {div / scale:.2e} "
                                     f"> {DIVERGENCE_TOL:.0e}")

    def diagnostics(self, what: str, diagnostics: dict) -> None:
        for key, series in diagnostics.items():
            self.finite(f"{what}.{key}", series)

    def energy_drift(self, what: str, energies) -> None:
        e = np.asarray(energies, dtype=float)
        if not self.finite(f"{what}.energy", e):
            return
        drift = float(np.abs(e - e[0]).max() / e[0])
        if drift > ENERGY_DRIFT_TOL:
            self.failures.append(
                f"{what}: energy drift {drift:.2e} > {ENERGY_DRIFT_TOL:.0e}")

    def jacobian(self, det) -> None:
        if not self.finite("jacobian", det):
            return
        dev = float(np.abs(np.asarray(det) - 1.0).max())
        if dev > JACOBIAN_TOL:
            self.failures.append(f"jacobian |det - 1| {dev:.2e} > {JACOBIAN_TOL:.0e}")

    def ladder_gap(self, gap: float, floor: float) -> None:
        if not (self.finite("ladder gap", gap) and self.finite("ladder floor", floor)):
            return
        if gap > LADDER_FLOOR_FACTOR * floor:
            self.failures.append(
                f"ladder gap {gap:.2e} > {LADDER_FLOOR_FACTOR:g} x floor {floor:.2e}")

    def ratios(self, what: str, values) -> None:
        """Inequality ratios: finite and positive."""
        vals = np.asarray(values, dtype=float)
        if self.finite(what, vals) and (vals <= 0).any():
            self.failures.append(f"{what}: non-positive ratio")

    def at_least(self, what: str, value: float, low: float) -> None:
        if self.finite(what, value) and not value >= low:
            self.failures.append(f"{what}: {value!r} < {low!r}")

    def close(self, what: str, value: float, oracle: float, rtol: float) -> None:
        if not (self.finite(what, value) and self.finite(f"{what} oracle", oracle)):
            return
        err = abs(value - oracle) / abs(oracle)
        if err > rtol:
            self.failures.append(f"{what}: relative error {err:.2e} > {rtol:.0e}")

    def bony_resum(self, pieces, f, g) -> None:
        """low_high + high_low + diagonal equals the dealiased product of f, g."""
        n, d = f.grid.n, f.grid.d
        k = np.fft.fftfreq(n, d=1.0 / n)
        keep = np.ones(f.grid.shape, bool)
        for m in np.meshgrid(*([k] * d), indexing="ij"):
            keep &= np.abs(m) <= n // 3
        fd, gd = (np.fft.ifftn(np.fft.fftn(np.asarray(h.values)) * keep) for h in (f, g))
        product = fd * gd
        total = sum(np.asarray(p.values) for p in
                    (pieces.low_high, pieces.high_low, pieces.diagonal))
        if not self.finite("bony pieces", total):
            return
        err = float(np.abs(total - product).max() / np.abs(product).max())
        if err > BONY_TOL:
            self.failures.append(f"bony re-sum error {err:.2e} > {BONY_TOL:.0e}")


def lp_quadrature(values, p: float, cell_volume: float) -> float:
    """Lebesgue norm by grid quadrature (oracle side of the pure-mode check)."""
    a = np.abs(np.asarray(values))
    if math.isinf(p):
        return float(a.max())
    return float((cell_volume * (a**p).sum()) ** (1.0 / p))
