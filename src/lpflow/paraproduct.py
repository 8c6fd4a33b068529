"""Frequency-interaction splitting of products, transport commutators, and
the ratio harnesses for the product/commutator inequalities.

Offsets follow the usual convention: the low-by-three partial sum multiplies
each block (low-high and high-low pieces), and block pairs within distance 3
form the diagonal remainder.  All pointwise products are formed from 2/3-rule
dealiased factors, so the three pieces sum to the dealiased product exactly;
the transport terms are the solver's advection kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bank import LPFilterBank, decompose
from .corpus import scalar_sample
from .errors import DegenerateInputError
from .euler import _RHS, leray_project
from .fields import (PHYSICAL, GridField, SpectrumSpec, VectorField, _freeze,
                     _from_half_spectrum, _require_divfree, _to_half_spectrum,
                     as_physical, as_spectral, dealias_field, random_divergence_free)
from .norms import (NormSpec, _gradient_halves, _half_norms, _ladder_norms,
                    field_norm, grad_sup_norm, sup_norm)
from .reports import ExperimentReport

_OFFSET = 3  # blocks closer than this are "comparable frequency"


@dataclass(frozen=True)
class BonyPieces:
    """Three-way split of a (dealiased) pointwise product.

    ``low_high``: first factor strictly lower frequency; ``high_low`` the
    mirror; ``diagonal``: comparable-frequency pairs.  Their sum reproduces
    the dealiased product of the inputs.
    """

    low_high: GridField
    high_low: GridField
    diagonal: GridField

    def total(self) -> GridField:
        return self.low_high + self.high_low + self.diagonal


def bony(bank: LPFilterBank, f: GridField, g: GridField) -> BonyPieces:
    """Split f·g by relative frequency (inputs dealiased before multiplying)."""
    if f.grid != g.grid:
        raise ValueError("factors live on different grids")
    fd = as_physical(dealias_field(f))
    gd = as_physical(dealias_field(g))
    fb, gb = ([p.values for p in (dec.low, *dec.blocks)]
              for dec in (decompose(bank, fd), decompose(bank, gd)))
    nb = len(fb)  # list index i holds block i-1 (index 0 is the low piece)
    fcum = np.cumsum(np.stack(fb), axis=0)  # fcum[i] = sum of list indices <= i

    low_high = np.zeros_like(fb[0])
    high_low = np.zeros_like(fb[0])
    for i in range(_OFFSET + 1, nb):  # block k = i-1 >= OFFSET
        low_high = low_high + fcum[i - _OFFSET - 1] * gb[i]
    gcum = np.cumsum(np.stack(gb), axis=0)
    for i in range(_OFFSET + 1, nb):
        high_low = high_low + gcum[i - _OFFSET - 1] * fb[i]
    diagonal = np.zeros_like(fb[0])
    for i in range(nb):
        for k in range(max(0, i - _OFFSET), min(nb, i + _OFFSET + 1)):
            diagonal = diagonal + fb[i] * gb[k]
    mk = lambda a: GridField(f.grid, _freeze(a), PHYSICAL)
    return BonyPieces(mk(low_high), mk(high_low), mk(diagonal))


# ---------------------------------------------------------------------------
# transport commutator


def _dealiased_factors(f: VectorField, g: GridField, who: str) -> tuple[VectorField, GridField]:
    """The 2/3-rule dealiased f (physical samples) and g (spectrum) of a commutator."""
    _require_divfree(f, who)
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    fd = VectorField(tuple(as_physical(dealias_field(c)) for c in f.components))
    return fd, dealias_field(as_spectral(g))


def _commutator_blocks(bank: LPFilterBank, fd: VectorField, gs: GridField, js):
    """Real samples of f.grad(block_j g) - block_j(f.grad g), j in ``js``, one by one.

    ``fd`` and ``gs`` come from :func:`_dealiased_factors`; the advection is
    the solver's, which takes its factors on the 2/3-rule modes, as these are.
    Each block makes two real inverse calls: the d gradient entries of block_j g
    batched, then block_j of the inner advection f.grad g, which is formed once
    for every j.  The top block, psi_{j_max} = 0, is zeros and makes none.
    """
    d = gs.grid.d
    rhs, fv = _RHS(gs.grid), [c.values for c in fd.components]
    half = gs.values
    inner = _to_half_spectrum(rhs.advection([half], fv)[0], d)
    for j in js:
        psi = bank.psi[j]
        yield (np.zeros(gs.grid.shape) if j == bank.j_max else
               rhs.advection([half * psi], fv)[0] - _from_half_spectrum(inner * psi, d))


def commutator(bank: LPFilterBank, f: VectorField, g: GridField, j: int) -> GridField:
    """f.grad(block_j g) - block_j(f.grad g) with dealiased products."""
    if not 0 <= j <= bank.j_max:
        raise ValueError(f"block index {j} outside [0, {bank.j_max}]")
    blocks = _commutator_blocks(bank, *_dealiased_factors(f, g, "commutator"), (j,))
    return GridField(g.grid, next(blocks), PHYSICAL)


@dataclass(frozen=True)
class CommutatorSequence:
    """All commutator blocks c_j, j = 0..j_max, for one (f, g) pair."""

    blocks: tuple[GridField, ...]

    @property
    def j_max(self) -> int:
        return len(self.blocks) - 1


def commutator_sequence(bank: LPFilterBank, f: VectorField, g: GridField) -> CommutatorSequence:
    """Every :func:`commutator` block, j = 0..j_max."""
    fd, gs = _dealiased_factors(f, g, "commutator")
    return CommutatorSequence(tuple(GridField(g.grid, b, PHYSICAL) for b in
                                    _commutator_blocks(bank, fd, gs, range(bank.j_max + 1))))


def _sequence_tl_norm(blocks, spec: NormSpec, cell_volume: float, top: int) -> float:
    """|| (sum_j (2^{js}|c_j|)^q)^{1/q} ||_{L^p} over the block samples ``blocks``,
    c_0 .. c_top."""
    spec = replace(spec, homogeneous=True, flavor="tl")
    return _ladder_norms(map(np.abs, blocks), (spec,), cell_volume, False, top)[0]


def _jacobian_tl_norm(bank: LPFilterBank, u: VectorField, spec: NormSpec) -> float:
    """Quadrature aggregate of the dyadic norms of every du_l/dx_i."""
    return _half_norms(bank, (h for c in u.components for h in _gradient_halves(c)), (spec,))[0]


# ---------------------------------------------------------------------------
# inequality harnesses (each returns max-over-corpus-free single-pair ratio)


def verify_moser(bank: LPFilterBank, f: GridField, g: GridField, spec: NormSpec) -> float:
    """||fg|| / (||f||_inf ||g|| + ||g||_inf ||f||) in the dyadic norm ``spec``."""
    if spec.s <= 0:
        raise ValueError(f"the product estimate needs s > 0, got s={spec.s}")
    fd = as_physical(dealias_field(f))
    gd = as_physical(dealias_field(g))
    if np.abs(fd.values).max() == 0.0 or np.abs(gd.values).max() == 0.0:
        raise DegenerateInputError("zero factor in product-estimate ratio")
    prod = GridField(f.grid, _freeze(fd.values * gd.values), PHYSICAL)
    lhs = field_norm(bank, prod, spec)
    rhs = (sup_norm(fd) * field_norm(bank, gd, spec)
           + sup_norm(gd) * field_norm(bank, fd, spec))
    if rhs == 0.0:
        raise DegenerateInputError("degenerate right-hand side in product estimate")
    return lhs / rhs


_TRANSPORT_FORMS = ("prod2", "prod3")


def verify_moser_transport(bank: LPFilterBank, u: VectorField, v: GridField,
                           spec: NormSpec, form: str = "prod2") -> float:
    """||u.grad v|| over the chosen advective right-hand side.

    ``prod2``: ||u||_inf ||grad v|| + ||grad v||_inf ||u||.
    ``prod3``: ||u||_inf ||grad v|| + ||v||_inf ||grad u||.
    """
    if form not in _TRANSPORT_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {_TRANSPORT_FORMS}")
    if spec.s <= -1:
        raise ValueError(f"the transport estimate needs s > -1, got s={spec.s}")
    ud, gs = _dealiased_factors(u, v, "verify_moser_transport")
    adv = _RHS(v.grid).advection([gs.values], [c.values for c in ud.components])[0]
    adv = GridField(v.grid, adv, PHYSICAL)
    lhs = field_norm(bank, adv, spec)

    gv_norm = _half_norms(bank, _gradient_halves(gs), (spec,))[0]
    u_sup = sup_norm(ud)
    if form == "prod2":
        rhs = u_sup * gv_norm + grad_sup_norm(gs) * field_norm(bank, ud, spec)
    else:
        rhs = u_sup * gv_norm + sup_norm(gs) * _jacobian_tl_norm(bank, ud, spec)
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        raise DegenerateInputError("degenerate right-hand side in transport estimate")
    return lhs / rhs


_COMM_FORMS = ("esti1", "esti2")


def verify_commutator_estimate(bank: LPFilterBank, f: VectorField, g: GridField,
                               spec: NormSpec, form: str = "esti1") -> float:
    """Commutator-ladder norm over the chosen right-hand side.

    ``esti1``: ||grad f||_inf ||g|| + ||grad g||_inf ||f||.
    ``esti2``: ||grad f||_inf ||g|| + ||g||_inf ||grad f||.
    """
    if form not in _COMM_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {_COMM_FORMS}")
    if form == "esti1" and spec.s <= 0:
        raise ValueError(f"form esti1 needs s > 0, got s={spec.s}")
    if form == "esti2" and spec.s <= -1:
        raise ValueError(f"form esti2 needs s > -1, got s={spec.s}")
    fd, gs = _dealiased_factors(f, g, "verify_commutator_estimate")
    lhs = _sequence_tl_norm(_commutator_blocks(bank, fd, gs, range(bank.j_max + 1)),
                            spec, g.grid.cell_volume, bank.j_max)
    if lhs == 0.0:
        return 0.0
    gf_sup = grad_sup_norm(fd)
    if form == "esti1":
        rhs = gf_sup * field_norm(bank, gs, spec) + grad_sup_norm(gs) * field_norm(bank, fd, spec)
    else:
        rhs = gf_sup * field_norm(bank, gs, spec) + sup_norm(gs) * _jacobian_tl_norm(bank, fd, spec)
    if rhs == 0.0:
        raise DegenerateInputError("degenerate right-hand side in commutator estimate")
    return lhs / rhs


# ---------------------------------------------------------------------------
# scan over the regime where the naive two-norm commutator bound breaks down


_FAMILIES = ("lacunary", "modulated-bump", "random")


def _lacunary_pair(grid, s: float, top: int):
    """Geometric sums of single modes up to frequency 2^top (exactly div-free u)."""
    x = grid.meshes()
    u1 = sum(2.0 ** (-m * s) * np.cos(2**m * x[1] + 0.7 * m) for m in range(1, top + 1))
    u2 = sum(2.0 ** (-m * s) * np.sin(2**m * x[0] + 0.3 * m) for m in range(1, top + 1))
    comps = [GridField(grid, u1, PHYSICAL), GridField(grid, u2, PHYSICAL)]
    for a in range(2, grid.d):
        comps.append(GridField(grid, np.zeros(grid.shape), PHYSICAL))
    u = VectorField(tuple(comps), div_free=True)
    v = sum(2.0 ** (-m * s) * np.cos(2**m * x[0] + 1.1 * m) for m in range(1, top + 1))
    return u, GridField(grid, v, PHYSICAL)


def _modulated_pair(grid, s: float, top: int):
    """A smooth low-frequency envelope carried to frequency 2^top."""
    x = grid.meshes()
    env = np.exp(np.cos(x[0]) + 0.5 * np.sin(x[1]))
    carrier = np.cos(2**top * x[0])
    v = GridField(grid, 2.0 ** (-top * s) * env * carrier, PHYSICAL)
    u1 = 2.0 ** (-top * s) * env * np.cos(2**top * x[1])
    comps = [GridField(grid, u1, PHYSICAL)] + [
        GridField(grid, np.zeros(grid.shape), PHYSICAL) for _ in range(grid.d - 1)]
    # projection keeps the scan honest
    return leray_project(VectorField(tuple(comps))), v


def _random_pair(grid, s: float, top: int):
    lo = max(1, 2 ** (top - 1))
    hi = 2**top
    u = random_divergence_free(grid, SpectrumSpec(s, (lo, hi), seed=900 + top))
    g = scalar_sample(grid, 950 + top, decay=s, band=(lo, hi))
    return u, g


def counterexample_scan(bank: LPFilterBank, family: str, s: float, p: float,
                        q: float, scale_list) -> ExperimentReport:
    """Ratio profile of the two-norm commutator bound across frequency scales.

    For each scale N the family supplies a pair (u, v) active up to frequency
    2^N; the row records LHS / (||u||_F ||v||_F).  The profile is diagnostic
    output: no growth assertion is made here.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    scales = [int(N) for N in scale_list]
    grid = bank.grid
    if not scales or any(N < 1 for N in scales):
        raise ValueError("scale_list must contain levels >= 1")
    if 2 ** max(scales) > grid.n // 3:
        raise ValueError(f"scale {max(scales)} puts content at 2^{max(scales)}, above the "
                         f"2/3-rule band n//3 = {grid.n // 3} the dealiased factors keep")
    spec = NormSpec(s, p, q, homogeneous=True)
    builders = {"lacunary": _lacunary_pair, "modulated-bump": _modulated_pair,
                "random": _random_pair}
    ratios = []
    for N in scales:
        u, v = builders[family](grid, s, N)
        fd, gs = _dealiased_factors(u, v, "commutator")
        lhs = _sequence_tl_norm(_commutator_blocks(bank, fd, gs, range(bank.j_max + 1)),
                                spec, grid.cell_volume, bank.j_max)
        rhs = field_norm(bank, u, spec) * field_norm(bank, v, spec)
        if rhs == 0.0:
            raise DegenerateInputError(f"degenerate pair at scale {N}")
        ratios.append(lhs / rhs)
    return ExperimentReport(
        estimate_id="two_norm_commutator_scan",
        s=s, p=p, q=q, d=grid.d, n=grid.n,
        seeds=tuple(scales), ratios=tuple(ratios),
        meta={"family": family, "rows_are": "frequency scales N (active band up to 2^N)"},
    )
