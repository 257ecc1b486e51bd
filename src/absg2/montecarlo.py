"""Random-phase Monte Carlo estimate of the coherence curve.

Each realization draws one uniform phase per slot of the pairing's phase
model, superposes the alternative amplitudes, and contributes |sum|^2; the
curve is the mean over realizations.  This estimator knows nothing about the
closed forms, which is what makes the comparison between the two a real test.

Kernel: a term's phase is the sum of two slot phases plus pi/2 per
beam-splitter reflection, and terms that differ only in slot order share
that sum.  A chunk therefore evaluates one phase sum per group of such
terms, gets its cosine and sine from one vectorized tangent of the half
angle, and mixes them into the two partial amplitude sums with one small
real matrix that carries every term's weight and reflection factor.  There
is no complex arithmetic and no per-term exponential.  Each thread keeps one
workspace for the whole call and every stage of a chunk writes into it, so
chunks allocate no arrays of their own; the workspace is freed when the
call returns.

Frame convention (fixed so that runs are reproducible): the photon reaching
detector 1 is evaluated at t1 = tau and the one reaching detector 2 at
t2 = 0, with source frequencies (nu_a, nu_b) = (delta_nu, 0).  Only the
frequency difference and tau survive the ensemble average, so the convention
does not affect the curve, just the per-realization noise.

Determinism: realizations are split into fixed-size chunks; chunk i draws
from a counter-based generator keyed by (seed, i).  Each chunk reports the
mean of its (s0, c, s) triples and their centred second-moment sum, and
the chunks are merged in chunk order with the pairwise update of Chan,
Golub and LeVeque.  The result is therefore bit-identical for a given
(seed, n_realizations, parallel_chunk) no matter how many threads ran the
chunks.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .alternatives import enumerate_alternatives, independent_phase_slots, phase_model
from .core import Alternative, DomainError, ExperimentConfig, G2Curve, VisibilityResult
from .probability import path_probabilities

# How far a fitted coefficient may sit outside its physical range before we
# call it a convention bug instead of sampling noise.
_NOISE_SIGMAS = 5.0
_FIT_ATOL = 1e-9


@dataclass(frozen=True)
class McSettings:
    """Simulation size, seeding and execution layout.

    parallel_chunk is the number of realizations per deterministic work
    unit; it is part of the result's identity, unlike threads, which only
    changes who computes the chunks.
    """

    n_realizations: int = 100_000
    seed: int = 0
    parallel_chunk: int = 16_384
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n_realizations < 2:  # one realization has no sample variance
            raise DomainError("n_realizations must be >= 2")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")
        if self.parallel_chunk < 1:
            raise DomainError("parallel_chunk must be >= 1")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


def _term_arrays(alts: list[Alternative], n_slots: int):
    """Real-arithmetic form of the term list: (half_sums, mix).

    A term's phase is phi_i + phi_j + k pi/2 for its slot pair (i, j) and k
    beam-splitter reflections.  Terms whose slot pairs agree up to order
    share the random part psi = phi_i + phi_j, so the terms are grouped by
    unordered slot pair.  half_sums (n_slots x G) holds 0.5 per slot
    occurrence, so phases @ half_sums is psi / 2 for every group.  mix
    (2G x 4) carries each term's weight times i**k: row g multiplies
    cos(psi_g) and row G + g sin(psi_g), and the columns are Re U, Im U,
    Re W, Im W, where U sums the terms whose detector-1 photon comes from
    source a and W the others.
    """
    groups = sorted({tuple(sorted(a.phase_slots)) for a in alts})
    n_groups = len(groups)
    half_sums = np.zeros((n_slots, n_groups))
    for g, (i, j) in enumerate(groups):  # i == j (a laser's shared slot) gives 1.0
        half_sums[i, g] += 0.5
        half_sums[j, g] += 0.5
    mix = np.zeros((2 * n_groups, 4))
    for a in alts:
        g = groups.index(tuple(sorted(a.phase_slots)))
        col = 0 if a.d1_source == "a" else 2
        amp = a.weight * 1j**a.bs_phase_count  # amp e^{i psi}, split into cos and sin parts
        mix[g, col:col + 2] += amp.real, amp.imag
        mix[n_groups + g, col:col + 2] += -amp.imag, amp.real
    return half_sums, mix


def _cos_sin(half_psi, out):
    """cos psi stacked over sin psi into out (2G, n), from half_psi = psi / 2
    of shape (G, n).

    One tangent t = tan(psi / 2) gives both: cos = (1 - t^2) / (1 + t^2) and
    sin = 2t / (1 + t^2).  numpy (2.4, x86-64) has a SIMD loop for float64
    np.tan but not for np.cos or np.sin, so this is several times cheaper
    than either.  For psi in [0, 4 pi) t is finite, also next to its poles
    at psi = pi and 3 pi, and both results stay within about one ulp of
    np.cos and np.sin.  half_psi is overwritten: it holds t, then 1 + t^2.
    """
    n_groups = len(half_psi)
    cos, sin = out[:n_groups], out[n_groups:]
    t = np.tan(half_psi, out=half_psi)
    np.multiply(t, t, out=cos)
    np.add(t, t, out=sin)
    denom = np.add(cos, 1.0, out=half_psi)  # t is not needed after sin
    np.subtract(1.0, cos, out=cos)
    cos /= denom
    sin /= denom
    return out


class _Workspace:
    """The arrays one chunk of n realizations works in, reused chunk after
    chunk by one thread: phases (n, n_slots), psi / 2 (G, n), cos and sin
    (2G, n), (Re U, Im U, Re W, Im W) (4, n), the triple (s0, c, s) (3, n)
    and one scratch row (n,).

    Each stage of :func:`_chunk_moments` reads only what the stage before it
    wrote, so the stages alternate between two buffers: a holds the phases,
    then cos and sin, then the triple and the scratch row; b holds psi / 2
    (and 1 + t^2 in :func:`_cos_sin`), then U and W.
    """

    def __init__(self, n: int, n_slots: int, n_groups: int):
        a = np.empty(n * max(n_slots, 2 * n_groups, 4))
        b = np.empty(n * max(n_groups, 4))
        self.phases = a[:n * n_slots].reshape(n, n_slots)
        self.trig = a[:2 * n_groups * n].reshape(2 * n_groups, n)
        self.q = a[:3 * n].reshape(3, n)
        self.scratch = a[3 * n:4 * n]
        self.half_psi = b[:n_groups * n].reshape(n_groups, n)
        self.uw = b[:4 * n].reshape(4, n)


def _chunk_moments(seed, chunk_index, ws, half_sums, mix):
    """(mean, M2) of q = (s0, c, s) over one chunk of len(ws.phases)
    realizations, M2 being the 3x3 sum of (q - mean)(q - mean)^T.

    Because the only tau dependence is the beat factor on the photon at
    detector 1, a realization's curve is s0 + c cos(theta) + s sin(theta)
    with theta = 2 pi delta_nu tau, where s0, c, s come from the two partial
    amplitude sums U (detector-1 photon from source a) and W (from source b).
    The first and second moments of the triple reproduce the per-tau mean
    and variance exactly.  M2 is summed after q is centred on the chunk
    mean, so it does not cancel like E[q q^T] - E[q] E[q]^T, and its
    diagonal is a sum of squares, never negative.

    The amplitudes are evaluated in real arithmetic with one phase per group
    of terms that share a phase sum psi (see :func:`_term_arrays`), not one
    complex exponential per term: psi / 2 = phases @ half_sums is exact up
    to one rounding, :func:`_cos_sin` turns it into cos psi and sin psi
    through one tangent, and (Re U, Im U, Re W, Im W) = [cos psi, sin psi]
    @ mix.

    Every step writes into the workspace ws (see :class:`_Workspace`), so a
    chunk allocates nothing the size of the chunk.  The draw is rng.random
    scaled by 2 pi, which is what rng.uniform(0, 2 pi) computes, bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    phases = rng.random(out=ws.phases)
    phases *= 2.0 * math.pi
    np.matmul(half_sums.T, phases.T, out=ws.half_psi)
    trig = _cos_sin(ws.half_psi, ws.trig)
    ur, ui, wr, wi = np.matmul(mix.T, trig, out=ws.uw)
    q, tmp = ws.q, ws.scratch
    s0, c, s = q
    np.multiply(ur, ur, out=s0)
    for v in (ui, wr, wi):
        s0 += np.multiply(v, v, out=tmp)
    np.multiply(ur, wr, out=c)
    c += np.multiply(ui, wi, out=tmp)
    c *= 2.0
    np.multiply(ur, wi, out=s)
    s -= np.multiply(ui, wr, out=tmp)
    s *= 2.0
    mean = q.sum(axis=1) / len(s0)
    q -= mean[:, np.newaxis]
    m2 = np.empty((3, 3))
    for i in range(3):
        for j in range(i + 1):
            m2[i, j] = m2[j, i] = np.multiply(q[i], q[j], out=tmp).sum()
    return mean, m2


def g2_monte_carlo(
    cfg: ExperimentConfig,
    settings: McSettings = McSettings(),
    *,
    independent_phases: bool = False,
) -> G2Curve:
    """Sampled curve with per-point standard errors.

    independent_phases=True runs the negative control from
    :func:`absg2.alternatives.independent_phase_slots`.
    """
    p = path_probabilities(cfg.intensity_ratio, cfg.bs)
    alts = enumerate_alternatives(cfg.pair, p)
    n_slots = phase_model(cfg.pair).n_slots
    if independent_phases:
        alts, n_slots = independent_phase_slots(alts)
    half_sums, mix = _term_arrays(alts, n_slots)
    n_groups = half_sums.shape[1]

    n_total = settings.n_realizations
    chunk = settings.parallel_chunk
    counts = [min(chunk, n_total - start) for start in range(0, n_total, chunk)]
    local = threading.local()  # one workspace per thread, freed with this call

    def run(i: int):
        if counts[i] < counts[0]:  # the shorter last chunk gets arrays of its own
            ws = _Workspace(counts[i], n_slots, n_groups)
        elif hasattr(local, "ws"):
            ws = local.ws
        else:
            ws = local.ws = _Workspace(counts[0], n_slots, n_groups)
        return _chunk_moments(settings.seed, i, ws, half_sums, mix)

    if settings.threads > 1 and len(counts) > 1:
        with ThreadPoolExecutor(max_workers=settings.threads) as pool:
            parts = list(pool.map(run, range(len(counts))))
    else:
        parts = [run(i) for i in range(len(counts))]

    # Chan, Golub and LeVeque's pairwise update, in fixed chunk order so the
    # result does not depend on the thread count.
    n_seen, mean, m2 = 0, np.zeros(3), np.zeros((3, 3))
    for n_chunk, (chunk_mean, chunk_m2) in zip(counts, parts):
        delta = chunk_mean - mean
        n_seen += n_chunk
        mean += delta * (n_chunk / n_seen)
        m2 += chunk_m2 + np.outer(delta, delta) * ((n_seen - n_chunk) * n_chunk / n_seen)
    beat_cov = m2 / (n_total * (n_total - 1.0))  # covariance of the component means

    theta = 2.0 * math.pi * cfg.delta_nu * np.asarray(cfg.tau_grid)
    components = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
    stderr = np.sqrt(np.maximum(((beat_cov @ components) * components).sum(axis=0), 0.0))
    g2 = mean[0] + mean[1] * components[1] + mean[2] * components[2]

    if g2.min() < -1e-9:
        raise DomainError("negative curve mean beyond roundoff; amplitude model is broken")
    g2 = np.maximum(g2, 0.0)  # clip -1e-17 style roundoff at exact dips

    return G2Curve(
        tau=cfg.tau_grid,
        g2=tuple(float(v) for v in g2),
        n_realizations=n_total,
        seed=settings.seed,
        stderr=tuple(float(v) for v in stderr),
        beat_cov=tuple(tuple(float(v) for v in row) for row in beat_cov),
        parallel_chunk=chunk,
    )


def fit_cosine(curve: G2Curve, delta_nu: float) -> tuple[float, float, np.ndarray]:
    """Least-squares fit of level - amplitude*cos(2 pi delta_nu tau).

    Returns (level, amplitude, covariance).  The 2x2 parameter covariance is
    propagated from the curve's beat-component covariance when present (the
    fit is a fixed linear map of the curve, so this is exact).  Analytic
    curves get a zero matrix.
    """
    if delta_nu <= 0.0:
        raise DomainError("degenerate curve: delta_nu must be > 0")
    tau = np.asarray(curve.tau)
    if (tau[-1] - tau[0]) * delta_nu < 1.0 - 1e-9:
        raise DomainError("degenerate curve: tau grid spans less than one beat period")
    if len(tau) < 3:
        raise DomainError("degenerate curve: need at least 3 points")
    theta = 2.0 * math.pi * delta_nu * tau
    design = np.column_stack([np.ones_like(theta), -np.cos(theta)])
    values = np.asarray(curve.g2)
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 2:
        raise DomainError("degenerate curve: design is rank deficient")
    level, amplitude = float(coef[0]), float(coef[1])

    cov = np.zeros((2, 2))
    solver = np.linalg.inv(design.T @ design) @ design.T  # params = solver @ curve
    if curve.beat_cov is not None:
        components = np.column_stack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
        transfer = solver @ components
        cov = transfer @ np.asarray(curve.beat_cov) @ transfer.T
    return level, amplitude, cov


def visibility_from_curve(curve: G2Curve, delta_nu: float) -> VisibilityResult:
    """Visibility of a sampled curve.

    Fits the known sinusoid shape and returns v = amplitude/level with
    extrema level +- amplitude; raw min/max of a noisy curve would bias the
    contrast upward.

    A fitted amplitude outside [0, level] is pulled back to the boundary
    when compatible with sampling noise, and rejected as a sign/convention
    bug when it is not.
    """
    level, amplitude, cov = fit_cosine(curve, delta_nu)
    se_level = math.sqrt(max(cov[0, 0], 0.0))
    se_amp = math.sqrt(max(cov[1, 1], 0.0))
    if level <= 0.0:
        raise DomainError("fitted curve level must be > 0")

    scale = max(abs(level), 1.0)
    if amplitude < 0.0:
        if amplitude < -(_NOISE_SIGMAS * se_amp + _FIT_ATOL * scale):
            raise DomainError("fitted oscillation amplitude is negative beyond noise")
        amplitude = 0.0
    if amplitude > level:
        gap_noise = _NOISE_SIGMAS * math.hypot(se_amp, se_level) + _FIT_ATOL * scale
        if amplitude - level > gap_noise:
            raise DomainError("fitted oscillation amplitude exceeds curve level beyond noise")
        amplitude = level

    v = amplitude / level
    if curve.beat_cov is None:
        v_stderr = None
    else:
        grad = np.array([-v / level, 1.0 / level])  # level**2 would underflow
        v_stderr = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    return VisibilityResult(
        v=v,
        g2_max=level + amplitude,
        g2_min=level - amplitude,
        v_stderr=v_stderr,
    )
