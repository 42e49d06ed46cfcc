"""Seeded single-photon Monte Carlo of the mirror scan.

Each photon picks a slit at random, survives an acceptance test against the
fringe rate implied by the outcome hypothesis, lands uniformly on the
mirror, and is routed purely geometrically: the reflected ray either
crosses one detector aperture segment or misses both.  Mis-detection is
therefore an emergent geometric event, not a modelling input.

Routing is computed in closed form rather than ray by ray.  A flat mirror
reflects each slit as a mirror-image source, so the mirror points that send
slit s into detector d form one interval of the mirror; its length fraction
f_sd (``geometry.routing_fractions``), the slit probability 1/2 and the
fringe rate give the probability of each outcome, and one multinomial draw
per scan position yields all the counts.  The cost per position does not depend on the photon count.

Every scan position owns an independent random substream keyed by
(seed, position index): the stream of ``np.random.default_rng([seed, i])``,
so totals are reproducible regardless of the order positions are evaluated
in.  The PCG64 states of those streams are computed for the whole grid at
once, by NumPy's fixed ``SeedSequence`` hash and PCG64 seeding step run on
arrays, and one reused generator is set to each in turn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import design, geometry
from .geometry import Apparatus
from .wavemodel import (
    FringePattern,
    OutcomeHypothesis,
    fringe_spacing,
    fit_visibility,
    hypothesis_visibility,
    phase,
    screen_intensity,
    detector_intensity,
)


class ScanError(ValueError):
    pass


_MAX_PHOTONS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ScanConfig:
    x_positions: np.ndarray
    photons_per_position: int
    seed: int
    freeze_detectors: bool = False

    def __post_init__(self):
        xs = np.asarray(self.x_positions, dtype=float)
        object.__setattr__(self, "x_positions", xs)
        if xs.ndim != 1 or xs.size < 2:
            raise ScanError("need at least two scan positions")
        if np.any(np.diff(xs) <= 0):
            raise ScanError("scan positions must be strictly increasing")
        if self.photons_per_position < 1:
            raise ScanError("photons_per_position must be >= 1")
        if self.photons_per_position > _MAX_PHOTONS:
            raise ScanError(
                f"photons_per_position must be <= {_MAX_PHOTONS}, the largest "
                f"count numpy can draw, got {self.photons_per_position}"
            )
        if self.seed < 0:
            raise ScanError(f"seed must be >= 0, got {self.seed}")

    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.x_positions)))

    def check_sampling(self, app: Apparatus) -> None:
        """Grid must resolve the fringe period (a few samples per period)."""
        half_period = fringe_spacing(app) / 2.0
        if self.max_spacing() > half_period:
            raise ScanError(
                f"grid spacing {self.max_spacing():.3g} m exceeds half the "
                f"fringe period, {half_period:.3g} m"
            )


@dataclass(frozen=True)
class ScanSummary:
    """A simulated scan.  ``records`` holds one row per position, with the
    fields x, n (= n1 + n2), n1, n2, misdetected, i1_theory and i2_theory;
    ``verdicts`` is the feasibility ``design.judge`` found for the layouts
    simulated."""

    records: np.recarray
    v_total: float
    v_1: float
    v_2: float
    misdetection_rate: float
    hypothesis: OutcomeHypothesis
    verdicts: design.Verdicts
    seed: int = 0

    def positions(self) -> np.ndarray:
        return self.records.x

    def counts(self) -> np.ndarray:
        return self.records.n.astype(float)


# NumPy's SeedSequence hash (pool of four 32-bit words) and the 128-bit
# PCG64 multiplier; NEP 19 keeps the streams they define stable
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """SeedSequence's hash of one word per position: XOR with a running
    constant, advance the constant, multiply by it, fold the high half
    down.  The constants do not depend on the data, so they stay ints."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _pcg64_states(seed: int, n: int) -> tuple[list[int], list[int]]:
    """PCG64 (state, inc) of ``np.random.default_rng([seed, i])`` for each
    i < n (indices below 2**32, one entropy word each).

    SeedSequence mixes the entropy words (the seed's, then i) into a pool
    of four, each an array over i; ``generate_state(4, uint64)`` hashes the
    pool out to s and seq, and PCG64 seeding sets inc = 2 seq + 1 and
    state = (inc + s) M + inc mod 2**128.
    """
    seed = int(seed)
    # the seed's little-endian 32-bit words ([0] for 0), then the index
    entropy = [
        np.full(n, seed >> 32 * k & _MASK32, dtype=np.uint32)
        for k in range(max(1, (seed.bit_length() + 31) // 32))
    ]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    output = _hashmix(_INIT_B, _MULT_B)
    out = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # four little-endian uint64 words, as Python ints for 128-bit arithmetic
    s_hi, s_lo, seq_hi, seq_lo = (
        (out[2 * k] | out[2 * k + 1] << np.uint64(32)).astype(object) for k in range(4)
    )
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    return state.tolist(), inc.tolist()


def _position_streams(seed: int, n: int):
    """One generator per scan position i < n, in the state
    ``np.random.default_rng([seed, i])`` starts in.  The same generator is
    yielded each time, re-set, so draw from it before advancing."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in zip(*_pcg64_states(seed, n)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _acceptance_rate(app: Apparatus, x, v: float):
    """Fringe-modulated detection probability at the mirror, in [0, 1], at
    scan position(s) x."""
    return 0.5 * (1.0 + v * np.cos(phase(app, x)))


def simulate_scan(
    app: Apparatus, config: ScanConfig, hyp: OutcomeHypothesis
) -> ScanSummary:
    """Full photon-counting scan under an outcome hypothesis.

    Each photon takes either slit with probability 1/2 and survives the
    fringe rate with probability r, so at each position the outcome (slit
    s, detector d) has probability r/2 f_sd; one multinomial draw per
    position gives every count.  The design is judged once, its
    mis-detection verdict taken from the routing of the layouts simulated
    (re-aimed, or frozen at x = 0), and a failure is warned about.
    """
    config.check_sampling(app)
    xs = config.x_positions
    layouts = geometry.detector_layouts(app, 0.0 if config.freeze_detectors else xs)
    fractions = geometry.routing_fractions(app, xs, layouts)
    x_max = float(max(abs(xs[0]), abs(xs[-1])))
    verdicts, _ = design.judge(app, x_max, fractions)
    if not verdicts.feasible:
        warnings.warn("apparatus fails design validation; simulating anyway", stacklevel=2)

    v = hypothesis_visibility(hyp)
    p = (0.5 * _acceptance_rate(app, xs, v))[:, None] * fractions.reshape(-1, 4)
    # rounding can carry the sum of p a hair past 1 when the routed shares
    # cover the whole mirror; numpy rejects a negative last probability
    table = np.column_stack([p, np.maximum(1.0 - p.sum(axis=1), 0.0)])
    counts = np.array(
        [
            rng.multinomial(config.photons_per_position, row)
            for rng, row in zip(_position_streams(config.seed, len(table)), table)
        ]
    )
    c11, c12, c21, c22 = counts[:, :4].T
    n1, n2, mis = c11 + c21, c12 + c22, c12 + c21
    n = n1 + n2
    # detector 2 sees the mirror image of detector 1's phase, and cos is
    # even, so one evaluation serves both columns
    intensity = detector_intensity(app, xs, 1)
    records = np.rec.fromarrays(
        [xs, n, n1, n2, mis, intensity, intensity],
        names="x,n,n1,n2,misdetected,i1_theory,i2_theory",
    )
    total_n = int(n.sum())

    f_s = fringe_spacing(app)

    def fitted(values: np.ndarray) -> float:
        return fit_visibility(FringePattern(xs, values.astype(float)), f_s).visibility

    return ScanSummary(
        records=records,
        v_total=fitted(n),
        v_1=fitted(n1),
        v_2=fitted(n2),
        misdetection_rate=(int(mis.sum()) / total_n) if total_n else 0.0,
        hypothesis=hyp,
        verdicts=verdicts,
        seed=config.seed,
    )


def conventional_scan(app: Apparatus, config: ScanConfig) -> FringePattern:
    """Reference mirror-free experiment: one detector stepped along y = L.

    Each position's count is one binomial draw, with acceptance probability
    proportional to the plain two-beam screen intensity, from the same
    per-position substreams.
    """
    config.check_sampling(app)
    rates = screen_intensity(app, config.x_positions) / 4.0
    counts = [
        rng.binomial(config.photons_per_position, rate)
        for rng, rate in zip(_position_streams(config.seed, len(rates)), rates)
    ]
    return FringePattern(config.x_positions, np.array(counts, dtype=float))


def compare_distributions(
    reference: FringePattern, scan: ScanSummary
) -> tuple[float, bool]:
    """Pearson chi-squared per degree of freedom of N1+N2 against the
    reference counts, after normalizing to equal totals.  Compatible when
    chi2/dof < 2."""
    xs = scan.positions()
    if len(reference) != len(xs) or not np.allclose(reference.positions, xs):
        raise ScanError("reference and scan use different position grids")
    observed = scan.counts()
    ref = reference.intensities
    total_obs = observed.sum()
    total_ref = ref.sum()
    if total_ref == 0:
        raise ScanError("reference pattern has no counts")
    expected = ref * (total_obs / total_ref)
    mask = expected > 0
    chi2 = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(np.sum(mask)) - 1
    if dof <= 0:
        raise ScanError("not enough populated bins for a comparison")
    per_dof = chi2 / dof
    return per_dof, per_dof < 2.0
