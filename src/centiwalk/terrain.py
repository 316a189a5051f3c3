"""Rugose block-terrain generation and height-difference statistics.

A terrain is a grid of square blocks whose heights, along the travel
direction, follow an independent random walk per column with Gaussian
increments of standard deviation sigma = 15 * rugosity (cm).  The same
increment distribution backs the analytic loss models through
HeightDeltaModel, either in closed form (gaussian) or as an empirical
sample (e.g. outdoor terrain measurements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

SIGMA_PER_RUGOSITY = 15.0  # cm of height-difference std per unit rugosity

_FILE_FORMAT_VERSION = 1


def sigma_from_rugosity(r_g: float) -> float:
    """Height-difference standard deviation in cm for a rugosity level."""
    return SIGMA_PER_RUGOSITY * r_g


@dataclass
class TerrainGrid:
    """Rectangular grid of block heights; rows advance along the travel
    direction."""

    block_size: float
    heights: np.ndarray
    r_g: float
    seed: int

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=float)
        if self.heights.ndim != 2:
            raise ValueError("heights must be a 2-D array")
        if not 0.0 < self.block_size < math.inf:    # NaN fails it too
            raise ValueError(f"block_size must be finite and > 0, got "
                             f"{self.block_size:g}")

    def longitudinal_deltas(self) -> np.ndarray:
        """All successive height differences along the travel direction."""
        return np.diff(self.heights, axis=0).ravel()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# terrain v{_FILE_FORMAT_VERSION}\n")
            fh.write(f"# block_size={self.block_size:.6f}\n")
            fh.write(f"# r_g={self.r_g:.6f}\n")
            fh.write(f"# seed={self.seed}\n")
            fh.write("# rows={} cols={}\n".format(*self.heights.shape))
            for row in self.heights:
                fh.write(",".join(f"{h:.6f}" for h in row) + "\n")

    @classmethod
    def load(cls, path) -> "TerrainGrid":
        meta, rows = {}, []
        with open(path) as fh:
            if not fh.readline().startswith("# terrain v"):
                raise ValueError(f"not a terrain file: {path}")
            for line in map(str.strip, fh):
                if line.startswith("#"):
                    meta.update(part.split("=", 1) for part in line[1:].split()
                                if "=" in part)
                elif line:
                    rows.append(line)
        # one float() per value in file order: a bad value fails first
        values = np.fromiter(map(float, ",".join(rows).split(",") if rows
                                 else ()), float)
        missing = [k for k in ("block_size", "r_g") if k not in meta]
        if missing:
            raise ValueError(f"missing header {', '.join(missing)}")
        if len({row.count(",") for row in rows}) > 1:
            raise ValueError("rows differ in length")
        heights = values.reshape(len(rows), -1) if rows else values
        if not np.isfinite(heights).all():
            raise ValueError("heights must be finite")
        # a file without the rows= cols= header is taken as it is
        for key, n in zip(("rows", "cols"), heights.shape):
            if key in meta and int(meta[key]) != n:
                raise ValueError(f"header says {key}={meta[key]}, but the "
                                 f"file holds {n}")
        return cls(block_size=float(meta["block_size"]), heights=heights,
                   r_g=float(meta["r_g"]), seed=int(meta.get("seed", 0)))


def generate_terrain(r_g: float, rows: int, cols: int, seed: int = 0,
                     block_size: float = 10.0) -> TerrainGrid:
    """Generate a block terrain of the requested rugosity and block size.

    Each column is an independent random walk along the travel direction
    with N(0, 15*r_g) increments; deterministic for a fixed seed.
    """
    heights = generate_terrains([r_g], rows, cols, [seed])[0, 0]
    return TerrainGrid(block_size, heights, r_g, seed)


def generate_terrains(levels: Sequence[float], rows: int, cols: int,
                      seeds: Sequence[int]) -> np.ndarray:
    """generate_terrain's heights at every rugosity of levels from every
    seed, shape (levels, seeds, rows, cols): each seed's standard normals
    are drawn once and scaled per level, as 0 + sigma * z, which is how
    Generator.normal(0, sigma) makes the same floats.  ValueError when a
    level's heights overflow."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    # with no level, no seed's normals are drawn
    z = np.empty((len(seeds) if levels else 0, rows - 1, cols))
    for z_seed, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=z_seed)
    heights = np.zeros((len(levels), len(seeds), rows, cols))
    with np.errstate(over="ignore", invalid="ignore"):
        for level, r_g in zip(heights, levels):
            if not math.isfinite(r_g) or r_g < 0.0:
                raise ValueError(f"r_g must be finite and >= 0, got {r_g}")
            # 0 + turns the -0.0 of a zero sigma into 0.0, as normal() does
            np.cumsum(0.0 + sigma_from_rugosity(r_g) * z, axis=1,
                      out=level[:, 1:])
            if not np.isfinite(level).all():
                raise ValueError(f"r_g={r_g:g} overflows the terrain heights")
    return heights


@dataclass
class HeightDeltaModel:
    """Distribution of the block height difference dH = H(next) - H(current).

    kind is "gaussian" (zero-mean, std sigma) or "empirical" (a sample of
    observed differences, e.g. from outdoor terrain).  p1 is Pr(dH <= 0).
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    samples: Optional[np.ndarray] = None
    p1: float = field(init=False)

    def __post_init__(self):
        if self.kind == "gaussian":
            if not self.sigma >= 0.0:      # NaN fails it too
                raise ValueError(f"sigma must be >= 0, got {self.sigma}")
            self.p1 = 1.0 if self.sigma == 0.0 else 0.5
        elif self.kind == "empirical":
            if self.samples is None or len(self.samples) == 0:
                raise ValueError("empirical model requires a non-empty sample")
            self.samples = np.asarray(self.samples, dtype=float)
            if np.isnan(self.samples).any():
                raise ValueError("samples must not be NaN")
            self.p1 = float(np.mean(self.samples <= 0.0))
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @classmethod
    def from_rugosity(cls, r_g: float) -> "HeightDeltaModel":
        return cls(kind="gaussian", sigma=sigma_from_rugosity(r_g))

    @classmethod
    def from_samples(cls, samples) -> "HeightDeltaModel":
        return cls(kind="empirical", sigma=0.0, samples=np.asarray(samples))


def tail_probability(model: HeightDeltaModel, thresholds,
                     conditioned: str) -> np.ndarray:
    """Conditional tail probabilities of the height-difference magnitude,
    one per threshold, in an array of the thresholds' shape.

    conditioned = "dh_nonpositive": Pr(|dH| > t | dH <= 0), the
    terrain-drop case; "dh_positive": Pr(dH > t | dH > 0), the
    terrain-rise case.  Closed form for the gaussian kind, an empirical
    fraction otherwise.  t <= 0 yields 1 by convention (every conditioning
    event exceeds it), except at sigma 0, where dH = 0 exceeds only t < 0.
    """
    if conditioned not in ("dh_nonpositive", "dh_positive"):
        raise ValueError(f"unknown conditioning {conditioned!r}")
    t = np.asarray(thresholds, dtype=float)
    if model.kind == "gaussian":
        if model.sigma == 0.0:
            # degenerate: dH is identically 0, which exceeds t < 0 only
            return np.where(t < 0.0, 1.0, 0.0)
        # both conditional tails reduce to 2 Phi(-t / sigma) by symmetry;
        # math.erf over one flat list, as importing scipy.special would
        # double the import time
        with np.errstate(over="ignore"):
            # a subnormal sigma overflows -t / sigma to -inf: a tail of 0
            z = -t / model.sigma / math.sqrt(2.0)
        erf = np.fromiter(map(math.erf, z.ravel().tolist()), float, z.size)
        tail = 2.0 * (0.5 * (1.0 + erf.reshape(t.shape)))
        return np.where(t <= 0.0, 1.0, tail)
    s = model.samples
    mags = np.sort(-s[s <= 0.0] if conditioned == "dh_nonpositive"
                   else s[s > 0.0])
    tail = ((len(mags) - np.searchsorted(mags, t, side="right")) / len(mags)
            if len(mags) else 0.0)
    return np.where(t <= 0.0, 1.0, tail)
