"""Teaching-learning-based optimization over box-bounded real vectors.

Two phases per teaching cycle. Teacher phase moves every learner toward the
best individual relative to the scaled population mean; learner phase moves
each learner toward (or away from) a random partner. Each phase is one
evaluate-and-accept step: the moved learners are clipped to the box,
evaluated (in one call where the objective has a ``batch``), and each move
is kept where it improves its learner.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

# Ordered penalty family for candidates whose objective cannot be represented
# in float64. Values at or above this floor are treated as failures by report
# producers.
DIVERGENCE_SENTINEL = 1e290


def whole(value, name: str) -> int:
    """``value`` as an int where it is a whole number, an int or an integral
    float (the rule the CLI reads counts by); a ValueError otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def finite(value, name: str) -> float:
    """``value`` as a float where it is an int within float range or a finite
    float (the rule the CLI reads other numbers by); a ValueError otherwise."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:      # False for NaN and +-inf
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def divergence_penalty(j: int, n: int) -> float:
    """Sentinel-family penalty of a divergence at sample j of n; earlier ranks worse."""
    return DIVERGENCE_SENTINEL * (1.0 + (n - j) / n)


@dataclass
class TlboConfig:
    dimensions: int
    population: int = 20
    lower: float | tuple[float, ...] = -50.0
    upper: float | tuple[float, ...] = 50.0
    termination_window: int = 20     # phases
    termination_tol: float = 1e-7
    max_iterations: int = 2000       # phases
    seed: int = 0

    def __post_init__(self):
        for name in ("dimensions", "population", "termination_window",
                     "max_iterations", "seed"):
            setattr(self, name, whole(getattr(self, name), name))
        if self.dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.termination_window < 1:
            raise ValueError("termination_window must be >= 1")
        if finite(self.termination_tol, "termination_tol") <= 0:
            raise ValueError("termination_tol must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (self.dimensions,)).copy()
                  for b in (self.lower, self.upper))
        for v in lo.tolist() + hi.tolist():
            finite(v, "a bound")
        if not np.all(lo < hi):
            raise ValueError("lower bound must be < upper bound in every dimension")
        self.lower = lo
        self.upper = hi


@dataclass
class OptResult:
    best_point: np.ndarray
    best_fitness: float
    iterations: int            # phases run (two per full teaching cycle)
    evaluations: int
    fitness_history: np.ndarray  # teacher fitness after init and each phase
    elapsed: float
    nan_evaluations: int = 0
    terminated_by_window: bool = False


def minimize(objective, cfg: TlboConfig) -> OptResult:
    """Minimize a real-vector objective on the configured box.

    Deterministic for a given config. Candidates evaluating to NaN are
    rejected outright and counted in ``nan_evaluations``. The random factor
    r is one scalar per learner, as the update laws are written. An
    objective with a ``batch`` attribute, mapping an (n, dimensions) array to
    n values, is evaluated one population at a time through it.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    npop = cfg.population
    lo, hi = cfg.lower, cfg.upper
    nan_count = 0
    batch = getattr(objective, "batch", None)

    def evaluate(points: np.ndarray) -> np.ndarray:
        nonlocal nan_count
        if batch is None:
            f = np.array([float(objective(x)) for x in points])
        else:
            f = np.array(batch(points), dtype=float)
        nan = np.isnan(f)
        nan_count += int(np.count_nonzero(nan))
        f[nan] = math.inf
        return f

    pop = rng.uniform(lo, hi, size=(npop, cfg.dimensions))
    fit = evaluate(pop)
    history = [float(fit.min())]    # one entry after init and after each phase

    def phase(moves: np.ndarray) -> None:
        cand = np.clip(pop + moves, lo, hi)
        cf = evaluate(cand)
        accept = cf < fit
        pop[accept] = cand[accept]
        fit[accept] = cf[accept]
        history.append(float(fit.min()))

    w = cfg.termination_window
    by_window = False
    while len(history) <= cfg.max_iterations:
        if len(history) > w and history[-1 - w] - history[-1] < cfg.termination_tol:
            by_window = True
            break

        # Teacher phase: all moves computed from the phase-start snapshot.
        teacher = pop[int(np.argmin(fit))]
        mean = pop.mean(axis=0)
        tf = np.round(1.0 + rng.random(npop))
        phase(rng.random(npop)[:, None] * (teacher - tf[:, None] * mean))
        if len(history) > cfg.max_iterations:
            break

        # Learner phase: random distinct partner per learner; move toward the
        # partner when it is better, away otherwise.
        partners = rng.integers(0, npop, size=npop)
        clash = partners == np.arange(npop)
        while clash.any():
            partners[clash] = rng.integers(0, npop, size=int(clash.sum()))
            clash = partners == np.arange(npop)
        better = fit < fit[partners]
        step = np.where(better[:, None], pop - pop[partners], pop[partners] - pop)
        phase(rng.random(npop)[:, None] * step)

    best = int(np.argmin(fit))
    return OptResult(
        best_point=pop[best].copy(),
        best_fitness=float(fit[best]),
        iterations=len(history) - 1,
        evaluations=npop * len(history),
        fitness_history=np.array(history),
        elapsed=time.perf_counter() - t0,
        nan_evaluations=nan_count,
        terminated_by_window=by_window,
    )
