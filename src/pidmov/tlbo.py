"""Teaching-learning-based optimization over box-bounded real vectors.

Two phases per teaching cycle. Teacher phase moves every learner toward the
best individual relative to the scaled population mean; learner phase moves
each learner toward (or away from) a random partner. Each phase is one
evaluate-and-accept step: the moved learners are clipped to the box,
evaluated (in one call where the objective has a ``batch``), and each move
is kept where it improves its learner. Independent seeded runs step in
lockstep, so one phase evaluates the candidates of every running run at once.
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
    """Minimize a real-vector objective on the configured box: the lockstep
    of one run, seeded with ``cfg.seed``."""
    return lockstep(objective, cfg, [cfg.seed])[0]


def _partners(rng: np.random.Generator, npop: int) -> np.ndarray:
    """A random partner per learner, other than the learner itself."""
    partners = rng.integers(0, npop, size=npop)
    clash = partners == np.arange(npop)
    while clash.any():
        partners[clash] = rng.integers(0, npop, size=int(clash.sum()))
        clash = partners == np.arange(npop)
    return partners


def lockstep(objective, cfg: TlboConfig, seeds) -> list[OptResult]:
    """One run of ``minimize`` per seed, every run stepped in lockstep.

    Deterministic for a given config and seeds; each run makes the draws of
    its own ``default_rng(seed)`` in the order a lone run makes them, so its
    result is the same as alone, apart from ``elapsed``: the time from the
    start of the lockstep to the phase where the run stopped. Candidates
    evaluating to NaN are rejected outright and counted in
    ``nan_evaluations``. The random factor r is one scalar per learner, as
    the update laws are written. Each phase evaluates the candidates of
    every running run at once: one ``objective.batch`` call on their
    (runs * population, dimensions) array where the objective has a
    ``batch``, otherwise one call per candidate.
    """
    t0 = time.perf_counter()
    npop, dim = cfg.population, cfg.dimensions
    lo, hi = cfg.lower, cfg.upper
    batch = getattr(objective, "batch", None)
    rngs = [np.random.default_rng(s) for s in seeds]
    ids = np.arange(len(rngs))             # the running runs
    nan_count = np.zeros(len(rngs), dtype=int)
    results: list[OptResult | None] = [None] * len(rngs)

    def evaluate(points: np.ndarray) -> np.ndarray:
        flat = points.reshape(-1, dim)
        if batch is None:
            f = np.array([float(objective(x)) for x in flat])
        else:
            f = np.array(batch(flat), dtype=float)
        f = f.reshape(len(points), npop)
        nan = np.isnan(f)
        nan_count[ids] += np.count_nonzero(nan, axis=1)
        f[nan] = math.inf
        return f

    pop = np.stack([rng.uniform(lo, hi, size=(npop, dim)) for rng in rngs])
    fit = evaluate(pop)
    # one list per running run: its best after init and after each phase
    history = [[v] for v in fit.min(axis=1).tolist()]

    def phase(moves: np.ndarray) -> None:
        cand = np.clip(pop + moves, lo, hi)
        cf = evaluate(cand)
        accept = cf < fit
        pop[accept] = cand[accept]
        fit[accept] = cf[accept]
        for h, v in zip(history, fit.min(axis=1).tolist()):
            h.append(v)

    def finish(i: int, by_window: bool) -> None:
        best = int(np.argmin(fit[i]))
        results[ids[i]] = OptResult(
            best_point=pop[i, best].copy(),
            best_fitness=float(fit[i, best]),
            iterations=len(history[i]) - 1,
            evaluations=npop * len(history[i]),
            fitness_history=np.array(history[i]),
            elapsed=time.perf_counter() - t0,
            nan_evaluations=int(nan_count[ids[i]]),
            terminated_by_window=by_window,
        )

    w, tol = cfg.termination_window, cfg.termination_tol
    teaching = True
    while ids.size:
        if len(history[0]) > cfg.max_iterations:
            for i in range(ids.size):
                finish(i, False)
            break
        if teaching:
            stop = np.array([len(h) > w and h[-1 - w] - h[-1] < tol for h in history])
            if stop.any():
                for i in np.flatnonzero(stop):
                    finish(i, True)
                keep = np.flatnonzero(~stop)
                ids, pop, fit = ids[keep], pop[keep], fit[keep]
                rngs = [rngs[i] for i in keep]
                history = [history[i] for i in keep]
                if not ids.size:
                    break
            # Teacher phase: all moves computed from the phase-start snapshot.
            teacher = pop[np.arange(ids.size), np.argmin(fit, axis=1)]
            mean = pop.mean(axis=1)
            # one draw per run: tf's npop uniforms, then r's, as two draws make them
            u = np.array([rng.random(2 * npop) for rng in rngs])
            tf, r = np.round(1.0 + u[:, :npop]), u[:, npop:]
            phase(r[..., None] * (teacher[:, None] - tf[..., None] * mean[:, None]))
        else:
            # Learner phase: random distinct partner per learner; move toward
            # the partner when it is better, away otherwise.
            partners = np.array([_partners(rng, npop) for rng in rngs])
            rows = np.arange(ids.size)[:, None]
            other = pop[rows, partners]
            better = fit < fit[rows, partners]
            step = np.where(better[..., None], pop - other, other - pop)
            r = np.array([rng.random(npop) for rng in rngs])
            phase(r[..., None] * step)
        teaching = not teaching
    return results
