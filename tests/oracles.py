"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's closed-loop kernel:
shock responses come from dense lower-triangular Toeplitz matrices solved
with generic linear algebra, pole radii from characteristic polynomials
assembled here, and the step-response loops are re-derived sample by
sample with their own state bookkeeping. The one-chain Monte-Carlo
references step the stochastic loops one scalar sample at a time over
Python lists, the form the package's oracle vectorizes across chains.
The reference TLBO runs one seeded run one learner at a time, with the
update laws as written.
Agreement between these oracles
and the package is the evidence the tests assert.
"""

from __future__ import annotations

import numpy as np


def toeplitz_lower(col: np.ndarray) -> np.ndarray:
    n = col.size
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i:, i] = col[: n - i]
    return mat


def shift_matrix(n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    mat[1:, :-1] = np.eye(n - 1)
    return mat


def dense_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return toeplitz_lower(a) @ b


def dense_solve(denom: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.solve(toeplitz_lower(denom), rhs)


def impulse_by_division(num, den, delay, n) -> np.ndarray:
    """Impulse response by explicit polynomial long division."""
    g = np.zeros(n)
    for k in range(n):
        acc = 0.0
        j = k - delay
        if 0 <= j < len(num):
            acc += num[j]
        for i in range(1, min(len(den), k + 1)):
            acc -= den[i] * g[k - i]
        g[k] = acc
    return g


def dense_closed_loop_single(problem, k) -> np.ndarray:
    """Closed-loop shock response via explicit matrices and a dense solve."""
    p = problem.truncation
    st = problem.process.step_response(p - 1)
    nbar = problem.disturbance.impulse_response(p - 1)
    f_mat = shift_matrix(p)
    st_mat = toeplitz_lower(st)
    system = np.eye(p) + k[0] * st_mat + k[1] * f_mat @ st_mat + k[2] * f_mat @ f_mat @ st_mat
    return np.linalg.solve(system, nbar)


def dense_cascade(problem, k) -> tuple[np.ndarray, np.ndarray]:
    """Cascade shock responses by solving the coupled output equations as one
    block-linear system (outer output driven by inner output, inner output
    driven by both controllers)."""
    p = problem.truncation
    k4, k5, k6 = k
    g1 = problem.outer.impulse_response(p - 1)
    g2 = problem.inner.impulse_response(p - 1)
    s2 = np.cumsum(g2)
    n1 = problem.outer_disturbance.impulse_response(p - 1)
    n2 = problem.inner_disturbance.impulse_response(p - 1)
    eye = np.eye(p)
    im1 = toeplitz_lower(g1)
    im2 = toeplitz_lower(g2)
    s2_mat = toeplitz_lower(s2)
    f_mat = shift_matrix(p)
    block = np.block(
        [
            [eye, -im1],
            [k4 * k6 * s2_mat + k5 * k6 * f_mat @ s2_mat, eye + k6 * im2],
        ]
    )
    sol1 = np.linalg.solve(block, np.concatenate([n1, np.zeros(p)]))
    sol2 = np.linalg.solve(block, np.concatenate([np.zeros(p), n2]))
    return sol1[:p], sol2[:p]


def _delayed(tf):
    return np.concatenate([np.zeros(tf.delay), tf.num])


def pole_radius(loop, k) -> float:
    """Largest closed-loop pole magnitude, from the characteristic polynomial
    (1 - q^-1) a + q^-d b K, or for the cascade
    (1 - q^-1) a1 (a2 + k6 q^-d2 b2) + k6 q^-(d1+d2) b1 b2 (k4 + k5 q^-1)."""
    def add(p, q):
        n = max(p.size, q.size)
        return np.pad(p, (0, n - p.size)) + np.pad(q, (0, n - q.size))

    diff = np.array([1.0, -1.0])
    if hasattr(loop, "process"):
        poly = add(np.convolve(diff, loop.process.den), np.convolve(_delayed(loop.process), k))
    else:
        k4, k5, k6 = k
        inner = add(np.array(loop.inner.den), k6 * _delayed(loop.inner))
        poly = add(np.convolve(np.convolve(diff, loop.outer.den), inner),
                   k6 * np.convolve(np.convolve(_delayed(loop.outer), _delayed(loop.inner)),
                                    [k4, k5]))
    return float(np.max(np.abs(np.roots(poly))))


def step_loop_single(problem, k, horizon, amplitude=1.0):
    """Independent noise-free step simulation of the single loop.

    Uses full convolution sums over stored input history instead of the
    package's recursive plant state, so shared bugs are unlikely.
    """
    num = np.asarray(problem.process.num)
    den = np.asarray(problem.process.den)
    d = problem.process.delay
    y = np.zeros(horizon)
    u = np.zeros(horizon)
    e_hist = np.zeros(horizon)
    for t in range(horizon):
        acc = 0.0
        for j, b in enumerate(num):
            if t - d - j >= 0:
                acc += b * u[t - d - j]
        for i, a in enumerate(den[1:], start=1):
            if t - i >= 0:
                acc -= a * y[t - i]
        y[t] = acc
        e_hist[t] = amplitude - y[t]
        du = 0.0
        for m, km in enumerate(k):
            if t - m >= 0:
                du += km * e_hist[t - m]
        u[t] = (u[t - 1] if t >= 1 else 0.0) + du
    return y, np.abs(e_hist).sum()


def _gains_at(stages, t):
    """Gains of the last stage whose switch sample is <= t."""
    return [k for k, s in stages if s <= t][-1]


def step_loop_multistage(problem, stages, horizon, amplitude=1.0):
    """Independent single-loop step simulation with per-stage gains.

    ``stages`` is [(k, switch), ...] with the first switch at 0. The
    increment at t uses the gains in force at t on the stored error history,
    so u and the errors carry across every switch.
    """
    num = np.asarray(problem.process.num)
    den = np.asarray(problem.process.den)
    d = problem.process.delay
    y = np.zeros(horizon)
    u = np.zeros(horizon)
    e_hist = np.zeros(horizon)
    for t in range(horizon):
        y[t] = sum(b * u[t - d - j] for j, b in enumerate(num) if t - d - j >= 0) - sum(
            a * y[t - i] for i, a in enumerate(den[1:], start=1) if t - i >= 0
        )
        e_hist[t] = amplitude - y[t]
        k = _gains_at(stages, t)
        du = sum(km * e_hist[t - m] for m, km in enumerate(k) if t - m >= 0)
        u[t] = (u[t - 1] if t >= 1 else 0.0) + du
    return y, np.abs(e_hist).sum()


def step_loop_cascade(problem, stages, horizon, amplitude=1.0):
    """Independent noise-free cascade step simulation with per-stage gains.

    Returns the outer output, its IAE and the inner output. The PI primary's
    integrator is kept as the full sum of its increments over the stored
    error history, u(t) = k6 (v(t) - y2(t)), each increment and k6 taken
    from the stage in force at its own sample.
    """
    g1, g2 = problem.outer, problem.inner
    y1 = np.zeros(horizon)
    y2 = np.zeros(horizon)
    u = np.zeros(horizon)
    dv = np.zeros(horizon)
    e_hist = np.zeros(horizon)

    def plant(tf, inp, out, t):
        return sum(
            b * inp[t - tf.delay - j] for j, b in enumerate(tf.num) if t - tf.delay - j >= 0
        ) - sum(a * out[t - i] for i, a in enumerate(tf.den[1:], start=1) if t - i >= 0)

    for t in range(horizon):
        y2[t] = plant(g2, u, y2, t)
        y1[t] = plant(g1, y2, y1, t)
        e_hist[t] = amplitude - y1[t]
        k4, k5, k6 = _gains_at(stages, t)
        dv[t] = k4 * e_hist[t] + (k5 * e_hist[t - 1] if t >= 1 else 0.0)
        u[t] = k6 * (dv[: t + 1].sum() - y2[t])
    return y1, np.abs(e_hist).sum(), y2


def mc_chain_single(problem, k, w, limit):
    """One Monte-Carlo chain of the single loop, sample by sample over Python
    lists, driven from rest by the output disturbance w.

    Returns the outputs up to and including the first one that fails
    |y| <= limit (NaN included), and that sample's index or None.
    """
    tf = problem.process
    b = list(tf.num)
    a = list(tf.den[1:])
    d = tf.delay
    k1, k2, k3 = k
    n = len(w)
    u = [0.0] * n
    x = [0.0] * n
    y = [0.0] * n
    e1 = e2 = 0.0
    for t in range(n):
        acc = 0.0
        for j in range(len(b)):
            idx = t - d - j
            if idx >= 0:
                acc += b[j] * u[idx]
        for i in range(len(a)):
            idx = t - 1 - i
            if idx >= 0:
                acc -= a[i] * x[idx]
        x[t] = acc
        yt = acc + w[t]
        y[t] = yt
        if not abs(yt) <= limit:
            return np.asarray(y[: t + 1]), t
        e = -yt
        u[t] = (u[t - 1] if t >= 1 else 0.0) + k1 * e + k2 * e1 + k3 * e2
        e2, e1 = e1, e
    return np.asarray(y), None


def mc_chain_cascade(problem, k, w1, w2, limit):
    """One Monte-Carlo chain of the PI/P cascade, sample by sample over Python
    lists, driven from rest by the outer and inner output disturbances.

    Returns the outer outputs up to and including the first one that fails
    |y1| <= limit (NaN included), and that sample's index or None.
    """
    b1, a1, d1 = list(problem.outer.num), list(problem.outer.den[1:]), problem.outer.delay
    b2, a2, d2 = list(problem.inner.num), list(problem.inner.den[1:]), problem.inner.delay
    k4, k5, k6 = k
    n = len(w1)
    u = [0.0] * n
    x1 = [0.0] * n
    x2 = [0.0] * n
    y1 = [0.0] * n
    y2 = [0.0] * n
    v = 0.0
    e1p = 0.0
    for t in range(n):
        acc2 = 0.0
        for j in range(len(b2)):
            idx = t - d2 - j
            if idx >= 0:
                acc2 += b2[j] * u[idx]
        for i in range(len(a2)):
            idx = t - 1 - i
            if idx >= 0:
                acc2 -= a2[i] * x2[idx]
        x2[t] = acc2
        y2t = acc2 + w2[t]
        y2[t] = y2t

        acc1 = 0.0
        for j in range(len(b1)):
            idx = t - d1 - j
            if idx >= 0:
                acc1 += b1[j] * y2[idx]
        for i in range(len(a1)):
            idx = t - 1 - i
            if idx >= 0:
                acc1 -= a1[i] * x1[idx]
        x1[t] = acc1
        y1t = acc1 + w1[t]
        y1[t] = y1t
        if not abs(y1t) <= limit:
            return np.asarray(y1[: t + 1]), t

        e1 = -y1t
        v = v + k4 * e1 + k5 * e1p
        e1p = e1
        u[t] = k6 * (v - y2t)
    return np.asarray(y1), None


def _tlbo_partners(rng, npop):
    """A random partner per learner other than itself: draw all, then redraw
    every clashing learner until none clashes."""
    partners = rng.integers(0, npop, size=npop)
    clash = partners == np.arange(npop)
    while clash.any():
        partners[clash] = rng.integers(0, npop, size=int(clash.sum()))
        clash = partners == np.arange(npop)
    return partners


def tlbo_run(objective, cfg, seed) -> dict:
    """One seeded TLBO run, one learner at a time, as the update laws are
    written, with its own ``default_rng(seed)``; every ``OptResult`` field but
    ``elapsed``, as a dict.

    Teacher phase, from the phase-start population: learner i moves by
    r_i (teacher - tf_i mean), tf_i = round(1 + u_i), with npop draws for the
    u_i and then npop for the r_i. Learner phase: each learner draws a
    partner other than itself, then npop draws r_i; it moves by
    r_i (x_i - x_p) if its fitness is below its partner's, by r_i (x_p - x_i)
    otherwise. Each move is clipped to the box and evaluated once (one row
    of ``objective.batch`` where the objective has one), and kept where it
    improves its learner; a NaN value is counted and never kept. Before every
    teacher phase the run stops after ``max_iterations`` phases, or when its
    best has improved by less than the tolerance over the window.
    """
    npop, dim = cfg.population, cfg.dimensions
    lo, hi = np.asarray(cfg.lower, dtype=float), np.asarray(cfg.upper, dtype=float)
    rng = np.random.default_rng(seed)
    batch = getattr(objective, "batch", None)
    nan_evaluations = 0

    def value(x):
        nonlocal nan_evaluations
        f = float(batch(x[None])[0]) if batch is not None else float(objective(x))
        if f != f:
            nan_evaluations += 1
            return float("inf")
        return f

    pop = rng.uniform(lo, hi, size=(npop, dim))
    fit = np.array([value(x) for x in pop])
    history = [float(fit.min())]
    teaching, by_window = True, False
    while True:
        if len(history) > cfg.max_iterations:
            break
        if teaching:
            w = cfg.termination_window
            if len(history) > w and history[-1 - w] - history[-1] < cfg.termination_tol:
                by_window = True
                break
            teacher = pop[int(np.argmin(fit))].copy()
            mean = pop.mean(axis=0)
            tf = np.round(1.0 + rng.random(npop))
            r = rng.random(npop)
            cand = np.array([np.clip(pop[i] + r[i] * (teacher - tf[i] * mean), lo, hi)
                             for i in range(npop)])
        else:
            partners = _tlbo_partners(rng, npop)
            r = rng.random(npop)
            moves = []
            for i, j in enumerate(partners):
                step = pop[i] - pop[j] if fit[i] < fit[j] else pop[j] - pop[i]
                moves.append(np.clip(pop[i] + r[i] * step, lo, hi))
            cand = np.array(moves)
        cf = np.array([value(x) for x in cand])
        accept = cf < fit
        pop[accept] = cand[accept]
        fit[accept] = cf[accept]
        history.append(float(fit.min()))
        teaching = not teaching
    best = int(np.argmin(fit))
    return {
        "best_point": pop[best].copy(),
        "best_fitness": float(fit[best]),
        "iterations": len(history) - 1,
        "evaluations": npop * len(history),
        "fitness_history": np.array(history),
        "nan_evaluations": nan_evaluations,
        "terminated_by_window": by_window,
    }
