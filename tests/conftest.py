"""Shared fixtures and independent oracle helpers for the test suite.

The oracles here deliberately avoid the library's own code paths: entropy
by dictionary counting, chi-squared CDF by quadrature, DAG counts by the
inclusion-exclusion recurrence, stationary covariance by fixed-point
iteration. The greedy climb's oracle builds its own moves, each candidate
graph through the validating ``Dag`` constructor, and imports no private
helper of the search (tests/test_private_imports.py holds it to that).
"""

import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial import cKDTree

import netinfer as ni
from netinfer.errors import DataFormatError, NumericError
from netinfer.estimators import history, next_value
from netinfer.graph import random_dag
from netinfer.search import _TIE_EPS
from netinfer.significance import derive_seed

# Property tests draw the same examples on every run, so a counterexample
# fails every run instead of now and then; each test keeps its own
# max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


# ---------------------------------------------------------------------------
# independent oracles

def counting_cond_entropy(z_rows, w_rows):
    """Plug-in H(Z|W) in bits via plain dictionaries (no numpy paths)."""
    n = len(z_rows)
    cw: dict = {}
    czw: dict = {}
    for zr, wr in zip(z_rows, w_rows):
        wk = tuple(np.atleast_1d(wr).tolist())
        zk = tuple(np.atleast_1d(zr).tolist())
        cw[wk] = cw.get(wk, 0) + 1
        czw[(zk, wk)] = czw.get((zk, wk), 0) + 1
    h = 0.0
    for (zk, wk), c in czw.items():
        h += (c / n) * (math.log2(cw[wk]) - math.log2(c))
    return h


# The reference for a surrogate draw is the index draw it replaced: the rows
# of a resampled block are the block indexed by these.

def surrogate_indices(rows, method, rng):
    """Row indices realizing one surrogate draw."""
    if method == "permutation":
        return rng.permutation(rows)
    return rng.integers(0, rows, size=rows)


# The slow reference for the discrete counting kernel is the matrix path it
# replaced: concatenate the selected blocks, give each row a mixed-radix code
# and count the codes with two sorts. Values must match it bit for bit.

def reference_matrix(view, selections):
    """The selected blocks side by side, with one radix per column."""
    cols, radices = [], []
    for sel in selections:
        if sel.role == "next":
            block = view.target(sel.subsystem)[:, None]
        else:
            block = view.history(sel.subsystem)
        cols.append(block)
        radices.extend([view.alphabet(sel.subsystem)] * block.shape[1])
    if not cols:
        return np.empty((view.rows, 0), dtype=np.int64), radices
    return np.hstack(cols), radices


def reference_row_codes(mat, radices):
    if mat.shape[1] == 0:
        return np.zeros(mat.shape[0], dtype=np.int64)
    if math.prod(int(r) for r in radices) <= 2 ** 62:
        code = np.zeros(mat.shape[0], dtype=np.int64)
        for k in range(mat.shape[1]):
            code = code * int(radices[k]) + mat[:, k]
        return code
    _, inv = np.unique(mat, axis=0, return_inverse=True)
    return inv.reshape(-1).astype(np.int64)


def reference_discrete_cond_entropy(z, z_rad, w, w_rad):
    n = z.shape[0]
    if w.shape[1] == 0:
        code = reference_row_codes(z, z_rad)
        _, inv, cnt = np.unique(code, return_inverse=True, return_counts=True)
        return float(np.mean(np.log2(n) - np.log2(cnt[inv])))
    wcode = reference_row_codes(w, w_rad)
    zwcode = reference_row_codes(np.hstack([w, z]), list(w_rad) + list(z_rad))
    _, winv, wcnt = np.unique(wcode, return_inverse=True, return_counts=True)
    _, zwinv, zwcnt = np.unique(zwcode, return_inverse=True, return_counts=True)
    return float(np.mean(np.log2(wcnt[winv]) - np.log2(zwcnt[zwinv])))


def reference_conditional_entropy(target, conditioners, view):
    z, z_rad = reference_matrix(view, target)
    w, w_rad = reference_matrix(view, conditioners)
    return reference_discrete_cond_entropy(z, z_rad, w, w_rad)


def reference_surrogate_te_samples(dest, sources, view, cfg):
    """Serial surrogate population on the reference path."""
    z, z_rad = reference_matrix(view, [next_value(dest)])
    wd, wd_rad = reference_matrix(view, [history(dest)])
    ws, ws_rad = reference_matrix(view, [history(s) for s in sources])
    h_self = reference_discrete_cond_entropy(z, z_rad, wd, wd_rad)
    samples = []
    for i in range(cfg.count):
        rng = np.random.default_rng(derive_seed(cfg.seed, i))
        idx = surrogate_indices(view.rows, cfg.method, rng)
        w = np.hstack([wd, ws[idx]])
        samples.append(h_self - reference_discrete_cond_entropy(
            z, z_rad, w, wd_rad + ws_rad))
    return samples


# The slow reference for the box-kernel counter is the path it replaced: one
# cKDTree over W and one over (W, Z), each queried row by row. The brute-force
# oracle compares every pair of rows in the max-norm.

def reference_box_counts(x, width):
    tree = cKDTree(x)
    counts = tree.query_ball_point(x, r=width, p=np.inf, return_length=True)
    return np.asarray(counts, dtype=np.int64) - 1  # drop self


def reference_box_cond_entropy(z, w, width):
    n = z.shape[0]
    if w.shape[1] == 0:
        cw = np.full(n, n - 1, dtype=np.int64)
    else:
        cw = reference_box_counts(w, width)
    czw = reference_box_counts(np.hstack([w, z]), width)
    cw = np.maximum(cw, 1)
    czw = np.maximum(czw, 1)
    return float(np.mean(np.log2(cw) - np.log2(czw)))


def reference_box_surrogate_te_samples(dest, sources, view, width, cfg):
    """Serial box-kernel surrogate population on the reference path."""
    z = view.target(dest)[:, None]
    wd = view.history(dest)
    ws = np.hstack([view.history(s) for s in sources])
    h_self = reference_box_cond_entropy(z, wd, width)
    samples = []
    for i in range(cfg.count):
        rng = np.random.default_rng(derive_seed(cfg.seed, i))
        idx = surrogate_indices(view.rows, cfg.method, rng)
        samples.append(h_self - reference_box_cond_entropy(
            z, np.hstack([wd, ws[idx]]), width))
    return samples


def brute_box_counts(x, width):
    """Rows within max-norm distance width of each row, self excluded."""
    n = x.shape[0]
    if x.shape[1] == 0:
        return np.full(n, n - 1, dtype=np.int64)
    dist = np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)
    return (dist <= width).sum(axis=1).astype(np.int64) - 1


# The slow reference for exact search is the path it replaced: a recursive
# enumerator that walks the graph to test each candidate parent set for a
# cycle and builds every Dag through the validating constructor, and a search
# loop that builds the edge key of every graph.

def reference_enumerate_dags(m):
    others = [tuple(u for u in range(m) if u != v) for v in range(m)]
    choices = [[tuple(others[v][b] for b in range(m - 1) if mask >> b & 1)
                for mask in range(1 << (m - 1))] for v in range(m)]
    assigned = [() for _ in range(m)]

    def vertex_on_cycle(k):
        targets = set(assigned[k])
        if not targets:
            return False
        children = [[] for _ in range(m)]
        for dst in range(k + 1):
            for src in assigned[dst]:
                children[src].append(dst)
        stack, seen = [k], {k}
        while stack:
            v = stack.pop()
            for c in children[v]:
                if c in targets:
                    return True
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def rec(k):
        if k == m:
            yield ni.Dag(m, tuple(assigned))
            return
        for ps in choices[k]:
            assigned[k] = ps
            if not vertex_on_cycle(k):
                yield from rec(k + 1)
        assigned[k] = ()

    yield from rec(0)


def reference_pick(candidates, tie_eps):
    """The tie rule by brute force: of the (total, edges, ...) candidates whose
    total is within tie_eps of the largest, the one with the smallest edges."""
    top = max(c[0] for c in candidates)
    tied = sorted((c for c in candidates if c[0] >= top - tie_eps),
                  key=lambda c: c[1])
    return tied[0]


def reference_exhaustive_search(scorer, tie_eps):
    """(best graph, visited): the tie rule over every graph's total."""
    m = scorer.view.m_total
    scored = [(sum(scorer.local(v, g.parents[v]).local for v in range(m)),
               g.edges(), g) for g in reference_enumerate_dags(m)]
    return reference_pick(scored, tie_eps)[2], len(scored)


# The reference for the greedy climb builds its own moves: it tries every
# add, delete and reversal in the climb's order, builds each candidate graph
# with the validating Dag constructor and keeps those the constructor accepts
# and the parent cap allows. It scores every candidate move exactly,
# surrogates included, and applies the tie rule to the positive ones.

def reference_moves(graph, max_parents):
    """[(label, graph after)] of every legal single-edge move, in the
    climb's order: adds by (src, dst), then deletes, then reversals, each by
    edge."""
    m = graph.m
    tried = [("add", src, dst) for src in range(m) for dst in range(m)]
    tried += [("delete", src, dst) for src, dst in graph.edges()]
    tried += [("reverse", src, dst) for src, dst in graph.edges()]
    moves = []
    for op, src, dst in tried:
        edges = set(graph.edges())
        if op == "add":
            if (src, dst) in edges:
                continue
            edges.add((src, dst))
        else:
            edges.discard((src, dst))
            if op == "reverse":
                edges.add((dst, src))
        try:
            after = ni.Dag.from_edges(m, sorted(edges))
        except ni.ValidationError:
            continue  # a self-loop or a cycle
        grown = [v for v in range(m)
                 if len(after.parents[v]) > len(graph.parents[v])]
        if max_parents is not None and any(
                len(after.parents[v]) > max_parents for v in grown):
            continue
        moves.append((f"{op} {src}->{dst}", after))
    return moves


def reference_move_delta(scorer, graph, after):
    """Score change from graph to after, summed over the vertices whose
    parent sets differ."""
    changed = [v for v in range(graph.m) if graph.parents[v] != after.parents[v]]
    before = sum(scorer.local(v, graph.parents[v]).local for v in changed)
    return sum(scorer.local(v, after.parents[v]).local for v in changed) - before


def reference_climb(scorer, start, max_parents):
    """(graph, total, trace, visited) of one climb; a drop-in for
    ``search._climb``."""
    graph = start
    total = sum(scorer.local(v, graph.parents[v]).local for v in range(graph.m))
    trace = []
    visited = 1
    while True:
        moves = reference_moves(graph, max_parents)
        visited += len(moves)
        scored = [(reference_move_delta(scorer, graph, after), after.edges(),
                   label, after) for label, after in moves]
        positive = [c for c in scored if c[0] > 0.0]
        if not positive:
            return graph, total, trace, visited
        delta, _, label, graph = reference_pick(positive, _TIE_EPS)
        total += delta
        trace.append((label, delta))


def reference_greedy(scorer, cfg):
    """(best graph, trace, visited) of the restart loop the streamed one
    replaced: every start built first, every climb kept, then the tie rule."""
    m = scorer.view.m_total
    max_parents = cfg.resolved_max_parents(scorer.score_kind)
    starts = [ni.Dag.empty(m)]
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        starts.append(random_dag(m, rng, max_parents=max_parents))
    climbs = []
    visited = 0
    for start in starts:
        graph, total, trace, seen = reference_climb(scorer, start, max_parents)
        visited += seen
        climbs.append((total, graph.edges(), graph, trace))
    _, _, best, trace = reference_pick(climbs, _TIE_EPS)
    return best, trace, visited


# The references for the cycle checks are the walks they replaced: Kahn's
# algorithm (smallest ready vertex first, then FIFO), whose order misses every
# vertex on or downstream of a cycle, and a depth-first walk along child links.

def reference_kahn_order(graph):
    indeg = [len(ps) for ps in graph.parents]
    children = [[] for _ in range(graph.m)]
    for dst, ps in enumerate(graph.parents):
        for src in ps:
            children[src].append(dst)
    order = [v for v in range(graph.m) if indeg[v] == 0]
    for v in order:  # the list grows while it is walked: a FIFO queue
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    return order


def reference_reaches(parents, start, goal):
    """Is goal reachable from start along edge direction?"""
    children = {}
    for dst, ps in enumerate(parents):
        for src in ps:
            children.setdefault(src, []).append(dst)
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for c in children.get(v, ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


# The reference for the structural Hamming distance is the per-pair loop it
# replaced: one unit per missing, spurious or reversed edge.

def reference_shd(inferred, truth):
    ei, et = set(inferred.edges()), set(truth.edges())
    shd = 0
    for pair in {frozenset(e) for e in ei | et}:
        a, b = tuple(pair)
        in_i = (a, b) in ei or (b, a) in ei
        in_t = (a, b) in et or (b, a) in et
        if in_i and in_t:
            if ((a, b) in ei) != ((a, b) in et):
                shd += 1  # reversed
        else:
            shd += 1  # missing or spurious
    return shd


# The references for the simulator are the two per-model loops it replaced,
# with the same random draws in the same order, one rng.normal call each per
# step; each returns (observations, states) as (M, n) arrays, or raises the
# same NumericError at the same step.

def _reference_check_finite(x, step):
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite state at step {step}")


def _reference_reflect_unit(x):
    for _ in range(64):
        out_low = x < 0.0
        out_high = x > 1.0
        if not (out_low.any() or out_high.any()):
            return x
        x = np.where(out_low, -x, x)
        x = np.where(out_high, 2.0 - x, x)
    raise NumericError("state reflection did not converge (noise too large?)")


def reference_simulate_coupled_logistic(cfg):
    m = cfg.graph.m
    model = cfg.model
    rng = np.random.default_rng(cfg.seed)
    if cfg.initial_states is not None:
        x = np.asarray(cfg.initial_states, dtype=float)
    else:
        x = rng.uniform(0.0, 1.0, size=m)
    parents = [np.asarray(ps, dtype=int) for ps in cfg.graph.parents]
    total = cfg.burn_in + cfg.n
    states = np.empty((total, m), dtype=float)
    observations = np.empty((total, m), dtype=float)
    eps = model.epsilon
    for step in range(total):
        g = model.r * x * (1.0 - x)
        new = np.empty(m, dtype=float)
        for i in range(m):
            ps = parents[i]
            if ps.size:
                new[i] = (1.0 - eps) * g[i] + (eps / ps.size) * g[ps].sum()
            else:
                new[i] = g[i]
        new = new + rng.normal(0.0, cfg.process_noise_std, size=m)
        _reference_check_finite(new, step)
        x = _reference_reflect_unit(new)
        states[step] = x
        observations[step] = x + rng.normal(0.0, cfg.obs_noise_std, size=m)
    return observations[cfg.burn_in:].T, states[cfg.burn_in:].T


def reference_simulate_linear_gaussian(cfg):
    m = cfg.graph.m
    a = cfg.model.self_weight * np.eye(m) + np.asarray(cfg.model.coupling, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    x = (np.asarray(cfg.initial_states, dtype=float)
         if cfg.initial_states is not None else np.zeros(m))
    total = cfg.burn_in + cfg.n
    states = np.empty((total, m), dtype=float)
    observations = np.empty((total, m), dtype=float)
    for step in range(total):
        x = a @ x + rng.normal(0.0, cfg.process_noise_std, size=m)
        _reference_check_finite(x, step)
        states[step] = x
        observations[step] = x + rng.normal(0.0, cfg.obs_noise_std, size=m)
    return observations[cfg.burn_in:].T, states[cfg.burn_in:].T


def chi2_cdf_quadrature(df: int, x: float, panels: int = 4096) -> float:
    """CDF of chi-squared(df) by Simpson quadrature after the substitution
    u = sqrt(t), which removes the integrable singularity at zero."""
    if x <= 0:
        return 0.0
    upper = math.sqrt(x)
    norm = 2.0 / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))
    u = np.linspace(0.0, upper, 2 * panels + 1)
    with np.errstate(divide="ignore"):
        integrand = norm * u ** (df - 1) * np.exp(-u * u / 2.0)
    if df == 1:
        integrand[0] = norm  # u^0 at u=0
    h = upper / (2 * panels)
    weights = np.ones_like(u)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * integrand))


def chi2_quantile_quadrature(df: int, alpha: float) -> float:
    lo, hi = 0.0, 1.0
    while chi2_cdf_quadrature(df, hi) < alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_quadrature(df, mid) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def labelled_dag_count(n: int) -> int:
    """Inclusion-exclusion recurrence over the number of sink-free parts."""
    a = [1]
    for k in range(1, n + 1):
        total = 0
        for j in range(1, k + 1):
            total += (-1) ** (j + 1) * math.comb(k, j) * 2 ** (j * (k - j)) * a[k - j]
        a.append(total)
    return a[n]


def stationary_covariance(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fixed point of P = A P A^T + Q."""
    p = q.copy()
    for _ in range(100000):
        nxt = a @ p @ a.T + q
        if np.max(np.abs(nxt - p)) < 1e-14:
            return nxt
        p = nxt
    raise RuntimeError("covariance iteration did not converge")


def gaussian_cond_var(cov: np.ndarray, zi, wi) -> float:
    czz = cov[np.ix_(zi, zi)]
    cww = cov[np.ix_(wi, wi)]
    czw = cov[np.ix_(zi, wi)]
    return float((czz - czw @ np.linalg.solve(cww, czw.T))[0, 0])


def cli_env():
    """Environment for `python -m netinfer` subprocesses: the caller's, with
    the directory that holds the imported package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ni.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The reference for load_csv is the per-cell loop its streamed parse
# replaced: the same array bytes and the same first error message.

def reference_load_csv(path) -> ni.TimeSeriesSet:
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file, header row required")
    header = [h.strip() for h in rows[0]]
    if any(not h for h in header):
        raise DataFormatError(f"{path}: blank column name in header")
    dupes = {h for h in header if header.count(h) > 1}
    if dupes:
        raise DataFormatError(f"{path}: duplicate header {sorted(dupes)}")
    body = rows[1:]
    if not body:
        raise DataFormatError(f"{path}: empty body")
    m = len(header)
    data = np.empty((len(body), m), dtype=float)
    for r, cells in enumerate(body, start=2):
        if len(cells) != m:
            raise DataFormatError(
                f"{path}: row {r} has {len(cells)} cells, expected {m}"
            )
        for c, cell in enumerate(cells):
            try:
                if "_" in cell:  # float() tolerates 1_000; the format does not
                    raise ValueError
                val = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r}, column {header[c]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not np.isfinite(val):
                raise DataFormatError(
                    f"{path}: row {r}, column {header[c]!r}: non-finite value {cell!r}"
                )
            data[r - 2, c] = val
    if len(body) < 2:
        raise DataFormatError(f"{path}: need at least two data rows")
    return ni.TimeSeriesSet(data.T, tuple(header))


# The reference for csv_chunks is a per-row csv.writer: each value written
# as repr(float(v)).

def reference_csv_text(ts) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ts.names)
    for t in range(ts.series.shape[1]):
        writer.writerow([repr(float(v)) for v in ts.series[:, t]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# dataset builders

def chain_dag(m: int) -> ni.Dag:
    return ni.Dag.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def simulate_chain(m: int, seed: int, n: int = 10000, epsilon: float = 0.4,
                   noise: float = 1e-3) -> ni.SimOutput:
    cfg = ni.GdsConfig(
        graph=chain_dag(m),
        model=ni.CoupledLogisticModel(r=4.0, epsilon=epsilon),
        process_noise_std=noise,
        obs_noise_std=noise,
        n=n,
        burn_in=1000,
        seed=seed,
    )
    return ni.simulate(cfg)


def random_discrete_view(m: int, n: int, symbols: int, seed: int,
                         kappa: int = 1) -> ni.EmbeddedView:
    rng = np.random.default_rng(seed)
    sym = rng.integers(0, symbols, size=(m, n))
    disc = ni.DiscretizedSeries(sym, (symbols,) * m)
    return ni.delay_embed(disc, ni.EmbeddingSpec.uniform(m, 1, kappa))


@pytest.fixture(scope="session")
def chain3_discrete_view():
    """One seeded 3-vertex chain dataset, 4 bins, kappa=2 (reused read-only)."""
    out = simulate_chain(3, seed=101)
    disc = ni.discretize(out.observations, 4)
    return ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 2))
