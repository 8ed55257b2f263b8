"""Random-system generators shared by the property and acceptance tests,
and the reference row conditions on arbitrary coupling blocks."""

import numpy as np

from gridcert import certify, linalg
from gridcert.errors import IllConditionedTransform, NotSemiSimple


def random_hurwitz(rng, n, shift_range=(0.3, 2.0)):
    G = rng.standard_normal((n, n))
    shift = float(np.linalg.eigvals(G).real.max()) + rng.uniform(*shift_range)
    return G - shift * np.eye(n)


def random_spd(rng, n):
    R = rng.standard_normal((n, n))
    return R.T @ R + 0.5 * np.eye(n)


def random_semisimple_hurwitz(rng, n, tries=20):
    for _ in range(tries):
        A = random_hurwitz(rng, n)
        try:
            return A, linalg.modal_decompose([A])[0]
        except (NotSemiSimple, IllConditionedTransform):
            continue
    raise AssertionError("could not sample a semi-simple Hurwitz matrix")


def random_edges(rng, n_agents):
    """Random undirected graph, possibly empty, over agents 0..n_agents-1."""
    edges = []
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            if rng.random() < 0.7:
                edges.append((i, j))
    return edges


def line_block(c):
    """The 3x3 block ``c e2 e1^T`` through which a line of strength ``c``
    couples a neighbor's angle into a bus's speed."""
    C = np.zeros((3, 3))
    C[1, 0] = c
    return C


def assemble_blocks(orders, diag_blocks, couplings):
    """Full matrix from per-agent diagonal blocks and (i, j) coupling blocks."""
    offsets = np.concatenate([[0], np.cumsum(orders)])
    n = int(offsets[-1])
    A = np.zeros((n, n))
    for i, blk in enumerate(diag_blocks):
        A[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = blk
    for (i, j), blk in couplings.items():
        A[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = blk
    return A


def _rows(diagonal, own, couplings, variant):
    """One report per agent, in id order: diagonal ``diagonal[i]`` and, for
    each block ``couplings[(i, j)]``, the off-diagonal magnitude
    ``own[i] * ||block||_2``."""
    offdiag = {i: {} for i in diagonal}
    for (i, j), block in couplings.items():
        offdiag[i][j] = own[i] * np.linalg.norm(block, 2)
    return [certify.ConditionReport(agent=i, diagonal=d, offdiag=offdiag[i], variant=variant)
            for i, d in sorted(diagonal.items())]


def build_S(certs, couplings):
    """Reference original-coordinates rows on arbitrary blocks: agent i with
    certificate ``certs[i]`` has diagonal ``lambda_min(Q_i)`` and, for the
    block ``couplings[(i, j)] = A_ij`` through which j drives it, the entry
    ``2 lambda_max(P_i) ||A_ij||``."""
    return _rows({i: c.lambda_min_Q for i, c in certs.items()},
                 {i: 2.0 * c.lambda_max_P for i, c in certs.items()},
                 couplings, certify.VARIANT_ORIGINAL)


def build_S_tilde(transforms, couplings_t):
    """Reference transformed rows on arbitrary blocks: agent i with modal
    form ``transforms[i]`` has diagonal ``sigma_M_i`` and, for the modal
    block ``couplings_t[(i, j)] = At_ij``, the entry ``||At_ij||``."""
    return _rows({i: mt.sigma_M for i, mt in transforms.items()},
                 dict.fromkeys(transforms, 1.0), couplings_t, certify.VARIANT_TRANSFORMED)


def sample_met_original(rng):
    """Random interconnected system whose original-coordinates rows are all met.

    Couplings are scaled so each agent's row lands strictly inside the
    feasible region (utilization sampled up to 0.9 of the budget).
    Returns (orders, A_blocks, couplings, certificates).
    """
    n_agents = int(rng.integers(2, 5))
    orders = [int(rng.integers(1, 4)) for _ in range(n_agents)]
    A_blocks = [random_hurwitz(rng, ni) for ni in orders]
    certs = {i: certify.certify_decoupled([A_blocks[i]], np.eye(orders[i]))[0]
             for i in range(n_agents)}

    neighbor_sets = {i: set() for i in range(n_agents)}
    for i, j in random_edges(rng, n_agents):
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)

    couplings = {}
    for i in range(n_agents):
        nbrs = sorted(neighbor_sets[i])
        if not nbrs:
            continue
        budget = certs[i].lambda_min_Q / (2.0 * certs[i].lambda_max_P)
        weights = rng.uniform(0.2, 1.0, size=len(nbrs))
        weights *= rng.uniform(0.15, 0.9) / weights.sum()
        for j, w in zip(nbrs, weights):
            raw = rng.standard_normal((orders[i], orders[j]))
            couplings[(i, j)] = raw * (budget * w / np.linalg.svd(raw, compute_uv=False)[0])
    return orders, A_blocks, couplings, certs


def sample_met_transformed(rng):
    """Random transformed interconnected system with all rows met.

    Returns (orders, transforms, couplings_t); the full transformed system
    uses the modal blocks on the diagonal.
    """
    n_agents = int(rng.integers(2, 5))
    orders = [int(rng.integers(1, 4)) for _ in range(n_agents)]
    transforms = {}
    for i in range(n_agents):
        _, mt = random_semisimple_hurwitz(rng, orders[i])
        transforms[i] = mt

    neighbor_sets = {i: set() for i in range(n_agents)}
    for i, j in random_edges(rng, n_agents):
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)

    couplings = {}
    for i in range(n_agents):
        nbrs = sorted(neighbor_sets[i])
        if not nbrs:
            continue
        budget = transforms[i].sigma_M
        weights = rng.uniform(0.2, 1.0, size=len(nbrs))
        weights *= rng.uniform(0.15, 0.9) / weights.sum()
        for j, w in zip(nbrs, weights):
            raw = rng.standard_normal((orders[i], orders[j]))
            couplings[(i, j)] = raw * (budget * w / np.linalg.svd(raw, compute_uv=False)[0])
    return orders, transforms, couplings


def random_grid_tuples(rng):
    """Generators and lines of a random grid with 2-4 buses, for make_grid."""
    n = int(rng.integers(2, 5))
    gens = []
    for b in range(1, n + 1):
        poles = sorted(-rng.uniform(2.0, 60.0, size=3))
        gens.append((b, rng.uniform(4.0, 14.0), rng.uniform(0.5, 2.0),
                     rng.uniform(0.6, 1.4), poles))
    lines = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                lines.append((i, j, float(rng.uniform(0.3, 8.0))))
    return gens, lines


def ring_grid_tuples(rng, n):
    """Generators and lines of an n-bus ring with n // 3 chords (fewer when
    the bus pairs run out, below n = 4), for make_grid: inertias, turbine
    constants, reactances and three distinct real desired poles per bus in
    the ranges of the benchmark's grids."""
    gens = [(b, rng.uniform(6.0, 14.0), 1.0, rng.uniform(0.8, 1.2),
             [rng.uniform(-26.0, -21.0), rng.uniform(-40.0, -36.0), rng.uniform(-45.0, -41.0)])
            for b in range(1, n + 1)]
    pairs = {(min(b, b % n + 1), max(b, b % n + 1)) for b in range(1, n + 1)}
    while len(pairs) < min(n + n // 3, n * (n - 1) // 2):
        i, j = sorted(int(b) for b in rng.choice(np.arange(1, n + 1), 2, replace=False))
        pairs.add((i, j))
    return gens, [(i, j, rng.uniform(0.4, 0.6)) for i, j in sorted(pairs)]
