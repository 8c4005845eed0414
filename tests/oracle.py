"""The references the tests hold cfcomm to, built from ``ProtocolConfig.step_ops()``
and numpy, never from ``embed``, ``apply``, ``basis_state``, ``Step`` or ``build_steps``."""

import math

import numpy as np

from cfcomm.chip import _lowered_steps, _phase_walk
from cfcomm.histories import CounterfactualityReport
from cfcomm.modes import NORM_TOL, PureState, apply_blocks, compose_unitary
from cfcomm.protocol import OutcomeDistribution, ProtocolConfig, SweepRow, evolution_unitary


def cycle_bound_message(k):
    return (
        "protocol runs are limited to K <= 4096, past which round-off in the K rotations "
        f"can push the norm defect beyond 1e-12; got K = {k}"
    )


def dense_cap_message(k):
    return f"dense matrices are limited to K <= 512 (515 modes), got {k + 3} modes (K = {k})"


def embedded_product(ops, size):
    """Each ``((i, j), block)`` embedded into the full space, multiplied in order."""
    mat = np.eye(size, dtype=complex)
    for (i, j), block in ops:
        step = np.eye(size, dtype=complex)
        step[np.ix_([i, j], [i, j])] = block
        mat = step @ mat
    return mat


def unrouted(ops, size):
    """The identity with every block multiplied into two rows by ``apply_blocks``."""
    mat = np.eye(size, dtype=complex)
    apply_blocks(ops, mat)
    return mat


def mzi_product(theta, phi):
    """T(theta, phi) = BS P(theta) BS P(phi), its four 2x2 factors multiplied out."""
    bs = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
    return bs @ np.diag([np.exp(1j * theta), 1]) @ bs @ np.diag([np.exp(1j * phi), 1])


def dense_histories(config):
    labels = config.mode_basis().labels
    matrices = [embedded_product([op], len(labels)) for op in config.step_ops()]
    out = []

    def walk(depth, mode, amplitude, path):
        if depth == len(matrices):
            out.append((tuple(labels[m] for m in path), amplitude))
            return
        for nxt, entry in enumerate(matrices[depth][:, mode]):
            if entry != 0:
                walk(depth + 1, nxt, amplitude * entry, path + (nxt,))

    walk(0, 0, 1.0 + 0.0j, (0,))
    return out


def trace_distance(rho, sigma):
    """(1/2) * trace norm of rho - sigma, from the eigenvalues; ``ValueError``
    unless they are square matrices of one shape whose difference is
    Hermitian at ``NORM_TOL``."""
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape != sigma.shape:
        raise ValueError(f"trace distance needs two square matrices of one shape, got {rho.shape} and {sigma.shape}")
    diff = rho - sigma
    gap = float(np.abs(diff - diff.conj().T).max(initial=0.0))
    if not gap <= NORM_TOL:
        raise ValueError(f"rho - sigma must be Hermitian within {NORM_TOL:g}, got max |D - D^H| = {gap:.3e}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def two_walk_placed(config):
    """The settings of two full phase walks: one with unit input phases to
    find the factors, one with d[1] = coeff[1] / coeff[0] to emit them."""
    ops = list(_lowered_steps(config))
    coeff = [1.0 + 0.0j] * config.mode_basis().size
    _phase_walk(ops, coeff)
    d = [1.0 + 0.0j] * len(coeff)
    d[1] = coeff[1] / coeff[0]
    return _phase_walk(ops, d)


def loop_phase_edges(v, w):
    """The verifier's edge lists built entry by entry with Python ``abs``."""
    edges = []
    for i, (v_row, w_row) in enumerate(zip(v.tolist(), w.tolist())):
        for j, (v_ij, w_ij) in enumerate(zip(v_row, w_row)):
            mag = min(abs(v_ij), abs(w_ij))
            if mag > 0:
                edges.append((mag, i, j))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    return [(i, j) for m, i, j in edges if m > 1e-8], [(i, j) for m, i, j in edges if m <= 1e-8]


class LoopForest:
    """A union-find of parent pointers with path halving, sharing no code
    with ``chip``."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.trees = n

    def root(self, node):
        while self.parent[node] != node:
            self.parent[node] = self.parent[self.parent[node]]
            node = self.parent[node]
        return node

    def union(self, a, b):
        ra, rb = self.root(a), self.root(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.trees -= 1
        return True


def loop_verify(u_mesh, config, tol=1e-9):
    """``verify`` offering every edge to ``LoopForest`` one at a time: the
    strong entries all, then the A/B tie, then the weak ones until the
    forest is one tree."""
    v = u_mesh.matrix
    w = evolution_unitary(config).matrix
    size = v.shape[0]
    forest = LoopForest(2 * size)
    adjacency = [[] for _ in range(2 * size)]

    def join(i, j):
        if forest.union(i, size + j):
            ratio = w[i, j] / v[i, j]
            ratio /= abs(ratio)
            adjacency[i].append((size + j, ratio))
            adjacency[size + j].append((i, ratio))

    strong, weak = loop_phase_edges(v, w)
    for i, j in strong:
        join(i, j)
    if forest.union(0, 1):
        adjacency[0].append((1, None))
        adjacency[1].append((0, None))
    for i, j in weak:
        if forest.trees == 1:
            break
        join(i, j)

    phase = [None] * (2 * size)
    for root in range(2 * size):
        if phase[root] is not None:
            continue
        phase[root] = 1.0 + 0.0j
        queue = [root]
        while queue:
            node = queue.pop()
            for neighbor, ratio in adjacency[node]:
                if phase[neighbor] is None:
                    phase[neighbor] = phase[node] if ratio is None else ratio / phase[node]
                    queue.append(neighbor)
    alpha = np.array(phase[:size], dtype=complex)
    beta = np.array(phase[size:], dtype=complex)
    residual = float(np.abs(alpha[:, None] * v * beta[None, :] - w).max())
    return bool(abs(alpha[0] - alpha[1]) <= tol) and residual <= tol, residual, tuple(alpha), tuple(beta)


def complex_ops(config):
    """``config.step_ops()`` with every block entry cast to complex."""
    return [(pair, tuple(tuple(map(complex, row)) for row in block)) for pair, block in config.step_ops()]


def complex_evolution(config):
    """``evolution_unitary`` composed from complex blocks: a complex128 matrix."""
    return compose_unitary(complex_ops(config), config.mode_basis().size)


def complex_run(config):
    """``run`` evolving complex amplitudes through complex blocks: |B> through
    every step after the outer rotation, then the outer block's complex
    cos(phi) at A and its sin(phi) times that state everywhere else."""
    basis = config.mode_basis()
    (_, ((c_phi, _), (s_phi, _))), *inner_ops = complex_ops(config)
    inner = [0j] * basis.size
    inner[basis.index("B")] = 1 + 0j
    apply_blocks(inner_ops, inner)
    amps = [s_phi * a for a in inner]
    amps[basis.index("A")] = c_phi
    state = PureState(np.array(amps), basis)
    p = (np.abs(state.amplitudes) ** 2).tolist()
    return state, OutcomeDistribution(p[0], p[1], p[2], tuple(p[3:]))


def complex_sweep(k_values, delta_values, bob, include_final_block):
    """``sweep`` as one ``complex_run`` per (K, delta) point, K outer."""
    return [
        SweepRow(k, delta, complex_run(ProtocolConfig(k, delta, bob, include_final_block))[1])
        for k in k_values
        for delta in delta_values
    ]


def four_call_report(config, outcome):
    """The report as four one-element ``apply_blocks`` calls per step after
    the outer rotation, from B: the total and never-C amplitudes, and the
    same two passes on exact path counts with each block's 0/1 nonzero
    pattern, C zeroed in the never-C passes after every step.  The outer
    rotation's block then gives A its cos(phi) and scales every other slot by
    sin(phi), which is never 0, so each path from B is one path from A."""
    basis = config.mode_basis()
    slot = basis.index(outcome)
    b, c = basis.index("B"), basis.index("C")
    (_, outer), *inner_ops = config.step_ops()
    full = [0.0] * basis.size
    full[b] = 1.0
    never = list(full)
    full_n = [0] * basis.size
    full_n[b] = 1
    never_n = list(full_n)
    for pair, block in inner_ops:
        amplitudes = [(pair, block)]
        counts = [(pair, tuple(tuple(int(u != 0) for u in row) for row in block))]
        apply_blocks(amplitudes, full)
        apply_blocks(amplitudes, never)
        apply_blocks(counts, full_n)
        apply_blocks(counts, never_n)
        never[c] = 0.0
        never_n[c] = 0
    (c_phi, _), (s_phi, _) = outer
    if slot == basis.index("A"):  # the one path A -> A, which never visits C
        total = never_amplitude = c_phi
        paths = never_paths = int(c_phi != 0)
    else:
        total, never_amplitude = s_phi * full[slot], s_phi * never[slot]
        paths, never_paths = full_n[slot], never_n[slot]
    c_visiting_paths = paths - never_paths
    return CounterfactualityReport(
        outcome_mode=outcome,
        total_amplitude=complex(total),
        c_visiting_amplitude=complex(total - never_amplitude),
        c_visiting_paths=c_visiting_paths,
        verdict=c_visiting_paths == 0,
        probability=abs(total) ** 2,
        vacuous=abs(total) <= NORM_TOL,
    )
