"""RC-SFISTA as a rank program on the SPMD engine reproduces the BSP run.

Each virtual rank owns its column block, draws the shared-seed samples
itself (paper §5.5), builds its local ``(H_p, R_p)`` blocks and joins one
stage-C allreduce of k(d(d+1)/2 + d) words per round (each symmetric
``H_j`` packed as its upper triangle); stage D is replicated.
Same rank count means same reduction order, so the engine's iterate must
equal :func:`~repro.core.rc_sfista_dist.rc_sfista_distributed` on the BSP
cluster bit for bit, with the same per-rank messages and words.
"""

import numpy as np
import pytest

from repro.core._dist_common import distribute_problem, hessian_reuse_update
from repro.core.fista import momentum_mu, t_next
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.distsim.bsp import BSPCluster
from repro.distsim.engine import SPMDEngine
from repro.runtime import RuntimeConfig
from repro.sparse.ops import packed_size, unpack_symmetric
from repro.utils.rng import as_generator, minibatch_size, sample_indices

NRANKS, K, B, SEED, ITERS = 4, 2, 0.2, 7, 6


def _rank_program(problem, data, *, gamma, comm):
    """Plain-estimator RC-SFISTA (S=1, one epoch) as a per-rank generator."""
    d = problem.d
    t = packed_size(d)
    stride = t + d
    mbar = minibatch_size(problem.m, B)

    def program(ctx):
        rank = data.ranks[ctx.rank]
        rng = as_generator(SEED)  # the shared seed: every rank draws the same I_n
        w = np.zeros(d)
        w_prev = w.copy()
        H = np.empty((d, d))
        t_prev = 1.0
        for start in range(0, ITERS, K):
            block = min(K, ITERS - start)
            idx_sets = [sample_indices(rng, problem.m, mbar) for _ in range(block)]
            c, r, _ = rank.local_model(w, problem.loss)
            blocks, _, _ = rank.sampled_hessian_contribution(
                idx_sets, mbar, d, weights=c, response=r, rhs=True
            )
            combined = yield ctx.allreduce(blocks.ravel(), comm=comm)
            for j in range(block):
                unpack_symmetric(combined[j * stride : j * stride + t], d, H)
                R = combined[j * stride + t : (j + 1) * stride]
                t_cur = t_next(t_prev)
                v = w + momentum_mu(t_prev, t_cur) * (w - w_prev)
                w_prev, w = w, hessian_reuse_update(
                    H, R, v, gamma=gamma, prox=problem.penalty.prox
                )
                t_prev = t_cur
        return w

    return program


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "no-dedup"])
@pytest.mark.parametrize("comm", ["dense", "sparse", "auto"])
def test_engine_program_matches_bsp(tiny_covtype_problem, comm, dedup):
    """The engine's zero-copy fan-out (``dedup``) must not move a bit."""
    problem = tiny_covtype_problem
    cluster = BSPCluster(NRANKS, "comet_effective")
    bsp = rc_sfista_distributed(
        problem, NRANKS, k=K, b=B, seed=SEED, estimator="plain", epochs=1,
        iters_per_epoch=ITERS, monitor_every=ITERS,
        runtime=RuntimeConfig(comm=comm, cluster=cluster),
    )
    engine = SPMDEngine(NRANKS, "comet_effective", dedup=dedup)
    program = _rank_program(
        problem, distribute_problem(problem, NRANKS),
        gamma=bsp.meta["step_size"], comm=comm,
    )
    per_rank_w = engine.run(program)

    for w in per_rank_w:
        assert np.array_equal(w, bsp.w)
    for eng_c, bsp_c in zip(engine.counters, cluster.counters):
        assert eng_c.messages == bsp_c.messages
        assert eng_c.words == bsp_c.words
