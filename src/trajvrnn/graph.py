"""Spatial encoder over the agent graph.

It encodes one timestep (N, .) or any stack of them: every array and
op broadcasts over the leading axes, so a (B, T, N, 2) window with its
(B, T, N) mask encodes in one call, each step as if alone.

Three parallel graph-convolution branches read the same embedded node
features and are fused by learned per-feature weights:

  * static topology: three stacked layers with ReLU over the visibility
    graph, every visible pair linked plus self-loops, symmetrically
    degree-normalised (Kipf & Welling). For a 0/1 mask m, A + I = m m^T,
    so the normalised adjacency is m m^T / K with K visible nodes: each
    layer gives every visible node the projected mean of the visible
    rows and a hidden node 0. The branch runs the layers on that one
    mean row and broadcasts it to the visible nodes;
  * dynamic learnable: a free adjacency matrix trained end-to-end,
    sliced to the live agent count, one layer with ReLU;
  * edge conditioned: a per-edge weight matrix generated from the edge's
    visibility category (both / exactly one / neither endpoint visible),
    averaged over all nodes. Past timesteps only. A category depends only
    on whether each endpoint is visible, so the branch projects the
    visible and the hidden nodes' feature sums under each category and
    gives each node the two its own visibility picks.

Both the static and the edge-conditioned branch read one pooling of the
features into those two sums: nothing is built per pair but the
dynamic branch's learned adjacency.

Visibility masks are plain numpy; only feature paths ride the tape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, linear, matmul, relu, reshape, tmean, transpose
from .errors import CapacityError, ConfigError


def masked_input_vector(coords, mask):
    """Raw past-step embedding input: masked coordinates with the mask
    bit appended, so a missing agent contributes (0, 0, 0)."""
    x = np.asarray(coords, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)[..., None]
    return np.concatenate([x * m, m], axis=-1)


def pool_visibility(features: Tensor, mask) -> Tensor:
    """(.., 2, D) sums of the node features: row 0 over the visible
    nodes, row 1 over the hidden ones."""
    m = np.asarray(mask, dtype=np.float64)
    return matmul(np.stack([m, 1.0 - m], axis=-2), features)


def fuse(branch_outputs, weights) -> Tensor:
    """Weighted elementwise sum of whichever branch outputs are present.

    branch_outputs / weights: equal-length lists; entries may be None to
    drop a branch (disabled by ablation, or EC on a future step).
    """
    total = None
    for out, w in zip(branch_outputs, weights):
        if out is None:
            continue
        term = out * w
        total = term if total is None else total + term
    if total is None:
        raise ConfigError("graph fusion needs at least one enabled branch")
    return total


class SpatialEncoder:
    """Owns the graph parameters and runs the full encoding of one step
    or of a window of steps."""

    def __init__(self, cfg, rng: np.random.Generator, load=None):
        self.cfg = cfg
        d, dg = cfg.d_embed, cfg.d_graph
        e, k = cfg.ec_hidden, cfg.ec_pool
        self.params = {}

        def param(name, shape, fill=None):
            return ad.new_parameter(self.params, f"msgnn.{name}", shape, rng, fill, load)

        def embedding(name, d_in):
            return (param(f"{name}.w0", (d_in, d)), param(f"{name}.b0", (d,), fill=0),
                    param(f"{name}.w1", (d, d)), param(f"{name}.b1", (d,), fill=0))

        self.embed_past = embedding("embed_past", 3)
        self.embed_future = embedding("embed_future", 2)
        self.st_weights = [param("st.0.w", (d, d)), param("st.1.w", (d, d)),
                           param("st.2.w", (d, dg))]
        self.dl_adj = param("dl.adj", (cfg.n_agents_max, cfg.n_agents_max))
        self.dl_weight = param("dl.w", (d, dg))
        self.ec_w0 = param("ec.w0", (3, e))
        self.ec_b0 = param("ec.b0", (e,), fill=0)
        self.ec_w1 = param("ec.w1", (e, k * dg * d))
        self.ec_b1 = param("ec.b1", (k * dg * d,), fill=0)
        self.ec_bias = param("ec.bias", (dg,), fill=0)
        self.fuse_alpha = param("fuse.alpha", (dg,), fill=1)
        self.fuse_beta = param("fuse.beta", (dg,), fill=1)
        self.fuse_gamma = param("fuse.gamma", (dg,), fill=1)

    def embed(self, coords, mask) -> Tensor:
        """Project inputs to node features. A past step (`mask` given)
        masks the coordinates and appends the mask bit; a future step
        (`mask` None) embeds the raw coordinates."""
        if mask is None:
            inp = Tensor(np.asarray(coords, dtype=np.float64))
            w0, b0, w1, b1 = self.embed_future
        else:
            inp = Tensor(masked_input_vector(coords, mask))
            w0, b0, w1, b1 = self.embed_past
        return linear([linear([inp], w0, b0, tanh=True)], w1, b1)

    def edge_weight_matrices(self) -> Tensor:
        """Generate the three (D_G, D) category weight matrices, laid out
        transposed side by side as one (D, 3 D_G) tensor.

        Two affine maps with a tanh between produce pool_channels copies
        of each matrix, which are averaged (the pooling step).
        """
        cfg = self.cfg
        onehots = Tensor(np.eye(3))
        hidden = linear([onehots], self.ec_w0, self.ec_b0, tanh=True)
        raw = linear([hidden], self.ec_w1, self.ec_b1)
        stacked = reshape(raw, (3, cfg.ec_pool, cfg.d_graph, cfg.d_embed))
        thetas = tmean(stacked, axis=1)
        return transpose(reshape(thetas, (3 * cfg.d_graph, cfg.d_embed)))

    def st_branch(self, pooled: Tensor, mask) -> Tensor:
        """The three layers on the mean of the visible rows, which `pooled`
        (from `pool_visibility`) holds as a sum, given to every visible
        node; a hidden node, and every node of an all-hidden step, gets 0."""
        m = np.asarray(mask, dtype=np.float64)
        k = np.maximum(m.sum(axis=-1), 1.0)[..., None, None]
        out = pooled[..., 0:1, :] * (1.0 / k)
        for w in self.st_weights:
            out = relu(linear([out], w))
        return out * m[..., None]

    def dl_branch(self, features: Tensor) -> Tensor:
        """relu(adj F W) with the learned adjacency sliced to N agents."""
        n = features.shape[-2]
        if n > self.cfg.n_agents_max:
            raise CapacityError(f"{n} agents exceed the configured maximum "
                                f"{self.cfg.n_agents_max}")
        adj = self.dl_adj[0:n, 0:n]
        return relu(linear([matmul(adj, features)], self.dl_weight))

    def ec_branch(self, pooled: Tensor, mask, thetas=None) -> Tensor:
        """Edge-conditioned update: mean over all nodes j (self included,
        so the divisor is N) of Theta[c(i, j)] f_j, with category c(i, j)
        = 2 - m_i - m_j. `thetas` is `edge_weight_matrices()`. With F_vis
        and F_hid the two rows of `pooled`, node i's sum is
        Theta[c(m_i, 1)] F_vis + Theta[c(m_i, 0)] F_hid."""
        if thetas is None:
            thetas = self.edge_weight_matrices()
        m = np.asarray(mask, dtype=np.float64)
        # row 3p + c: pooled row p under category c
        projected = reshape(linear([pooled], thetas), (*pooled.shape[:-2], 6, -1))
        # node i takes rows c(m_i, 1) and 3 + c(m_i, 0): a visible node rows 0
        # (Theta_0 F_vis) and 4 (Theta_1 F_hid), a hidden one rows 1 and 5
        off = np.zeros_like(m)
        take = np.stack([m, 1.0 - m, off, off, m, 1.0 - m], axis=-1)
        return matmul(take, projected) * (1.0 / m.shape[-1]) + self.ec_bias

    def forward(self, coords, mask, thetas=None) -> Tensor:
        """Embed, run the enabled branches, fuse. `coords` (.., N, 2) and
        `mask` (.., N) are numpy; the result is an (.., N, D_G) tensor.

        `mask` None marks a future step: every agent is visible and the
        edge-conditioned branch, which only runs on past steps, is skipped.
        """
        cfg = self.cfg
        past = mask is not None
        features = self.embed(coords, mask)
        if not past:
            mask = np.ones(np.asarray(coords).shape[:-1])
        run_ec = cfg.use_ec and past
        pooled = pool_visibility(features, mask) if cfg.use_st or run_ec else None
        f_st = self.st_branch(pooled, mask) if cfg.use_st else None
        f_dl = self.dl_branch(features) if cfg.use_dl else None
        f_ec = self.ec_branch(pooled, mask, thetas) if run_ec else None
        return fuse([f_st, f_dl, f_ec],
                    [self.fuse_alpha, self.fuse_beta, self.fuse_gamma])
