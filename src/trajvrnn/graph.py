"""Per-timestep spatial encoder over the agent graph.

Three parallel graph-convolution branches read the same embedded node
features and are fused by learned per-feature weights:

  * static topology: binary visibility adjacency, degree-normalised,
    three stacked layers with ReLU;
  * dynamic learnable: a free adjacency matrix trained end-to-end,
    sliced to the live agent count, one layer with ReLU;
  * edge conditioned: a per-edge weight matrix generated from the edge's
    visibility category (both / exactly one / neither endpoint visible),
    averaged over all nodes. Past timesteps only.

Visibility masks are plain numpy; only feature paths ride the tape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, linear, matmul, relu, reshape, tanh, tmean, transpose
from .errors import CapacityError, ConfigError

CAT_BOTH_VISIBLE = 0
CAT_ONE_VISIBLE = 1
CAT_NONE_VISIBLE = 2


def masked_input_vector(coords, mask, fill=None):
    """Raw past-phase embedding input: masked coordinates with the mask
    bit appended, so a missing agent contributes (0, 0, 0), or its `fill`
    coordinates and a 0 bit when `fill` (.., N, 2) is given."""
    x = np.asarray(coords, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)[..., None]
    shown = x * m if fill is None else x * m + (1.0 - m) * fill
    return np.concatenate([shown, m], axis=-1)


def build_static_adjacency(mask):
    """Visibility adjacency and self-loop matrix from a binary mask.

    mask: (N,) or (B, N). Returns (A, I) with shape (..., N, N):
    A[i, j] = 1 iff i != j and both visible; I = diag(mask).
    """
    m = np.asarray(mask, dtype=np.float64)
    squeeze = m.ndim == 1
    if squeeze:
        m = m[None, :]
    n = m.shape[-1]
    a = m[:, :, None] * m[:, None, :]
    eye = np.eye(n, dtype=bool)
    a[:, eye] = 0.0
    i = np.zeros_like(a)
    i[:, eye] = m
    if squeeze:
        return a[0], i[0]
    return a, i


def normalize_static(a, i, literal=False):
    """Degree-normalise A + I. Zero degrees are clamped to 1 first, so
    fully invisible nodes keep all-zero rows and columns.

    By default the symmetric form D^{-1/2} (A + I) D^{-1/2} is used;
    `literal=True` selects D^{-1/2} (A + I) D^{+1/2} instead.
    """
    s = np.asarray(a, dtype=np.float64) + np.asarray(i, dtype=np.float64)
    deg = s.sum(axis=-1)
    deg = np.maximum(deg, 1.0)
    left = 1.0 / np.sqrt(deg)
    right = np.sqrt(deg) if literal else left
    return left[..., :, None] * s * right[..., None, :]


def edge_categories(mask):
    """Per-pair visibility category codes, symmetric in (i, j)."""
    m = np.asarray(mask, dtype=np.int64)
    squeeze = m.ndim == 1
    if squeeze:
        m = m[None, :]
    cats = 2 - (m[:, :, None] + m[:, None, :])
    return cats[0] if squeeze else cats


def category_masks(cats):
    """One float indicator matrix per category, stacked list of 3."""
    c = np.asarray(cats)
    return [(c == k).astype(np.float64) for k in range(3)]


def st_gcl_forward(features: Tensor, a_hat, weight: Tensor) -> Tensor:
    """One static-topology layer: relu(A_hat @ F @ W)."""
    a_hat = ad.as_tensor(a_hat)
    return relu(matmul(matmul(a_hat, features), weight))


def dl_gcl_forward(features: Tensor, adj: Tensor, weight: Tensor) -> Tensor:
    """One dynamic-learnable layer: relu(A_dl @ F @ W)."""
    return relu(matmul(matmul(adj, features), weight))


def ec_gcl_forward(features: Tensor, cats, thetas, bias: Tensor) -> Tensor:
    """Edge-conditioned update: mean over all nodes j of Theta[cat(i,j)] f_j.

    `thetas` is a (3, D_G, D) tensor of category weight matrices; the
    neighbourhood is every node including self, so the mean divisor is N.
    """
    n = features.shape[-2]
    out = None
    for k, cmask in enumerate(category_masks(cats)):
        projected = matmul(features, transpose(thetas[k]))
        term = matmul(Tensor(cmask), projected)
        out = term if out is None else out + term
    return out * (1.0 / n) + bias


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
    """Owns the graph parameters and runs the full per-timestep encoding."""

    def __init__(self, cfg, rng: np.random.Generator, prefix="msgnn", load=None):
        self.cfg = cfg
        d, dg = cfg.d_embed, cfg.d_graph
        e, k = cfg.ec_hidden, cfg.ec_pool
        self.params = {}

        def param(name, shape, fill=None):
            return ad.new_parameter(self.params, f"{prefix}.{name}", shape, rng, fill, load)

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

    def embed(self, coords, mask, phase, fill=None) -> Tensor:
        """Project inputs to node features. Past steps mask the coordinates
        (missing agents take `fill`, default 0) and append the mask bit;
        future steps embed the raw coordinates."""
        x = np.asarray(coords, dtype=np.float64)
        if phase == "past":
            inp = Tensor(masked_input_vector(x, mask, fill))
            w0, b0, w1, b1 = self.embed_past
        elif phase == "future":
            inp = Tensor(x)
            w0, b0, w1, b1 = self.embed_future
        else:
            raise ConfigError(f"unknown phase {phase!r}")
        return linear([tanh(linear([inp], w0, b0))], w1, b1)

    def edge_weight_matrices(self) -> Tensor:
        """Generate the three category weight matrices, shape (3, D_G, D).

        Two affine maps with a tanh between produce pool_channels copies
        of each matrix, which are averaged (the pooling step).
        """
        cfg = self.cfg
        onehots = Tensor(np.eye(3))
        hidden = tanh(linear([onehots], self.ec_w0, self.ec_b0))
        raw = linear([hidden], self.ec_w1, self.ec_b1)
        stacked = reshape(raw, (3, cfg.ec_pool, cfg.d_graph, cfg.d_embed))
        return tmean(stacked, axis=1)

    def st_branch(self, features: Tensor, a_hat) -> Tensor:
        out = features
        for w in self.st_weights:
            out = st_gcl_forward(out, a_hat, w)
        return out

    def dl_branch(self, features: Tensor) -> Tensor:
        n = features.shape[-2]
        if n > self.cfg.n_agents_max:
            raise CapacityError(f"{n} agents exceed the configured maximum "
                                f"{self.cfg.n_agents_max}")
        adj = self.dl_adj[0:n, 0:n]
        return dl_gcl_forward(features, adj, self.dl_weight)

    def ec_branch(self, features: Tensor, cats, thetas=None) -> Tensor:
        if thetas is None:
            thetas = self.edge_weight_matrices()
        return ec_gcl_forward(features, cats, thetas, self.ec_bias)

    def forward(self, coords, mask, phase, thetas=None, fill=None) -> Tensor:
        """Embed, run the enabled branches, fuse. `coords` (.., N, 2),
        `mask` (.., N) and the optional past-step `fill` for missing agents
        (.., N, 2) are numpy; the result is an (.., N, D_G) tensor.

        The edge-conditioned branch only runs on past steps. Future steps
        treat every agent as visible.
        """
        cfg = self.cfg
        if phase == "future":
            mask = np.ones(np.asarray(coords).shape[:-1])
        features = self.embed(coords, mask, phase, fill)
        f_st = f_dl = f_ec = None
        if cfg.use_st:
            a, i = build_static_adjacency(mask)
            a_hat = normalize_static(a, i, literal=(cfg.static_norm == "literal"))
            f_st = self.st_branch(features, a_hat)
        if cfg.use_dl:
            f_dl = self.dl_branch(features)
        if cfg.use_ec and phase == "past":
            f_ec = self.ec_branch(features, edge_categories(mask), thetas)
        return fuse([f_st, f_dl, f_ec],
                    [self.fuse_alpha, self.fuse_beta, self.fuse_gamma])
