"""Hierarchical segment-context scoring network.

Frame features are projected and position-embedded, pooled into one token per
change-point segment, contextualized by a pre-norm transformer over the M
segment tokens, gated back into the frames, and refined by a residual stack
of depthwise-separable temporal convolutions. All functions build onto the
caller's tape; parameters arrive as a name -> Node mapping.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import diffcore as dc
from .config import ScorerConfig
from .timeline import SegmentIndexMap


def param_shapes(cfg: ScorerConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable tensor of the scorer."""
    d, dh = cfg.model_dim, cfg.head_dim
    shapes: dict[str, tuple[int, ...]] = {
        "input.proj.w": (cfg.input_dim, d),
        "input.proj.b": (d,),
        "input.norm.gain": (d,),
        "input.norm.bias": (d,),
        "pos.table": (cfg.max_timesteps, d),
    }
    for i in range(cfg.layers):
        shapes[f"seg{i}.norm1.gain"] = (d,)
        shapes[f"seg{i}.norm1.bias"] = (d,)
        for h in range(cfg.heads):
            shapes[f"seg{i}.head{h}.wq"] = (d, dh)
            shapes[f"seg{i}.head{h}.wk"] = (d, dh)
            shapes[f"seg{i}.head{h}.wv"] = (d, dh)
        shapes[f"seg{i}.attn.wo"] = (d, d)
        shapes[f"seg{i}.norm2.gain"] = (d,)
        shapes[f"seg{i}.norm2.bias"] = (d,)
        shapes[f"seg{i}.ffn.w1"] = (d, cfg.ffn_mult * d)
        shapes[f"seg{i}.ffn.b1"] = (cfg.ffn_mult * d,)
        shapes[f"seg{i}.ffn.w2"] = (cfg.ffn_mult * d, d)
        shapes[f"seg{i}.ffn.b2"] = (d,)
    shapes["fusion.gate.w"] = (2 * d, d)
    shapes["fusion.gate.b"] = (d,)
    shapes["fusion.norm.gain"] = (d,)
    shapes["fusion.norm.bias"] = (d,)
    for j in range(cfg.refine_blocks):
        shapes[f"refine{j}.depthwise"] = (d, cfg.kernel)
        shapes[f"refine{j}.pointwise.w"] = (d, d)
        shapes[f"refine{j}.pointwise.b"] = (d,)
    return shapes


def project_and_embed(x: dc.Node, params: Mapping[str, dc.Node]) -> dc.Node:
    """LN(W x + b) + positional row, per timestep. A sequence longer than the
    position table raises ShapeError from `gather_rows`."""
    h = dc.affine(x, params["input.proj.w"], params["input.proj.b"])
    h = dc.layer_norm(h, params["input.norm.gain"], params["input.norm.bias"])
    pos = dc.gather_rows(params["pos.table"], range(x.value.shape[0]))
    return dc.add(h, pos)


def segment_tokenize(h0: dc.Node, seg: SegmentIndexMap) -> dc.Node:
    """One token per segment: the mean of its projected frame tokens, zeros if
    it holds no pick. Recorded as one constant matmul with `seg.token_pool`."""
    return dc.matmul(h0.tape.constant(seg.token_pool), h0)


def _mha(z_norm: dc.Node, params: Mapping[str, dc.Node], cfg: ScorerConfig, i: int) -> dc.Node:
    heads = []
    inv_sqrt_dh = 1.0 / np.sqrt(cfg.head_dim)
    for h in range(cfg.heads):
        q = dc.matmul(z_norm, params[f"seg{i}.head{h}.wq"])
        k = dc.matmul(z_norm, params[f"seg{i}.head{h}.wk"])
        v = dc.matmul(z_norm, params[f"seg{i}.head{h}.wv"])
        attn = dc.softmax_rows(dc.scale(dc.matmul(q, k, transpose_b=True), inv_sqrt_dh))
        heads.append(dc.matmul(attn, v))
    merged = heads[0] if len(heads) == 1 else dc.concat_last(heads)
    return dc.matmul(merged, params[f"seg{i}.attn.wo"])


def segment_transformer(z0: dc.Node, params: Mapping[str, dc.Node], cfg: ScorerConfig) -> dc.Node:
    """Pre-norm encoder stack over the M segment tokens."""
    z = z0
    for i in range(cfg.layers):
        zn = dc.layer_norm(z, params[f"seg{i}.norm1.gain"], params[f"seg{i}.norm1.bias"])
        u = dc.add(z, _mha(zn, params, cfg, i))
        un = dc.layer_norm(u, params[f"seg{i}.norm2.gain"], params[f"seg{i}.norm2.bias"])
        hidden = dc.gelu(dc.affine(un, params[f"seg{i}.ffn.w1"], params[f"seg{i}.ffn.b1"]))
        z = dc.add(u, dc.affine(hidden, params[f"seg{i}.ffn.w2"], params[f"seg{i}.ffn.b2"]))
    return z


def gated_fusion(
    h0: dc.Node, context: dc.Node, seg: SegmentIndexMap, params: Mapping[str, dc.Node]
) -> dc.Node:
    """Inject each frame's segment context through a sigmoid gate, then normalize."""
    g = dc.gather_rows(context, seg.segment_ids)
    gate_in = dc.concat_last([h0, g])
    alpha = dc.sigmoid(dc.affine(gate_in, params["fusion.gate.w"], params["fusion.gate.b"]))
    fused = dc.add(h0, dc.multiply(alpha, g))
    return dc.layer_norm(fused, params["fusion.norm.gain"], params["fusion.norm.bias"])


def temporal_refine(h: dc.Node, params: Mapping[str, dc.Node], cfg: ScorerConfig) -> dc.Node:
    """Residual refinement stack: h + B_n(... B_1(h)), where each block B_j is
    depthwise temporal conv -> GELU -> pointwise mixing.

    The paper's "residual ... temporal refinement stack" is read as one
    residual around the whole stack; the blocks carry no residual of their own.
    """
    psi = h
    for j in range(cfg.refine_blocks):
        local = dc.gelu(dc.depthwise_conv1d(psi, params[f"refine{j}.depthwise"]))
        psi = dc.affine(local, params[f"refine{j}.pointwise.w"], params[f"refine{j}.pointwise.b"])
    return dc.add(h, psi)


def forward(
    x: dc.Node, seg: SegmentIndexMap, params: Mapping[str, dc.Node], cfg: ScorerConfig
) -> dc.Node:
    """Full scorer: T x D features to T x d refined frame tokens."""
    h0 = project_and_embed(x, params)
    context = segment_transformer(segment_tokenize(h0, seg), params, cfg)
    fused = gated_fusion(h0, context, seg, params)
    return temporal_refine(fused, params, cfg)
