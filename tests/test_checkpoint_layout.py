"""The `.npz` checkpoint layout: every model's parameter names, their order
and their shapes, pinned at an L=2 config.

A change to the model code that renamed, dropped, added or reordered a
parameter would break every saved checkpoint and, through the order, the
RNG draws of init. The lists are written out by hand, not derived.
"""

from slaterank.ar import init_ar_params
from slaterank.evaluator import EvaluatorConfig, init_evaluator_params
from slaterank.generator import GeneratorConfig, init_generator_params

GEN = GeneratorConfig(n_max=6, m=3, d=8, h=2, L=2, d_x=4, d_t=5)
EV = EvaluatorConfig(types=("click", "like"), weights=(1.0, 0.5), d=8, h=2, d_x=4, m=3)

GENERATOR_LAYOUT = [
    ("embed.x.w", (4, 8)), ("embed.x.b", (8,)), ("cand.0.ln1.g", (8,)),
    ("cand.0.ln1.b", (8,)), ("cand.0.attn.wq", (8, 8)), ("cand.0.attn.wk", (8, 8)),
    ("cand.0.attn.wv", (8, 8)), ("cand.0.attn.wo", (8, 8)), ("cand.0.ln2.g", (8,)),
    ("cand.0.ln2.b", (8,)), ("cand.0.ffn.w1", (8, 16)), ("cand.0.ffn.w2", (16, 8)),
    ("cand.1.ln1.g", (8,)), ("cand.1.ln1.b", (8,)), ("cand.1.attn.wq", (8, 8)),
    ("cand.1.attn.wk", (8, 8)), ("cand.1.attn.wv", (8, 8)), ("cand.1.attn.wo", (8, 8)),
    ("cand.1.ln2.g", (8,)), ("cand.1.ln2.b", (8,)), ("cand.1.ffn.w1", (8, 16)),
    ("cand.1.ffn.w2", (16, 8)), ("cand.final_ln.g", (8,)), ("cand.final_ln.b", (8,)),
    ("pos.table", (3, 5)), ("embed.t.w", (5, 8)), ("embed.t.b", (8,)),
    ("pos.0.ln1.g", (8,)), ("pos.0.ln1.b", (8,)), ("pos.0.self.wq", (8, 8)),
    ("pos.0.self.wk", (8, 8)), ("pos.0.self.wv", (8, 8)), ("pos.0.self.wo", (8, 8)),
    ("pos.0.ln2.g", (8,)), ("pos.0.ln2.b", (8,)), ("pos.0.cross.wq", (8, 8)),
    ("pos.0.cross.wk", (8, 8)), ("pos.0.cross.wv", (8, 8)), ("pos.0.cross.wo", (8, 8)),
    ("pos.0.ln3.g", (8,)), ("pos.0.ln3.b", (8,)), ("pos.0.ffn.w1", (8, 16)),
    ("pos.0.ffn.w2", (16, 8)), ("pos.1.ln1.g", (8,)), ("pos.1.ln1.b", (8,)),
    ("pos.1.self.wq", (8, 8)), ("pos.1.self.wk", (8, 8)), ("pos.1.self.wv", (8, 8)),
    ("pos.1.self.wo", (8, 8)), ("pos.1.ln2.g", (8,)), ("pos.1.ln2.b", (8,)),
    ("pos.1.cross.wq", (8, 8)), ("pos.1.cross.wk", (8, 8)), ("pos.1.cross.wv", (8, 8)),
    ("pos.1.cross.wo", (8, 8)), ("pos.1.ln3.g", (8,)), ("pos.1.ln3.b", (8,)),
    ("pos.1.ffn.w1", (8, 16)), ("pos.1.ffn.w2", (16, 8)), ("pos.final_ln.g", (8,)),
    ("pos.final_ln.b", (8,)),
]
AR_LAYOUT = [
    ("embed.x.w", (4, 8)), ("embed.x.b", (8,)), ("cand.0.ln1.g", (8,)),
    ("cand.0.ln1.b", (8,)), ("cand.0.attn.wq", (8, 8)), ("cand.0.attn.wk", (8, 8)),
    ("cand.0.attn.wv", (8, 8)), ("cand.0.attn.wo", (8, 8)), ("cand.0.ln2.g", (8,)),
    ("cand.0.ln2.b", (8,)), ("cand.0.ffn.w1", (8, 16)), ("cand.0.ffn.w2", (16, 8)),
    ("cand.1.ln1.g", (8,)), ("cand.1.ln1.b", (8,)), ("cand.1.attn.wq", (8, 8)),
    ("cand.1.attn.wk", (8, 8)), ("cand.1.attn.wv", (8, 8)), ("cand.1.attn.wo", (8, 8)),
    ("cand.1.ln2.g", (8,)), ("cand.1.ln2.b", (8,)), ("cand.1.ffn.w1", (8, 16)),
    ("cand.1.ffn.w2", (16, 8)), ("cand.final_ln.g", (8,)), ("cand.final_ln.b", (8,)),
    ("dec.bos", (1, 8)), ("dec.pos", (3, 8)), ("dec.in.w", (8, 8)), ("dec.in.b", (8,)),
    ("dec.0.ln1.g", (8,)), ("dec.0.ln1.b", (8,)), ("dec.0.self.wq", (8, 8)),
    ("dec.0.self.wk", (8, 8)), ("dec.0.self.wv", (8, 8)), ("dec.0.self.wo", (8, 8)),
    ("dec.0.ln2.g", (8,)), ("dec.0.ln2.b", (8,)), ("dec.0.cross.wq", (8, 8)),
    ("dec.0.cross.wk", (8, 8)), ("dec.0.cross.wv", (8, 8)), ("dec.0.cross.wo", (8, 8)),
    ("dec.0.ln3.g", (8,)), ("dec.0.ln3.b", (8,)), ("dec.0.ffn.w1", (8, 16)),
    ("dec.0.ffn.w2", (16, 8)), ("dec.1.ln1.g", (8,)), ("dec.1.ln1.b", (8,)),
    ("dec.1.self.wq", (8, 8)), ("dec.1.self.wk", (8, 8)), ("dec.1.self.wv", (8, 8)),
    ("dec.1.self.wo", (8, 8)), ("dec.1.ln2.g", (8,)), ("dec.1.ln2.b", (8,)),
    ("dec.1.cross.wq", (8, 8)), ("dec.1.cross.wk", (8, 8)), ("dec.1.cross.wv", (8, 8)),
    ("dec.1.cross.wo", (8, 8)), ("dec.1.ln3.g", (8,)), ("dec.1.ln3.b", (8,)),
    ("dec.1.ffn.w1", (8, 16)), ("dec.1.ffn.w2", (16, 8)), ("dec.final_ln.g", (8,)),
    ("dec.final_ln.b", (8,)),
]
EVALUATOR_LAYOUT = [
    ("ev.embed.w", (4, 8)), ("ev.embed.b", (8,)), ("ev.pos", (3, 8)),
    ("ev.ln1.g", (8,)), ("ev.ln1.b", (8,)), ("ev.attn.wq", (8, 8)),
    ("ev.attn.wk", (8, 8)), ("ev.attn.wv", (8, 8)), ("ev.attn.wo", (8, 8)),
    ("ev.ln2.g", (8,)), ("ev.ln2.b", (8,)), ("ev.ffn.w1", (8, 16)),
    ("ev.ffn.w2", (16, 8)), ("ev.final_ln.g", (8,)), ("ev.final_ln.b", (8,)),
    ("ev.head.click.w", (8, 1)), ("ev.head.click.b", (1,)), ("ev.head.like.w", (8, 1)),
    ("ev.head.like.b", (1,)),
]


def layout(params):
    return [(name, tensor.data.shape) for name, tensor in params.items()]


def test_generator_checkpoint_layout():
    assert layout(init_generator_params(GEN)) == GENERATOR_LAYOUT


def test_ar_checkpoint_layout():
    assert layout(init_ar_params(GEN)) == AR_LAYOUT


def test_evaluator_checkpoint_layout():
    assert layout(init_evaluator_params(EV)) == EVALUATOR_LAYOUT
