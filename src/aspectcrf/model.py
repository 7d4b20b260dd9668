"""Full model: decayed Bi-GRU encoding, CRF attention pooling, 3-way softmax.

Forward path for one instance:

    x_t = [word embedding ; aspect indicator]      (dropout here in training)
    h   = stacked Bi-GRU(x)                        (dropout here in training)
    r_t = f(t) * h_t                               position decay
    q   = [s_1; ...; s_a]  with  s_k = sum_t P_k(z_t = Yes | x) r_t
    P(y) = softmax(W q + b)

The no_structured_attention ablation replaces q by the unweighted mean of
r_t (plain Bi-GRU pooling), which also shrinks the classifier input to 2H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import classifier as clf
from . import crf, encoder
from .autodiff import Tensor
from .config import RunConfig
from .data import AspectInstance, EmbeddingMatrix


@dataclass
class ModelParams:
    embedding: Tensor  # |V| x d_word
    indicator: Tensor  # 2 x d_as
    gru_layers: list[encoder.GruLayerParams]
    heads: list[crf.CrfHeadParams]  # empty under no_structured_attention
    cls: clf.ClassifierParams
    pretrained_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> tensor map; shared tensors appear exactly once."""
        named: dict[str, Tensor] = {"embedding": self.embedding, "indicator": self.indicator}
        for li, layer in enumerate(self.gru_layers):
            for dname, d in (("fwd", layer.forward), ("bwd", layer.backward)):
                named[f"gru.l{li}.{dname}.w_ih"] = d.w_ih
                named[f"gru.l{li}.{dname}.w_hh"] = d.w_hh
                named[f"gru.l{li}.{dname}.b_ih"] = d.b_ih
                named[f"gru.l{li}.{dname}.b_hh"] = d.b_hh
        seen: set[int] = set()
        for hi, head in enumerate(self.heads):
            named[f"head{hi}.w_emit"] = head.w_emit
            named[f"head{hi}.b_emit"] = head.b_emit
            for tname, t in (("trans", head.trans), ("start", head.start), ("end", head.end)):
                if id(t) not in seen:
                    seen.add(id(t))
                    named[f"head{hi}.{tname}"] = t
        named["cls.w"] = self.cls.w
        named["cls.b"] = self.cls.b
        return named

    def trainable_tensors(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named_tensors().items() if v.requires_grad}


def q_dim(config: RunConfig) -> int:
    rep = 2 * config.hidden_size
    return rep if config.no_structured_attention else config.crf_heads * rep


def init_params(
    config: RunConfig,
    vocab_size: int,
    rng: np.random.Generator,
    embeddings: EmbeddingMatrix | None = None,
) -> ModelParams:
    """Build all parameter tensors; the rng draw order is fixed.

    When a pretrained embedding matrix is given its values are adopted as-is;
    otherwise rows are sampled uniform in [-0.1, 0.1].
    """
    if embeddings is not None:
        if embeddings.matrix.shape != (vocab_size, config.embedding_dim):
            raise ValueError(
                f"embedding matrix {embeddings.matrix.shape} does not match "
                f"vocab {vocab_size} x dim {config.embedding_dim}"
            )
        emb_data = embeddings.matrix.copy()
        mask = embeddings.pretrained.copy()
    else:
        emb_data = rng.uniform(-0.1, 0.1, size=(vocab_size, config.embedding_dim))
        mask = np.zeros(vocab_size, dtype=bool)
    embedding = Tensor(emb_data, requires_grad=config.embeddings_trainable, name="embedding")
    indicator = Tensor(
        rng.uniform(-0.1, 0.1, size=(2, config.d_as)), requires_grad=True, name="indicator"
    )

    layers = []
    d_in = config.embedding_dim + config.d_as
    for li in range(config.gru_layers):
        layers.append(
            encoder.GruLayerParams(
                forward=encoder.init_gru_direction(d_in, config.hidden_size, rng, f"gru.l{li}.fwd"),
                backward=encoder.init_gru_direction(d_in, config.hidden_size, rng, f"gru.l{li}.bwd"),
            )
        )
        d_in = 2 * config.hidden_size

    heads: list[crf.CrfHeadParams] = []
    if not config.no_structured_attention:
        rep = 2 * config.hidden_size
        for hi in range(config.crf_heads):
            head = crf.init_crf_head(rep, rng, f"head{hi}")
            if config.share_transitions and heads:
                head.trans = heads[0].trans
                head.start = heads[0].start
                head.end = heads[0].end
            heads.append(head)

    return ModelParams(
        embedding=embedding,
        indicator=indicator,
        gru_layers=layers,
        heads=heads,
        cls=clf.init_classifier(q_dim(config), rng),
        pretrained_mask=mask,
    )


@dataclass
class ForwardResult:
    logits: Tensor  # 3
    head_marginals: Tensor | None  # K x n; None under no_structured_attention


def forward(
    params: ModelParams,
    instance: AspectInstance,
    config: RunConfig,
    max_len: int,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """One instance through the whole network. Dropout only in train mode."""
    x = encoder.embed_input(
        instance.token_ids,
        instance.aspect_start,
        instance.aspect_end,
        params.embedding,
        params.indicator,
        no_aspect_indicator=config.no_aspect_indicator,
    )
    use_dropout = train_mode and config.dropout > 0
    if use_dropout:
        assert rng is not None, "train-mode forward needs an rng for dropout"
        x = ad.mul(x, ad.dropout_mask(x.shape, config.dropout, rng))
    h = encoder.bigru_encode(x, params.gru_layers)
    if use_dropout:
        h = ad.mul(h, ad.dropout_mask(h.shape, config.dropout, rng))
    spec = encoder.DecaySpec(gamma=config.effective_gamma, max_len=max_len)
    r = encoder.apply_decay(h, instance.aspect_start, instance.aspect_end, spec)
    if config.no_structured_attention:
        q, marginals = ad.mean(r, axis=0), None
    else:
        q, marginals = crf.multi_head(r, params.heads)
    return ForwardResult(logits=clf.logits(q, params.cls), head_marginals=marginals)


def batch_loss(
    params: ModelParams,
    instances: list[AspectInstance],
    config: RunConfig,
    max_len: int,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean NLL over the instances, forwarded in order (which fixes the dropout draws)."""
    logits = [forward(params, inst, config, max_len, train_mode, rng).logits for inst in instances]
    return clf.nll_loss(ad.stack(logits), [inst.label for inst in instances])


def predict_instance(
    params: ModelParams, instance: AspectInstance, config: RunConfig, max_len: int
) -> clf.Prediction:
    result = forward(params, instance, config, max_len)
    probs = ad.softmax_weights(result.logits.data)
    pred = clf.Prediction(probabilities=probs)
    marginals = result.head_marginals
    pred.head_marginals = [] if marginals is None else list(marginals.numpy())
    return pred


def evaluate(
    params: ModelParams,
    instances: list[AspectInstance],
    config: RunConfig,
    max_len: int,
) -> tuple[float, float, list[str]]:
    """(accuracy, macro-F1, predicted labels) with dropout disabled."""
    predicted = [predict_instance(params, inst, config, max_len).label for inst in instances]
    gold = [inst.label for inst in instances]
    accuracy, macro_f1 = clf.metrics(predicted, gold)
    return accuracy, macro_f1, predicted
