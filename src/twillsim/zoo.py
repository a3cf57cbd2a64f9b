"""The packaged model zoo: per-layer descriptors built from architecture code.

Each descriptor is a per-layer table (op type, precision, FLOPs, shapes,
conv geometry) synthesized from the model's public architecture config.
FLOP counts are exact integers for one reference inference unit:
one image for CNNs and vision transformers, one 128-token sequence for
text encoders, one generated token for decoder LLMs.

`descriptor_text(name)` renders a model as descriptor JSON, the same
text a user-supplied descriptor file holds, so packaged and user models
enter the simulator through one parser.
"""

from __future__ import annotations

import functools
import json

PRECISION = "FP16"


def layer(op, flops, in_shape, out_shape, kernel=None, stride=None, padding=None):
    d = {
        "op_type": op,
        "precision": PRECISION,
        "flops": int(flops),
        "in_shape": list(in_shape),
        "out_shape": list(out_shape),
    }
    if kernel is not None:
        d["kernel"] = list(kernel)
        d["stride"] = list(stride)
        d["padding"] = list(padding)
    return d


def conv(cin, cout, h_in, w_in, k, s, p, groups=1):
    h_out = (h_in + 2 * p - k) // s + 1
    w_out = (w_in + 2 * p - k) // s + 1
    flops = 2 * k * k * (cin // groups) * cout * h_out * w_out
    return (
        layer("Conv", flops, [1, cin, h_in, w_in], [1, cout, h_out, w_out],
              kernel=[k, k], stride=[s, s], padding=[p, p]),
        h_out,
        w_out,
    )


def fc(n_in, n_out):
    return layer("FullyConnected", 2 * n_in * n_out, [1, n_in], [1, n_out],
                 kernel=[1, 1], stride=[1, 1], padding=[0, 0])


def elemwise(op, c, h, w, per_elem=1):
    n = c * h * w
    return layer(op, per_elem * n, [1, c, h, w], [1, c, h, w])


def matmul(m, k, n, in_shape, out_shape):
    return layer("MatMul", 2 * m * k * n, in_shape, out_shape)


# ---------------------------------------------------------------- CNNs

def vgg19():
    cfg = [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
           512, 512, 512, 512, "M", 512, 512, 512, 512, "M"]
    layers = []
    c, h, w = 3, 224, 224
    for item in cfg:
        if item == "M":
            n_out = c * (h // 2) * (w // 2)
            layers.append(layer("MaxPool", 4 * n_out, [1, c, h, w], [1, c, h // 2, w // 2]))
            h, w = h // 2, w // 2
        else:
            ly, h, w = conv(c, item, h, w, k=3, s=1, p=1)
            layers.append(ly)
            c = item
            layers.append(elemwise("Relu", c, h, w))
    n_flat = c * h * w
    layers.append(layer("Flatten", 0, [1, c, h, w], [1, n_flat]))
    for n_in, n_out in [(n_flat, 4096), (4096, 4096)]:
        layers.append(fc(n_in, n_out))
        layers.append(layer("Relu", n_out, [1, n_out], [1, n_out]))
    layers.append(fc(4096, 1000))
    layers.append(layer("Softmax", 3 * 1000, [1, 1000], [1, 1000]))
    return layers


def resnet(blocks):
    layers = []
    ly, h, w = conv(3, 64, 224, 224, k=7, s=2, p=3)
    layers.append(ly)
    layers.append(elemwise("BatchNormalization", 64, h, w, per_elem=2))
    layers.append(elemwise("Relu", 64, h, w))
    n_out = 64 * (h // 2) * (w // 2)
    layers.append(layer("MaxPool", 9 * n_out, [1, 64, h, w], [1, 64, h // 2, w // 2]))
    h = w = h // 2
    c_in = 64
    for stage, (width, reps) in enumerate(zip((64, 128, 256, 512), blocks)):
        c_out = width * 4
        for i in range(reps):
            s = 2 if (stage > 0 and i == 0) else 1
            ly, h2, w2 = conv(c_in, width, h, w, k=1, s=s, p=0)
            layers.append(ly)
            layers.append(elemwise("BatchNormalization", width, h2, w2, per_elem=2))
            layers.append(elemwise("Relu", width, h2, w2))
            ly, h2, w2 = conv(width, width, h2, w2, k=3, s=1, p=1)
            layers.append(ly)
            layers.append(elemwise("BatchNormalization", width, h2, w2, per_elem=2))
            layers.append(elemwise("Relu", width, h2, w2))
            ly, _, _ = conv(width, c_out, h2, w2, k=1, s=1, p=0)
            layers.append(ly)
            layers.append(elemwise("BatchNormalization", c_out, h2, w2, per_elem=2))
            if i == 0:
                ly, _, _ = conv(c_in, c_out, h, w, k=1, s=s, p=0)
                layers.append(ly)
                layers.append(elemwise("BatchNormalization", c_out, h2, w2, per_elem=2))
            layers.append(elemwise("Add", c_out, h2, w2))
            layers.append(elemwise("Relu", c_out, h2, w2))
            h, w, c_in = h2, w2, c_out
    layers.append(layer("GlobalAveragePool", c_in * h * w, [1, c_in, h, w], [1, c_in]))
    layers.append(fc(c_in, 1000))
    layers.append(layer("Softmax", 3 * 1000, [1, 1000], [1, 1000]))
    return layers


def efficientnet_b4():
    # B0 stage template scaled by width 1.4 / depth 1.8 (rounded as released).
    stages = [
        # expand, c_out, repeats, kernel, stride
        (1, 24, 2, 3, 1),
        (6, 32, 4, 3, 2),
        (6, 56, 4, 5, 2),
        (6, 112, 6, 3, 2),
        (6, 160, 6, 5, 1),
        (6, 272, 8, 5, 2),
        (6, 448, 2, 3, 1),
    ]
    layers = []
    ly, h, w = conv(3, 48, 380, 380, k=3, s=2, p=1)
    layers.append(ly)
    layers.append(elemwise("BatchNormalization", 48, h, w, per_elem=2))
    layers.append(elemwise("SiLU", 48, h, w))
    c_in = 48
    for expand, c_out, reps, k, stride in stages:
        for i in range(reps):
            s = stride if i == 0 else 1
            mid = c_in * expand
            if expand != 1:
                ly, h2, w2 = conv(c_in, mid, h, w, k=1, s=1, p=0)
                layers.append(ly)
                layers.append(elemwise("BatchNormalization", mid, h2, w2, per_elem=2))
                layers.append(elemwise("SiLU", mid, h2, w2))
            ly, h2, w2 = conv(mid, mid, h, w, k=k, s=s, p=k // 2, groups=mid)
            layers.append(ly)
            layers.append(elemwise("BatchNormalization", mid, h2, w2, per_elem=2))
            layers.append(elemwise("SiLU", mid, h2, w2))
            # squeeze-excite on the expanded tensor
            se = max(1, c_in // 4)
            layers.append(layer("ReduceMean", mid * h2 * w2, [1, mid, h2, w2], [1, mid, 1, 1]))
            ly_se, _, _ = conv(mid, se, 1, 1, k=1, s=1, p=0)
            layers.append(ly_se)
            layers.append(layer("SiLU", se, [1, se, 1, 1], [1, se, 1, 1]))
            ly_se, _, _ = conv(se, mid, 1, 1, k=1, s=1, p=0)
            layers.append(ly_se)
            layers.append(layer("Sigmoid", mid, [1, mid, 1, 1], [1, mid, 1, 1]))
            layers.append(elemwise("Mul", mid, h2, w2))
            ly, h2, w2 = conv(mid, c_out, h2, w2, k=1, s=1, p=0)
            layers.append(ly)
            layers.append(elemwise("BatchNormalization", c_out, h2, w2, per_elem=2))
            if s == 1 and c_in == c_out:
                layers.append(elemwise("Add", c_out, h2, w2))
            h, w, c_in = h2, w2, c_out
    ly, h, w = conv(c_in, 1792, h, w, k=1, s=1, p=0)
    layers.append(ly)
    layers.append(elemwise("BatchNormalization", 1792, h, w, per_elem=2))
    layers.append(elemwise("SiLU", 1792, h, w))
    layers.append(layer("GlobalAveragePool", 1792 * h * w, [1, 1792, h, w], [1, 1792]))
    layers.append(fc(1792, 1000))
    layers.append(layer("Softmax", 3 * 1000, [1, 1000], [1, 1000]))
    return layers


# ------------------------------------------------------------ transformers

def layer_norm(seq, dim):
    return layer("LayerNormalization", 5 * seq * dim, [1, seq, dim], [1, seq, dim])


def encoder_block(seq, dim, heads, mlp):
    """One transformer encoder block, less the LayerNorm that ViT puts
    before it and BERT after it."""
    return [
        *(matmul(seq, dim, dim, [1, seq, dim], [1, seq, dim])
          for _ in range(3)),  # q, k, v projections
        matmul(seq, dim, seq, [1, seq, dim], [1, heads, seq, seq]),
        layer("Softmax", 3 * heads * seq * seq, [1, heads, seq, seq], [1, heads, seq, seq]),
        matmul(seq, seq, dim, [1, heads, seq, seq], [1, seq, dim]),
        matmul(seq, dim, dim, [1, seq, dim], [1, seq, dim]),
        layer("Add", seq * dim, [1, seq, dim], [1, seq, dim]),
        layer_norm(seq, dim),
        matmul(seq, dim, mlp, [1, seq, dim], [1, seq, mlp]),
        layer("Gelu", seq * mlp, [1, seq, mlp], [1, seq, mlp]),
        matmul(seq, mlp, dim, [1, seq, mlp], [1, seq, dim]),
        layer("Add", seq * dim, [1, seq, dim], [1, seq, dim]),
    ]


def vit(dim, depth, heads, mlp, patch=16, img=224):
    grid = img // patch
    seq = grid * grid + 1  # patch tokens + CLS
    layers = [conv(3, dim, img, img, k=patch, s=patch, p=0)[0]]
    for _ in range(depth):  # pre-norm
        layers += [layer_norm(seq, dim), *encoder_block(seq, dim, heads, mlp)]
    return layers + [layer_norm(seq, dim),
                     matmul(1, dim, 1000, [1, dim], [1, 1000]),
                     layer("Softmax", 3 * 1000, [1, 1000], [1, 1000])]


def bert(dim, depth, heads, inter, seq=128):
    layers = [layer("Gather", 0, [1, seq], [1, seq, dim]), layer_norm(seq, dim)]
    for _ in range(depth):  # post-norm
        layers += [*encoder_block(seq, dim, heads, inter), layer_norm(seq, dim)]
    return layers + [matmul(1, dim, dim, [1, dim], [1, dim]),  # pooler
                     layer("Tanh", dim, [1, dim], [1, dim])]


# --------------------------------------------------------- decoder LLMs

def decoder_llm(dim, depth, q_heads, kv_heads, head_dim, inter, vocab, ctx=512):
    q_out = q_heads * head_dim
    kv_out = kv_heads * head_dim
    layers = [layer("Gather", 0, [1, 1], [1, 1, dim])]
    for _ in range(depth):
        layers.append(layer("RMSNorm", 4 * dim, [1, 1, dim], [1, 1, dim]))
        layers.append(matmul(1, dim, q_out, [1, 1, dim], [1, 1, q_out]))
        layers.append(matmul(1, dim, kv_out, [1, 1, dim], [1, 1, kv_out]))
        layers.append(matmul(1, dim, kv_out, [1, 1, dim], [1, 1, kv_out]))
        # attention over the cached context (one query token)
        layers.append(matmul(1, head_dim * q_heads, ctx, [1, 1, q_out], [1, q_heads, 1, ctx]))
        layers.append(layer("Softmax", 3 * q_heads * ctx, [1, q_heads, 1, ctx], [1, q_heads, 1, ctx]))
        layers.append(matmul(1, ctx, q_out, [1, q_heads, 1, ctx], [1, 1, q_out]))
        layers.append(matmul(1, q_out, dim, [1, 1, q_out], [1, 1, dim]))
        layers.append(layer("Add", dim, [1, 1, dim], [1, 1, dim]))
        layers.append(layer("RMSNorm", 4 * dim, [1, 1, dim], [1, 1, dim]))
        layers.append(matmul(1, dim, inter, [1, 1, dim], [1, 1, inter]))  # gate
        layers.append(matmul(1, dim, inter, [1, 1, dim], [1, 1, inter]))  # up
        layers.append(layer("SiLU", inter, [1, 1, inter], [1, 1, inter]))
        layers.append(layer("Mul", inter, [1, 1, inter], [1, 1, inter]))
        layers.append(matmul(1, inter, dim, [1, 1, inter], [1, 1, dim]))  # down
        layers.append(layer("Add", dim, [1, 1, dim], [1, 1, dim]))
    layers.append(layer("RMSNorm", 4 * dim, [1, 1, dim], [1, 1, dim]))
    layers.append(matmul(1, dim, vocab, [1, 1, dim], [1, 1, vocab]))
    layers.append(layer("Softmax", 3 * vocab, [1, 1, vocab], [1, 1, vocab]))
    return layers


# name -> (reference_workload, build)
MODELS = {
    "vgg-19": (1, vgg19),
    "resnet-50": (1, lambda: resnet([3, 4, 6, 3])),
    "resnet-152": (1, lambda: resnet([3, 8, 36, 3])),
    "efficientnet-b4": (1, efficientnet_b4),
    "vit-base": (1, lambda: vit(768, 12, 12, 3072)),
    "vit-large": (1, lambda: vit(1024, 24, 16, 4096)),
    "bert-base": (128, lambda: bert(768, 12, 12, 3072)),
    "bert-large": (128, lambda: bert(1024, 24, 16, 4096)),
    "deepseek-r1-1.5b": (
        1,
        lambda: decoder_llm(1536, 28, 12, 2, 128, 8960, 151936)),
    "gemma-3-1b": (
        1,
        lambda: decoder_llm(1152, 26, 4, 1, 256, 6912, 262144)),
}


@functools.cache
def descriptor_text(name: str) -> str:
    """The descriptor JSON of the packaged model `name`.

    Rendered once per process: building a model and dumping it costs a
    few milliseconds, and packaged mixes ask for the same text once per
    simulation.  Compact JSON, because indenting costs 5x more to dump.
    """
    reference, build = MODELS[name]
    layers = build()
    return json.dumps({
        "name": name,
        "reference_workload": reference,
        "total_flops": sum(l["flops"] for l in layers),
        "layers": layers,
    })
