"""Which models can live on the DLA?

Runs the per-layer compatibility analysis over every packaged descriptor
and prints the offloadable-FLOPs fraction, then drills into one CNN and
one transformer to show why the two families land on opposite ends.
"""

from collections import Counter

from twillsim import layer_affinity, load_matrix, parse_model, presets

matrix = load_matrix(presets.matrix_text())

print(f"{'model':<18} {'DLA-fraction':>12}  placement preference")
print("-" * 55)
for name in presets.available_models():
    profile = parse_model(presets.model_text(name))
    sig = layer_affinity(profile, matrix)
    order = " > ".join(sig.preferred_clusters)
    print(f"{name:<18} {sig.dla_flops_fraction:>12.4f}  {order}")

print()
for name in ("resnet-50", "bert-base"):
    profile = parse_model(presets.model_text(name))
    sig = layer_affinity(profile, matrix)
    feasible = Counter()
    blocked = Counter()
    for layer, ok in zip(profile.layers, sig.layer_feasible):
        (feasible if ok else blocked)[layer.op_type] += layer.flops
    total = profile.total_flops
    print(f"{name}: {sig.dla_flops_fraction:.2%} of FLOPs can move to the DLA")
    for op, fl in feasible.most_common(3):
        print(f"   ok       {op:<22} {fl / total:7.2%}")
    for op, fl in blocked.most_common(3):
        print(f"   GPU-only {op:<22} {fl / total:7.2%}")
    print()
