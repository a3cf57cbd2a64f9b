"""Benchmark inputs: the packaged zoo and the seeded steady/burst scenarios.

The generators live here rather than in twillsim, so no change to the
program can change what the benchmark feeds it.  They are stratified:
the seed decides order, pairing with priorities, arrival jitter and
which requests depend on which, while the totals (requests per
(model, size) pair, per priority, number of dependent requests) follow
from the size alone.  A pass therefore costs about the same at every
seed, and seed-to-seed spread in host time is mostly the machine's.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# Fixed here, not read from the package, so a new packaged model does
# not silently change the workload.
MODELS = (
    "bert-base", "bert-large", "deepseek-r1-1.5b", "efficientnet-b4",
    "gemma-3-1b", "resnet-152", "resnet-50", "vgg-19", "vit-base",
    "vit-large",
)
SIZES = range(1, 7)
PRIORITIES = (1, 2, 3)
POLICIES = ("gpu_queue", "static_dvfs", "static_subgraph", "twill")
MIXES = ("mix1", "mix2", "mix3", "mix4", "mix5")

# steady: arrivals paced near the board's throughput, so the queue stays
# shallow and DONE tasks pile up in every controller view.
STEADY_REQUESTS = 400
STEADY_GAP_MS = 35.0
# burst: everything arrives at once and some requests wait on others,
# so the freeze queue runs deep and dependency releases are frequent.
BURST_REQUESTS = 300
BURST_WINDOW_MS = 500.0
BURST_DEPENDENT_FRAC = 0.15

# zoo's growth reference tiles each packaged mix this many times,
# TILE_PERIOD_MS apart (all packaged arrivals are below 1100 ms).
TILE_COPIES = 4
TILE_PERIOD_MS = 3000.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _balanced(rng: random.Random, values, n: int) -> list:
    """n values cycling through `values` in order, then shuffled."""
    values = list(values)
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def generate(name: str, seed: int, n: int, horizon_ms: float,
             dependent_frac: float = 0.0) -> str:
    """Scenario JSON text: n requests, one arrival per horizon_ms/n slot."""
    rng = random.Random(f"{name}:{seed}")
    pairs = _balanced(rng, itertools.product(MODELS, SIZES), n)
    priorities = _balanced(rng, PRIORITIES, n)
    slot = horizon_ms / n
    dependents = set(rng.sample(range(1, n), round(dependent_frac * n)))
    requests = []
    for i, ((model, size), priority) in enumerate(zip(pairs, priorities)):
        entry = {
            "id": f"r{i}",
            "model": model,
            "priority": priority,
            "arrival_ms": round((i + rng.random()) * slot, 1),
            "workload_size": size,
        }
        if i in dependents:
            entry["depends_on"] = [f"r{rng.randrange(i)}"]
        requests.append(entry)
    return json.dumps({"name": f"{name}-{seed}", "requests": requests},
                      indent=1)


def steady(seed: int, scale: float = 1.0) -> str:
    n = max(4, round(STEADY_REQUESTS * scale))
    return generate("steady", seed, n, n * STEADY_GAP_MS)


def burst(seed: int, scale: float = 1.0) -> str:
    n = max(4, round(BURST_REQUESTS * scale))
    return generate("burst", seed, n, BURST_WINDOW_MS * n / BURST_REQUESTS,
                    BURST_DEPENDENT_FRAC)


def tiled(mix_text: str) -> str:
    """The mix repeated TILE_COPIES times, each copy TILE_PERIOD_MS later."""
    doc = json.loads(mix_text)
    requests = []
    for k in range(TILE_COPIES):
        for entry in doc["requests"]:
            copy = dict(entry, id=f"{entry['id']}~{k}",
                        arrival_ms=entry["arrival_ms"] + k * TILE_PERIOD_MS)
            if "depends_on" in entry:
                copy["depends_on"] = [f"{d}~{k}" for d in entry["depends_on"]]
            requests.append(copy)
    doc["name"] = f"{doc.get('name', 'mix')}-x{TILE_COPIES}"
    doc["requests"] = requests
    return json.dumps(doc, indent=1)
