"""Set-up child: builds inputs, outside every timed interval.

``base``
    The perf harness's xlarge synthetic social network (62,500 nodes,
    16 ties per arriving node, ~1M social ties), generated once with a
    fixed generator seed and kept as a graph store.
``graph``
    One seed's discovery input: the base network with 30 % of its
    directed ties hidden (chosen by the seed), as ``graph.tsv`` in the
    tie-list format ``repro`` reads, plus the hidden ties' true
    orientation (``truth.npy``), which only the benchmark sees.
``serve``
    Trains a DeepDirect model on a discovery input, exports it as a
    serving artifact and writes the answers a correct server must give
    (:func:`write_answers`), plus the input's hidden-tie truth and the
    model's Eq. 28 direction for each hidden tie.

Each mode prints ``{"fingerprint": ...}``, the tie fingerprint of the
graph it built, which the orchestrator records in its cache.

    python3 perfbench/inputs.py base --out DIR
    python3 perfbench/inputs.py graph --base DIR/base.store --seed 1 \\
        --out DIR2
    python3 perfbench/inputs.py serve --tsv DIR2/graph.tsv \\
        --truth DIR2/truth.npy --seed 0 --pairs 2000000 --out DIR3
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

#: (nodes, ties per arriving node) of the perf harness tiers used here.
TIERS = {"xlarge": (62_500, 16), "large": (4_000, 8)}

#: Share of directed ties whose direction stays visible.
KEEP_DIRECTED = 0.7


def social_network(tier: str, seed: int):
    from repro.datasets import GeneratorConfig, generate_social_network

    n_nodes, ties_per_node = TIERS[tier]
    return generate_social_network(
        GeneratorConfig(n_nodes=n_nodes, ties_per_node=ties_per_node),
        seed=seed,
    )


def deepdirect_config(pairs: int, workers: int):
    """The E-Step settings every workload trains with."""
    from repro.embedding import DeepDirectConfig

    return DeepDirectConfig(
        dimensions=32,
        epochs=1000.0,  # the pair budget binds
        max_pairs=pairs,
        batch_size=256,
        workers=workers,
        min_pairs_per_worker=0,
        dtype="float32",
    )


def build_base(seed: int, out: Path) -> str:
    network = social_network("xlarge", seed)
    network.save_store(out / "base.store")
    return network.store.fingerprint()


def build_graph(base: Path, seed: int, out: Path) -> str:
    from repro.datasets import hide_directions
    from repro.graph import MixedSocialNetwork, write_tie_list

    task = hide_directions(
        MixedSocialNetwork.from_store(base), KEEP_DIRECTED, seed=seed
    )
    write_tie_list(task.network, out / "graph.tsv")
    np.save(out / "truth.npy", np.asarray(task.true_sources, dtype=np.int64))
    return task.network.store.fingerprint()


def write_answers(model, out: Path) -> None:
    """The answers a server of ``model`` must give, from the in-process
    model: ``d(u, v)`` for every oriented tie and the Eq. 28 direction of
    every undirected tie."""
    from repro.apps import predict_directions
    from repro.graph import TieKind

    network = model.network
    oriented = np.column_stack([network.tie_src, network.tie_dst])
    undirected = network.social_ties(TieKind.UNDIRECTED)
    np.save(out / "tie_pairs.npy", oriented.astype(np.int64))
    np.save(out / "tie_scores.npy", model.directionality_batch(oriented))
    np.save(out / "und_pairs.npy", undirected.astype(np.int64))
    np.save(
        out / "und_directions.npy",
        predict_directions(model, undirected).astype(np.int64),
    )


def build_serving(
    tsv: Path, truth: Path, seed: int, pairs: int, out: Path
) -> str:
    from repro.apps import predict_directions
    from repro.graph import read_tie_list
    from repro.models import DeepDirectModel

    network = read_tie_list(tsv)
    model = DeepDirectModel(deepdirect_config(pairs, 1)).fit(
        network, seed=seed
    )
    model.to_artifact(out / "artifact")
    write_answers(model, out)
    hidden = np.load(truth)
    np.save(out / "truth.npy", hidden)
    np.save(
        out / "truth_directions.npy",
        predict_directions(model, hidden).astype(np.int64),
    )
    return network.store.fingerprint()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("base")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("graph")
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("serve")
    p.add_argument("--tsv", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "base":
        fingerprint = build_base(args.seed, args.out)
    elif args.mode == "graph":
        fingerprint = build_graph(args.base, args.seed, args.out)
    else:
        fingerprint = build_serving(
            args.tsv, args.truth, args.seed, args.pairs, args.out
        )
    print(json.dumps({"fingerprint": fingerprint}), flush=True)


if __name__ == "__main__":
    main()
