"""The three benchmark workloads: fixed `protouq` CLI command lists.

Every workload is a corpus set-up command (`gen-synth`) followed by the
pipeline commands a user runs on that corpus.  The benchmark's workload
seed only shifts the corpus, train and draw seeds passed to the CLI; with
seed 0 the commands are exactly the ones listed in perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

CORPUS = ("--vis", "vis.paue", "--txt", "txt.paue", "--pairs", "pairs.tsv")
EMBEDDINGS = ("--vis", "vis.paue", "--txt", "txt.paue")

# Files a command writes that must be byte-identical on every repetition.
CORPUS_FILES = ("vis.paue", "txt.paue", "pairs.tsv")
CHECKPOINT_FILES = ("model.paup", "fitted.paup")


@dataclass(frozen=True)
class Workload:
    name: str
    held_out_seed: int
    base_seeds: dict
    setup: tuple
    pipeline: tuple
    # Lowest accepted pcc_u_h of `analyze pcc`, where the recipe promises one.
    pcc_floor: float | None = None

    def seeds(self, seed: int) -> dict:
        return {k: (v + seed) % 2**32 for k, v in self.base_seeds.items()}

    def setup_argv(self, seed: int) -> list[str]:
        return _fill(self.setup, self.seeds(seed))

    def pipeline_argv(self, seed: int) -> list[list[str]]:
        seeds = self.seeds(seed)
        return [_fill(cmd, seeds) for cmd in self.pipeline]


def _fill(template, seeds) -> list[str]:
    return [str(seeds[a[1:-1]]) if a.startswith("{") else a for a in template]


def command_name(argv) -> str:
    """The summary-line tag a command prints first ("analyze pcc" -> "analyze-pcc")."""
    return f"analyze-{argv[1]}" if argv[0] == "analyze" else argv[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-val",
            held_out_seed=9001,
            base_seeds={"corpus": 401, "train": 1208, "draw": 1},
            setup=(
                "gen-synth", *CORPUS, "--labels", "labels.csv",
                "--n-items", "150", "--noise-sigma", "0.12", "--seed", "{corpus}",
            ),
            pipeline=(
                ("train", *CORPUS, "--ckpt", "model.paup", "--epochs", "30",
                 "--lr", "0.02", "--h-mapping", "affine", "--seed", "{train}"),
                ("score", "--ckpt", "model.paup", *EMBEDDINGS, "--out", "u.csv"),
                ("rerank", "--ckpt", "model.paup", *CORPUS, "--fit-betas",
                 "--ckpt-out", "fitted.paup", "--out", "rerank.csv"),
                ("evaluate", *CORPUS, "--ckpt", "fitted.paup"),
                ("analyze", "pcc", "--ckpt", "model.paup", *CORPUS, "--labels", "labels.csv"),
                ("analyze", "removal-curve", "--ckpt", "model.paup", *CORPUS,
                 "--mode", "uncertainty"),
                ("analyze", "removal-curve", "--ckpt", "model.paup", *CORPUS,
                 "--mode", "random", "--seed", "{draw}"),
            ),
        ),
        Workload(
            name="eval-large",
            held_out_seed=9002,
            base_seeds={"corpus": 7, "train": 11},
            setup=(
                "gen-synth", *CORPUS, "--labels", "labels.csv",
                "--n-items", "2000", "--seed", "{corpus}",
            ),
            pipeline=(
                ("train", *CORPUS, "--ckpt", "model.paup", "--epochs", "30",
                 "--lr", "0.5", "--lambda-div", "0", "--seed", "{train}",
                 "--beta1", "0.5", "--beta2", "1.0"),
                ("score", "--ckpt", "model.paup", *EMBEDDINGS, "--out", "u.csv"),
                ("evaluate", *CORPUS, "--ckpt", "model.paup"),
                ("rerank", "--ckpt", "model.paup", *CORPUS, "--out", "rerank.csv"),
                ("analyze", "pcc", "--ckpt", "model.paup", *CORPUS, "--labels", "labels.csv"),
            ),
            pcc_floor=0.9,
        ),
        Workload(
            name="train-heavy",
            held_out_seed=9003,
            base_seeds={"corpus": 7, "train": 11},
            setup=(
                "gen-synth", *CORPUS, "--n-items", "10000", "--captions-per-item", "5",
                "--d", "128", "--seed", "{corpus}",
            ),
            pipeline=(
                ("train", *CORPUS, "--ckpt", "model.paup", "--epochs", "30",
                 "--lr", "0.5", "--lambda-div", "0", "--seed", "{train}",
                 "--out", "hist.csv"),
                ("score", "--ckpt", "model.paup", *EMBEDDINGS, "--out", "u.csv"),
            ),
        ),
    )
}
