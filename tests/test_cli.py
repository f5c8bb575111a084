"""End-to-end command-line pipeline on a small generated corpus."""

import csv
import io
import math
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from protouq import (
    DEFAULT_CORPUS_SPEC,
    EvidenceConfig,
    RerankParams,
    SimilarityMatrix,
    SyntheticSpec,
    TrainConfig,
    apply_rerank,
    generate_corpus,
    pearson,
    read_checkpoint,
    read_embeddings,
    read_pairs,
    similarity_matrix,
    train,
    uncertainty_scores,
    write_embeddings,
    write_pairs,
)
from protouq import cli, synth
from protouq.cli import _write_csv, build_parser, run
from protouq.embed import _ROW_BLOCK, TEXT
from protouq.errors import ProtoUQError


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus + trained checkpoint shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "vis": str(root / "vis.paue"),
        "txt": str(root / "txt.paue"),
        "pairs": str(root / "pairs.tsv"),
        "labels": str(root / "labels.csv"),
        "ckpt": str(root / "model.paup"),
        "history": str(root / "history.csv"),
        "root": root,
    }
    assert run([
        "gen-synth", "--vis", paths["vis"], "--txt", paths["txt"],
        "--pairs", paths["pairs"], "--labels", paths["labels"],
        "--n-items", "40", "--d", "16", "--k-true", "4", "--seed", "3",
    ]) == 0
    assert run([
        "train", "--vis", paths["vis"], "--txt", paths["txt"],
        "--pairs", paths["pairs"], "--ckpt", paths["ckpt"],
        "--out", paths["history"], "--epochs", "3", "--k", "4",
        "--batch-size", "16", "--lr", "0.1", "--seed", "5",
    ]) == 0
    return paths


def refuse_similarity_matrices(monkeypatch):
    """Make building any SimilarityMatrix, dense or re-ranked, fail."""

    def refuse(self):
        raise AssertionError("built an n_vision x n_text similarity matrix")

    monkeypatch.setattr(SimilarityMatrix, "__post_init__", refuse)


class TestGenSynth:
    def test_summary_and_artifacts(self, tmp_path, capsys):
        args = [
            "gen-synth", "--vis", str(tmp_path / "v.paue"),
            "--txt", str(tmp_path / "t.paue"), "--pairs", str(tmp_path / "p.tsv"),
            "--n-items", "6", "--d", "8", "--k-true", "4", "--seed", "1",
        ]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("gen-synth ")
        assert "n_items=6" in out and "n_captions=12" in out
        assert read_embeddings(tmp_path / "v.paue").n == 6

    def test_labels_csv(self, pipeline):
        header, rows = read_csv(pipeline["labels"])
        assert header == ["item", "m", "semantics"]
        assert len(rows) == 40
        for item, m, semantics in rows:
            assert len(semantics.split(";")) == int(m)

    def test_bad_weights_exit_code(self, tmp_path, capsys):
        assert run([
            "gen-synth", "--vis", str(tmp_path / "v"), "--txt", str(tmp_path / "t"),
            "--pairs", str(tmp_path / "p"), "--weights", "0.5,0.6",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("n_items, cpi", [(300, 2), (100, 3), (1, 2)],
                             ids=["partial-last-block", "3-captions", "one-item"])
    def test_files_are_the_bytes_of_the_generated_corpus(self, tmp_path, capsys, n_items, cpi):
        spec = SyntheticSpec(n_items=n_items, d=8, k_true=4, noise_sigma=0.2,
                             captions_per_item=cpi, seed=9)
        vis, txt, pairs, _ = generate_corpus(spec)
        write_embeddings(vis, tmp_path / "want_v.paue")
        write_embeddings(txt, tmp_path / "want_t.paue")
        write_pairs(pairs, tmp_path / "want_p.tsv")
        assert run(["gen-synth", *synth_args(tmp_path), "--n-items", str(n_items), "--d", "8",
                    "--k-true", "4", "--noise-sigma", "0.2", "--captions-per-item", str(cpi),
                    "--seed", "9"]) == 0
        assert f"n_captions={n_items * cpi} " in capsys.readouterr().out
        for got, want in (("v.paue", "want_v.paue"), ("t.paue", "want_t.paue"),
                          ("p.tsv", "want_p.tsv")):
            assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()

    def test_peak_memory_is_below_half_a_text_set(self, tmp_path, capsys):
        n_items, cpi, d = 4000, 5, 64
        tracemalloc.start()
        try:
            assert run(["gen-synth", *synth_args(tmp_path), "--n-items", str(n_items),
                        "--captions-per-item", str(cpi), "--d", str(d), "--seed", "1"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_items * cpi * d / 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fails", ["first-text-block", "noise-overflow"])
    def test_failure_leaves_both_old_files(self, tmp_path, capsys, monkeypatch, fails):
        base = ["gen-synth", *synth_args(tmp_path), "--n-items", "600", "--d", "8"]
        assert run([*base, "--seed", "1"]) == 0
        old = {name: (tmp_path / name).read_bytes() for name in ("v.paue", "t.paue")}
        flags = ["--seed", "2"]
        if fails == "noise-overflow":
            flags += ["--noise-sigma", "1e308"]
        else:
            real = synth._normalized

            def normalized(raw, modality):
                if modality == TEXT:
                    raise ProtoUQError("text block failed")
                return real(raw, modality)

            monkeypatch.setattr(synth, "_normalized", normalized)
        capsys.readouterr()
        assert run([*base, *flags]) == 1
        assert_one_line_error(capsys)
        assert {name: (tmp_path / name).read_bytes() for name in old} == old
        assert not list(tmp_path.glob("*.tmp.*"))


def synth_args(root):
    return ["--vis", str(root / "v.paue"), "--txt", str(root / "t.paue"),
            "--pairs", str(root / "p.tsv")]


class TestParserDefaults:
    def test_defaults_are_the_library_defaults(self, monkeypatch):
        parser = build_parser()

        class Built(Exception):
            pass

        def built(spec):
            raise Built(spec)

        monkeypatch.setattr(cli, "_corpus_blocks", built)
        args = parser.parse_args(["gen-synth", "--vis", "v", "--txt", "t", "--pairs", "p"])
        assert args.ambiguity_weights == (0.25,) * 4
        with pytest.raises(Built) as spec:
            args.func(args)
        assert spec.value.args == (DEFAULT_CORPUS_SPEC,)

        args = parser.parse_args(["train", *CORPUS_ARGS, "--epochs", "1"])
        cfg = cli._train_config(args)
        assert cfg == TrainConfig(epochs=1, seed=0)
        assert cfg.evidence == EvidenceConfig()
        assert RerankParams(beta1=args.beta1, beta2=args.beta2) == RerankParams()

    def test_flags_off_their_defaults_reach_the_library(self, pipeline, tmp_path, monkeypatch):
        spec = SyntheticSpec(n_items=5, d=16, k_true=4, ambiguity_weights=(0.5, 0.5),
                             noise_sigma=0.1, captions_per_item=3, seed=5)
        cfg = TrainConfig(
            epochs=2, seed=3, k=4, batch_size=32, learning_rate=0.05, lambda_div=0.5,
            evidence=EvidenceConfig(kind="softplus", gamma=2.0, theta=10.0, tau=3.0),
            h_mapping="affine",
        )
        params = RerankParams(beta1=0.5, beta2=0.25)
        defaults = (DEFAULT_CORPUS_SPEC, TrainConfig(epochs=1, seed=0), EvidenceConfig(),
                    RerankParams())
        for off, default in zip((spec, cfg, cfg.evidence, params), defaults):
            assert all(getattr(off, f.name) != getattr(default, f.name) for f in fields(off))

        class Built(Exception):
            pass

        def built(spec):
            raise Built(spec)

        monkeypatch.setattr(cli, "_corpus_blocks", built)
        with pytest.raises(Built) as got:
            run(["gen-synth", "--vis", "v", "--txt", "t", "--pairs", "p", "--n-items", "5",
                 "--d", "16", "--k-true", "4", "--weights", "0.5,0.5", "--noise-sigma", "0.1",
                 "--captions-per-item", "3", "--seed", "5"])
        assert got.value.args == (spec,)

        trained, real_train = [], cli.train

        def recording_train(*args):
            trained.append(args[-1])
            return real_train(*args)

        monkeypatch.setattr(cli, "train", recording_train)
        ckpt_path = tmp_path / "off.paup"
        assert run([
            "train", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
            "--pairs", pipeline["pairs"], "--ckpt", str(ckpt_path), "--epochs", "2",
            "--seed", "3", "--k", "4", "--batch-size", "32", "--lr", "0.05",
            "--lambda-div", "0.5", "--h-mapping", "affine", "--beta1", "0.5", "--beta2", "0.25",
            "--evidence", "softplus", "--gamma", "2", "--theta", "10", "--tau", "3",
        ]) == 0
        assert trained == [cfg]
        ckpt = read_checkpoint(ckpt_path)
        assert (ckpt.evidence, ckpt.rerank) == (cfg.evidence, params)
        assert ckpt.train_meta == {
            "epochs": "2", "seed": "3", "k": "4", "batch_size": "32",
            "learning_rate": repr(0.05), "lambda_div": repr(0.5), "h_mapping": "affine",
            "n_vision": "40", "n_text": "80",
        }

    @pytest.mark.parametrize(
        "command, shown",
        [
            ("gen-synth", ["--weights WEIGHTS"]),
            ("train", ["--lr LR", "--evidence {relu,softplus,exponential}"]),
        ],
    )
    def test_help_shows_the_flag_spellings(self, command, shown, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert [text for text in shown if text not in out] == []


class TestTrain:
    def test_history_csv(self, pipeline):
        header, rows = read_csv(pipeline["history"])
        assert header == ["epoch", "uct_v", "uct_t", "div_v", "div_t", "total"]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        for row in rows:
            assert all(np.isfinite(float(x)) for x in row[1:])

    def test_checkpoint_metadata(self, pipeline):
        ckpt = read_checkpoint(pipeline["ckpt"])
        assert ckpt.train_meta["epochs"] == "3"
        assert ckpt.train_meta["seed"] == "5"
        assert ckpt.train_meta["n_vision"] == "40"
        assert ckpt.train_meta == {
            "epochs": "3", "seed": "5", "k": "4", "batch_size": "16",
            "learning_rate": repr(0.1), "lambda_div": repr(1.0), "h_mapping": "clamp",
            "n_vision": "40", "n_text": "80",
        }
        assert ckpt.bank_v.k == 4 and ckpt.bank_v.d == 16

    def test_one_item_gives_only_one_pair_batches(self, tmp_path, capsys):
        # two captions, but each epoch samples one: every batch is one pair
        corpus = ["--vis", str(tmp_path / "v"), "--txt", str(tmp_path / "t"),
                  "--pairs", str(tmp_path / "p")]
        assert run(["gen-synth", *corpus, "--n-items", "1", "--d", "8", "--k-true", "4"]) == 0
        capsys.readouterr()
        assert run(["train", *corpus, "--ckpt", str(tmp_path / "m"), "--epochs", "1"]) == 1
        assert capsys.readouterr().err == "error: every batch in the epoch was smaller than 2\n"
        assert not (tmp_path / "m").exists()

    def test_repeat_run_is_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "again.paup"
        assert run([
            "train", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
            "--pairs", pipeline["pairs"], "--ckpt", str(again),
            "--epochs", "3", "--k", "4", "--batch-size", "16",
            "--lr", "0.1", "--seed", "5",
        ]) == 0
        with open(pipeline["ckpt"], "rb") as fh:
            first = fh.read()
        assert again.read_bytes() == first

    def test_negative_zero_betas_store_the_bytes_of_zero(self, pipeline, tmp_path):
        signed = tmp_path / "signed.paup"
        assert run([
            "train", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
            "--pairs", pipeline["pairs"], "--ckpt", str(signed),
            "--epochs", "3", "--k", "4", "--batch-size", "16",
            "--lr", "0.1", "--seed", "5", "--beta1", "-0", "--beta2", "-0",
        ]) == 0
        assert signed.read_bytes() == Path(pipeline["ckpt"]).read_bytes()


class TestScore:
    def test_scores_both_modalities(self, pipeline, tmp_path, capsys):
        out_csv = tmp_path / "u.csv"
        assert run([
            "score", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--out", str(out_csv),
        ]) == 0
        assert "n_scored=120" in capsys.readouterr().out
        header, rows = read_csv(out_csv)
        assert header == ["modality", "index", "uncertainty"]
        assert sum(r[0] == "vision" for r in rows) == 40
        assert sum(r[0] == "text" for r in rows) == 80
        assert all(0.0 <= float(r[2]) < 1.0 for r in rows)

    def test_summary_line_prints_mean_u_at_6_decimals(self, pipeline, capsys):
        assert run(["score", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
                    "--txt", pipeline["txt"]]) == 0
        ckpt = read_checkpoint(pipeline["ckpt"])
        u_v = uncertainty_scores(read_embeddings(pipeline["vis"]), ckpt.bank_t, ckpt.evidence)
        u_t = uncertainty_scores(read_embeddings(pipeline["txt"]), ckpt.bank_v, ckpt.evidence)
        assert capsys.readouterr().out == (
            f"score n_scored=120 mean_u_vision={u_v.mean():.6f} mean_u_text={u_t.mean():.6f}\n"
        )

    def test_csv_embeddings_accepted(self, pipeline, tmp_path, capsys):
        vis = read_embeddings(pipeline["vis"])
        csv_path = tmp_path / "vis.csv"
        with open(csv_path, "w") as fh:
            for row in vis.vectors:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        paue_out, csv_out = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["score", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
                    "--out", str(paue_out)]) == 0
        assert run(["score", "--ckpt", pipeline["ckpt"], "--vis", str(csv_path),
                    "--out", str(csv_out)]) == 0
        _, a = read_csv(paue_out)
        _, b = read_csv(csv_out)
        assert np.allclose([float(r[2]) for r in a], [float(r[2]) for r in b],
                           atol=1e-12)

    def test_neither_modality_is_an_error(self, tmp_path, capsys):
        # A usage error, raised before the (here missing) checkpoint is read.
        with pytest.raises(SystemExit) as exc:
            run(["score", "--ckpt", str(tmp_path / "nope.paup")])
        assert exc.value.code == 2
        assert "score needs --vis and/or --txt" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert run(["score", "--ckpt", str(tmp_path / "nope.paup"),
                    "--vis", str(tmp_path / "nope.paue")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEvaluate:
    def test_report_rows(self, pipeline, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        assert run([
            "evaluate", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
            "--pairs", pipeline["pairs"], "--out", str(out_csv),
        ]) == 0
        assert "r1_t2v=" in capsys.readouterr().out
        header, rows = read_csv(out_csv)
        assert header == ["metric", "direction", "value"]
        assert len(rows) == 10
        assert {r[0] for r in rows} == {"r1", "r5", "r10", "mdr", "mnr"}
        assert {r[1] for r in rows} == {"t2v", "v2t"}

    def test_with_checkpoint_adds_reranked_rows(self, pipeline, tmp_path):
        out_csv = tmp_path / "report.csv"
        assert run([
            "evaluate", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
            "--pairs", pipeline["pairs"], "--ckpt", pipeline["ckpt"],
            "--out", str(out_csv),
        ]) == 0
        _, rows = read_csv(out_csv)
        assert len(rows) == 20
        assert sum(r[0].startswith("reranked_") for r in rows) == 10


class TestRerank:
    def test_fit_betas_never_hurts_fit_data(self, pipeline, tmp_path, capsys):
        out_csv = tmp_path / "rerank.csv"
        fitted_ckpt = tmp_path / "fitted.paup"
        assert run([
            "rerank", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
            "--fit-betas", "--ckpt-out", str(fitted_ckpt), "--out", str(out_csv),
        ]) == 0
        out = capsys.readouterr().out
        assert "fitted=true" in out
        fields = dict(part.split("=") for part in out.split()[1:])
        assert float(fields["mean_r1_after"]) >= float(fields["mean_r1_before"])
        _, rows = read_csv(out_csv)
        assert len(rows) == 20
        stored = read_checkpoint(fitted_ckpt)
        assert stored.rerank.beta1 == float(fields["beta1"])
        assert stored.rerank.beta2 == float(fields["beta2"])

    def test_zero_betas_change_nothing(self, pipeline, tmp_path, capsys):
        matrix_csv = tmp_path / "m.csv"
        assert run([
            "rerank", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
            "--beta1", "0", "--beta2", "0", "--out-matrix", str(matrix_csv),
        ]) == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=") for part in out.split()[1:])
        assert fields["mean_r1_after"] == fields["mean_r1_before"]
        header, rows = read_csv(matrix_csv)
        assert header == [f"t{j}" for j in range(80)]
        assert len(rows) == 40

    def test_out_matrix_cells_are_repr_of_reranked_values(self, pipeline, tmp_path):
        matrix_csv = tmp_path / "m.csv"
        assert run([
            "rerank", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
            "--beta1", "1.5", "--beta2", "0.75", "--out-matrix", str(matrix_csv),
        ]) == 0
        ckpt = read_checkpoint(pipeline["ckpt"])
        vis, txt = read_embeddings(pipeline["vis"]), read_embeddings(pipeline["txt"])
        reranked = apply_rerank(
            similarity_matrix(vis, txt),
            uncertainty_scores(vis, ckpt.bank_t, ckpt.evidence),
            uncertainty_scores(txt, ckpt.bank_v, ckpt.evidence),
            RerankParams(beta1=1.5, beta2=0.75),
        )
        _, rows = read_csv(matrix_csv)
        assert rows == [[repr(x) for x in row] for row in reranked.values.tolist()]

    def test_negative_zero_betas_print_as_zero(self, pipeline, capsys):
        assert run([
            "rerank", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"], "--beta1", "-0", "--beta2", "-0",
        ]) == 0
        assert " beta1=0.0 beta2=0.0 " in capsys.readouterr().out

    def test_fit_over_negative_zero_stores_positive_zero(self, pipeline, tmp_path):
        # -0 is the grid's only candidate, so it is the fitted beta of both axes.
        fitted = tmp_path / "fitted.paup"
        assert run([
            "rerank", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
            "--fit-betas", "--grid=-0", "--ckpt-out", str(fitted),
        ]) == 0
        rerank = read_checkpoint(fitted).rerank
        assert [math.copysign(1.0, b) for b in (rerank.beta1, rerank.beta2)] == [1.0, 1.0]

    @pytest.mark.parametrize("flag, value", [("--ckpt-out", "fitted.paup"), ("--grid", "0,1")])
    def test_fit_only_flag_without_fit_betas_is_usage_error(
        self, pipeline, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            run([
                "rerank", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
                "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
                flag, str(tmp_path / value) if flag == "--ckpt-out" else value,
            ])
        assert exc.value.code == 2
        assert "need --fit-betas" in capsys.readouterr().err
        assert not (tmp_path / "fitted.paup").exists()


class TestAnalyze:
    def test_pcc_with_labels(self, pipeline, tmp_path):
        out_csv = tmp_path / "pcc.csv"
        assert run([
            "analyze", "pcc", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
            "--labels", pipeline["labels"], "--out", str(out_csv),
        ]) == 0
        header, rows = read_csv(out_csv)
        assert header == ["metric", "modality", "value"]
        assert [(r[0], r[1]) for r in rows] == [
            ("pcc_u_h", "vision"), ("pcc_u_h", "text"),
            ("pcc_u_m", "vision"), ("pcc_u_m", "text"),
        ]
        assert all(-1.0 <= float(r[2]) <= 1.0 for r in rows)

    def test_pcc_builds_no_similarity_matrix(self, pipeline, monkeypatch, capsys):
        refuse_similarity_matrices(monkeypatch)
        assert run([
            "analyze", "pcc", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
            "--labels", pipeline["labels"],
        ]) == 0
        assert capsys.readouterr().out.startswith("analyze-pcc pcc_u_h_vision=")

    def test_pcc_caption_of_several_items_gets_their_mean_m(self, pipeline, tmp_path, capsys):
        # Caption 0 belongs to items 0 (m = 1) and 1 (m = 2), so its m is 1.5.
        pairs = tmp_path / "shared.tsv"
        pairs.write_text(Path(pipeline["pairs"]).read_text() + "1\t0\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("item,m\n" + "".join(f"{i},{i % 4 + 1}\n" for i in range(40)))
        assert run([
            "analyze", "pcc", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", str(pairs), "--labels", str(labels),
        ]) == 0
        ckpt = read_checkpoint(pipeline["ckpt"])
        u_t = uncertainty_scores(read_embeddings(pipeline["txt"]), ckpt.bank_v, ckpt.evidence)
        m_caps = np.repeat(np.arange(40) % 4 + 1.0, 2)
        m_caps[0] = 1.5
        assert f"pcc_u_m_text={pearson(u_t, m_caps):.6f}" in capsys.readouterr().out

    def test_labels_csv_with_a_byte_order_mark(self, pipeline, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"\xef\xbb\xbf" + Path(pipeline["labels"]).read_bytes())
        args = ["analyze", "pcc", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
                "--txt", pipeline["txt"], "--pairs", pipeline["pairs"], "--labels"]
        assert run(args + [pipeline["labels"]]) == 0
        want = capsys.readouterr().out
        assert run(args + [str(labels)]) == 0
        assert capsys.readouterr().out == want

    def test_labels_csv_repeating_an_item_is_an_error(self, pipeline, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(Path(pipeline["labels"]).read_text() + "0,4,0;1;2;3\n")
        assert run([
            "analyze", "pcc", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"], "--labels", str(labels),
        ]) == 1
        assert capsys.readouterr().err == f"error: {labels}:42: item 0 appears more than once\n"

    @pytest.mark.parametrize("m", ["-7.5", "0", "2.5", "inf", "nan"])
    def test_labels_csv_with_an_m_that_is_not_a_level_is_an_error(
        self, pipeline, tmp_path, capsys, m
    ):
        lines = Path(pipeline["labels"]).read_text().splitlines(keepends=True)
        item, _, semantics = lines[3].split(",")
        lines[3] = f"{item},{m},{semantics}"
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(lines))
        assert run([
            "analyze", "pcc", "--ckpt", pipeline["ckpt"], *corpus_args(pipeline),
            "--labels", str(labels),
        ]) == 1
        assert capsys.readouterr().err == f"error: {labels}:4: 'm' must be a whole number >= 1\n"

    def test_removal_curve_counts(self, pipeline, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        assert run([
            "analyze", "removal-curve", "--ckpt", pipeline["ckpt"], *corpus_args(pipeline),
            "--counts", "0,3,40", "--side", "query", "--out", str(out_csv),
        ]) == 0
        out = capsys.readouterr().out
        assert "side=query n_points=3 last_removed=40 " in out
        _, rows = read_csv(out_csv)
        assert [r[1] for r in rows] == ["0", "3", "40"]

    def test_removal_curve_default_fractions(self, pipeline, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        assert run([
            "analyze", "removal-curve", "--ckpt", pipeline["ckpt"],
            "--vis", pipeline["vis"], "--txt", pipeline["txt"],
            "--pairs", pipeline["pairs"], "--out", str(out_csv),
        ]) == 0
        assert "n_points=4" in capsys.readouterr().out
        header, rows = read_csv(out_csv)
        assert header == ["mode", "removed", "r1_t2v", "r1_v2t"]
        # 5/10/20/30 percent of the 80 pairs
        assert [r[1] for r in rows] == ["4", "8", "16", "24"]
        assert all(r[0] == "uncertainty" for r in rows)

    def test_entropy_demo_contrast(self, tmp_path, capsys):
        out_csv = tmp_path / "demo.csv"
        assert run(["analyze", "entropy-demo", "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "entropy_gap=0.000e+00" in out
        assert "u_strong=0.539915" in out
        assert "u_weak=0.509999" in out
        header, rows = read_csv(out_csv)
        assert header == ["quantity", "value"]
        assert len(rows) == 4

    def test_msvd_prob_summary(self, capsys):
        assert run(["analyze", "msvd-prob", "--n", "48000",
                    "--batch", "256", "--group", "40"]) == 0
        assert "log_prob=-28.685402" in capsys.readouterr().out


def make_corpus(root, n_items, d):
    """gen-synth and a one-epoch train at the given size: the corpus flags
    and the checkpoint path."""
    paths = {name: str(root / name) for name in ("vis.paue", "txt.paue", "pairs.tsv", "model.paup")}
    corpus = ["--vis", paths["vis.paue"], "--txt", paths["txt.paue"], "--pairs", paths["pairs.tsv"]]
    assert run(["gen-synth", *corpus, "--n-items", str(n_items), "--d", str(d), "--seed", "5"]) == 0
    assert run(["train", *corpus, "--ckpt", paths["model.paup"], "--epochs", "1", "--k", "4",
                "--lr", "0.5", "--seed", "2", "--beta1", "1.5", "--beta2", "0.75"]) == 0
    return corpus, paths["model.paup"]


class TestStreaming:
    @pytest.mark.parametrize("argv", [
        ["evaluate"],
        ["rerank", "--out-matrix", "{tmp}/m.csv"],
        ["rerank", "--fit-betas", "--ckpt-out", "{tmp}/fitted.paup"],
        ["analyze", "removal-curve"],
        ["analyze", "removal-curve", "--mode", "random"],
    ], ids=["evaluate", "rerank", "rerank-fit", "removal-uncertainty", "removal-random"])
    def test_ranking_commands_build_no_similarity_matrix(
        self, pipeline, tmp_path, monkeypatch, argv
    ):
        refuse_similarity_matrices(monkeypatch)
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run([
            *argv, "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"],
        ]) == 0

    def test_evaluate_peak_memory_is_far_below_one_dense_matrix(self, tmp_path, capsys):
        corpus, ckpt = make_corpus(tmp_path, 1500, 16)
        n_vision, n_text = 1500, 3000
        tracemalloc.start()
        try:
            assert run(["evaluate", *corpus, "--ckpt", ckpt]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"n_queries_t2v={n_text} n_queries_v2t={n_vision}" in capsys.readouterr().out
        assert peak < 8 * n_vision * n_text / 2

    def test_out_matrix_peak_memory_is_about_one_block(self, tmp_path, capsys):
        corpus, ckpt = make_corpus(tmp_path, 400, 8)
        matrix_csv = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            assert run(["rerank", *corpus, "--ckpt", ckpt, "--out-matrix", str(matrix_csv)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_text = 800
        assert matrix_csv.read_text().count("\n") == 1 + 400
        # the CSV, about 20 bytes a cell, is twice the bound: no batch of
        # lines, let alone the file, is held
        assert peak < 2 * 8 * _ROW_BLOCK * n_text < matrix_csv.stat().st_size

    def test_out_matrix_past_one_block_is_byte_identical_to_dense_rerank(self, tmp_path):
        corpus, ckpt = make_corpus(tmp_path, 300, 8)
        matrix_csv = tmp_path / "m.csv"
        assert run(["rerank", *corpus, "--ckpt", ckpt, "--out-matrix", str(matrix_csv)]) == 0
        model = read_checkpoint(ckpt)
        vis, txt = read_embeddings(corpus[1]), read_embeddings(corpus[3])
        assert vis.n > _ROW_BLOCK
        reranked = apply_rerank(
            similarity_matrix(vis, txt),
            uncertainty_scores(vis, model.bank_t, model.evidence),
            uncertainty_scores(txt, model.bank_v, model.evidence),
            model.rerank,
        )
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow([f"t{j}" for j in range(txt.n)])
        writer.writerows([repr(x) for x in row] for row in reranked.values.tolist())
        assert matrix_csv.read_bytes() == want.getvalue().encode("utf-8")


class TestWriteCsv:
    def test_failing_rows_leave_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def rows():
            yield ("a", "1")
            raise ProtoUQError("row source failed")

        with pytest.raises(ProtoUQError):
            _write_csv(path, ("x", "y"), rows())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("n_rows", [0, 1, 5000])
    def test_rows_are_the_bytes_of_csv_writer(self, tmp_path, n_rows):
        rows = [(str(i), repr(i / 7), ";".join(map(str, range(i % 4)))) for i in range(n_rows)]
        _write_csv(tmp_path / "out.csv", ("i", "x", "s"), iter(rows))
        assert (tmp_path / "out.csv").read_bytes() == csv_writer_bytes([("i", "x", "s"), *rows])


def csv_writer_bytes(rows):
    """rows as csv.writer writes them, UTF-8 encoded."""
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


# Every CSV the CLI writes: the command (paths of the pipeline fixture and
# {tmp}/out.csv), the file, and its header.
CLI_CSVS = {
    "gen-synth-labels": (None, "labels", ["item", "m", "semantics"]),
    "train-history": (None, "history", ["epoch", "uct_v", "uct_t", "div_v", "div_t", "total"]),
    "score": (["score", "--ckpt", "{ckpt}", "--vis", "{vis}", "--txt", "{txt}", "--out", "{out}"],
              "out", ["modality", "index", "uncertainty"]),
    "rerank-out": (["rerank", "--ckpt", "{ckpt}", "{corpus}", "--fit-betas", "--out", "{out}"],
                   "out", ["metric", "direction", "value"]),
    "rerank-out-matrix": (["rerank", "--ckpt", "{ckpt}", "{corpus}", "--beta1", "1.5",
                           "--out-matrix", "{out}"], "out", [f"t{j}" for j in range(80)]),
    "evaluate": (["evaluate", "--ckpt", "{ckpt}", "{corpus}", "--out", "{out}"],
                 "out", ["metric", "direction", "value"]),
    "analyze-pcc": (["analyze", "pcc", "--ckpt", "{ckpt}", "{corpus}", "--labels", "{labels}",
                     "--out", "{out}"], "out", ["metric", "modality", "value"]),
    "analyze-removal-curve": (["analyze", "removal-curve", "--ckpt", "{ckpt}", "{corpus}",
                               "--out", "{out}"], "out", ["mode", "removed", "r1_t2v", "r1_v2t"]),
    "analyze-entropy-demo": (["analyze", "entropy-demo", "--out", "{out}"], "out", ["quantity", "value"]),
}


class TestCsvBytes:
    @pytest.mark.parametrize("name", CLI_CSVS)
    def test_each_cli_csv_is_the_bytes_of_csv_writer(self, pipeline, tmp_path, capsys, name):
        argv, key, header = CLI_CSVS[name]
        paths = {**pipeline, "out": str(tmp_path / "out.csv")}
        if argv is not None:
            filled = []
            for arg in argv:
                filled += corpus_args(pipeline) if arg == "{corpus}" else [arg.format(**paths)]
            assert run(filled) == 0
        with open(paths[key], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header and len(rows) > 1
        assert Path(paths[key]).read_bytes() == csv_writer_bytes(rows)

    def test_score_rows_are_the_library_scores(self, pipeline, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert run(["score", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
                    "--txt", pipeline["txt"], "--out", str(out)]) == 0
        ckpt = read_checkpoint(pipeline["ckpt"])
        rows = [("modality", "index", "uncertainty")]
        for modality, path, bank in (("vision", "vis", ckpt.bank_t), ("text", "txt", ckpt.bank_v)):
            u = uncertainty_scores(read_embeddings(pipeline[path]), bank, ckpt.evidence)
            rows += [(modality, i, repr(x)) for i, x in enumerate(u.tolist())]
        assert out.read_bytes() == csv_writer_bytes(rows)

    def test_history_rows_are_the_library_history(self, pipeline):
        vis, txt = read_embeddings(pipeline["vis"]), read_embeddings(pipeline["txt"])
        cfg = TrainConfig(epochs=3, k=4, batch_size=16, learning_rate=0.1, seed=5)
        _, _, history = train(vis, txt, read_pairs(pipeline["pairs"]), cfg)
        rows = [("epoch", "uct_v", "uct_t", "div_v", "div_t", "total")]
        rows += [(r.epoch, repr(r.uct_v), repr(r.uct_t), repr(r.div_v), repr(r.div_t), repr(r.total))
                 for r in history.records]
        assert Path(pipeline["history"]).read_bytes() == csv_writer_bytes(rows)

    def test_labels_rows_are_the_library_labels(self, pipeline):
        _, _, _, labels = generate_corpus(SyntheticSpec(n_items=40, d=16, k_true=4, seed=3))
        rows = [("item", "m", "semantics")]
        rows += [(i, m, ";".join(map(str, chosen)))
                 for i, (m, chosen) in enumerate(zip(labels.counts, labels.semantic_sets))]
        assert Path(pipeline["labels"]).read_bytes() == csv_writer_bytes(rows)


def corpus_args(pipeline):
    return ["--vis", pipeline["vis"], "--txt", pipeline["txt"], "--pairs", pipeline["pairs"]]


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


class TestRuntimeErrors:
    def test_non_utf8_pairs_file(self, pipeline, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_bytes(b"0\t0\n\xff\t1\n")
        assert run(["evaluate", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
                    "--pairs", str(pairs)]) == 1
        assert_one_line_error(capsys)

    def test_pairs_index_beyond_int64(self, pipeline, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("0\t0\n2\t99999999999999999999\n")
        assert run(["evaluate", "--vis", pipeline["vis"], "--txt", pipeline["txt"],
                    "--pairs", str(pairs)]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, offset", [("vis", 19), ("ckpt", 14)], ids=["paue", "paup"])
    def test_signaling_nan_is_one_error_line(self, pipeline, tmp_path, capsys, kind, offset):
        # float32 bits 0x7f800001 as the first stored value: the first
        # vector of a PAUE file, the first vision prototype of a PAUP file.
        path = tmp_path / Path(pipeline[kind]).name
        blob = bytearray(Path(pipeline[kind]).read_bytes())
        blob[offset:offset + 4] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(blob))
        files = {"ckpt": pipeline["ckpt"], "vis": pipeline["vis"], kind: str(path)}
        assert run(["score", "--ckpt", files["ckpt"], "--vis", files["vis"]]) == 1
        assert_one_line_error(capsys)

    def test_out_of_memory_is_one_error_line(self, capsys):
        # A 7 PiB array exceeds any x86-64 address space, so NumPy refuses
        # it at once even where the kernel overcommits memory.
        assert run(["analyze", "msvd-prob", "--n", str(10**30),
                    "--batch", str(10**15), "--group", "1"]) == 1
        assert_one_line_error(capsys)

    def test_msvd_batch_beyond_index_range(self, capsys):
        assert run(["analyze", "msvd-prob", "--n", "1000000000000000000000000000000",
                    "--batch", "100000000000000000000", "--group", "1"]) == 1
        assert_one_line_error(capsys)

    def test_negative_train_seed(self, pipeline, tmp_path, capsys):
        assert run(["train", *corpus_args(pipeline), "--ckpt", str(tmp_path / "m.paup"),
                    "--epochs", "1", "--seed", "-1"]) == 1
        assert_one_line_error(capsys)

    def test_negative_removal_seed(self, pipeline, capsys):
        assert run(["analyze", "removal-curve", *corpus_args(pipeline), "--ckpt", pipeline["ckpt"],
                    "--mode", "random", "--seed", "-1"]) == 1
        assert_one_line_error(capsys)

    def test_msvd_count_beyond_float64(self, capsys):
        assert run(["analyze", "msvd-prob", "--n", "1" + "0" * 400,
                    "--batch", "2", "--group", "1"]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [
        ["--tau", "1e-300"],
        ["--epochs", "2", "--lr", "1e300"],
        ["--lambda-div", "1e300"],
        ["--evidence", "softplus", "--gamma", "5e-324"],
    ], ids=["tau", "lr", "lambda-div", "gamma-subnormal"])
    def test_float_overflow_is_one_error_line(self, pipeline, tmp_path, capsys, flags):
        assert run(["train", *corpus_args(pipeline), "--ckpt", str(tmp_path / "m.paup"),
                    "--epochs", "1", *flags]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_softplus_slope_limit_is_no_overflow(self, pipeline, tmp_path, capsys):
        # gamma * s far below 0: exp(-gamma * s) is inf and the slope its limit 0
        assert run(["train", *corpus_args(pipeline), "--ckpt", str(tmp_path / "m.paup"),
                    "--epochs", "2", "--evidence", "softplus", "--gamma", "1e300"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_dirichlet_strength_is_no_overflow(self, pipeline, tmp_path, capsys):
        # evidence near 1e300 puts S^2 past float64 while K / S^2 stays finite
        assert run(["train", *corpus_args(pipeline), "--ckpt", str(tmp_path / "m.paup"),
                    "--epochs", "1", "--evidence", "softplus", "--gamma", "1e-300"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noise_overflow_is_one_error_line(self, tmp_path, capsys):
        assert run(["gen-synth", "--vis", str(tmp_path / "v"), "--txt", str(tmp_path / "t"),
                    "--pairs", str(tmp_path / "p"), "--n-items", "20", "--d", "8",
                    "--noise-sigma", "1e308"]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags", [
        ["gen-synth", "--n-items", "100000000000000000000000"],
        ["gen-synth", "--n-items", "10", "--d", "100000000000000000000"],
        ["gen-synth", "--n-items", "10", "--captions-per-item", "100000000000000000000"],
        ["gen-synth", "--n-items", "1", "--captions-per-item", "1", "--d", "3037000500",
         "--k-true", "3037000500", "--weights", "1"],
        ["train", "--epochs", "1", "--k", "100000000000000000000"],
    ], ids=["n-items", "d", "captions-per-item", "d-by-k-true", "k"])
    def test_array_beyond_numpy_is_one_error_line(self, pipeline, tmp_path, capsys, flags):
        # Each array would need more than intp.max bytes, so nothing is drawn.
        if flags[0] == "train":
            files = [*corpus_args(pipeline), "--ckpt", str(tmp_path / "m.paup")]
        else:
            files = ["--vis", str(tmp_path / "v"), "--txt", str(tmp_path / "t"),
                     "--pairs", str(tmp_path / "p")]
        assert run([*flags, *files]) == 1
        assert_one_line_error(capsys)

    def test_non_finite_csv_embeddings(self, pipeline, tmp_path, capsys):
        rows = [[repr(float(x)) for x in row] for row in read_embeddings(pipeline["vis"]).vectors]
        rows[3][5] = "nan"
        vis = tmp_path / "vis.csv"
        vis.write_text("".join(",".join(row) + "\n" for row in rows))
        assert run(["score", "--ckpt", pipeline["ckpt"], "--vis", str(vis)]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("labels, names", [
        ("item,m,semantics\n0,1,0\n40,2,1;2\n", "item 40"),
        ("item,semantics\n0,0\n", "'m'"),
        ("item,m,semantics\n0,1,0\n", "item 1 has no row"),
    ], ids=["item-out-of-range", "no-m-column", "missing-items"])
    def test_bad_labels_csv(self, pipeline, tmp_path, capsys, labels, names):
        path = tmp_path / "labels.csv"
        path.write_text(labels)
        assert run([
            "analyze", "pcc", "--ckpt", pipeline["ckpt"], "--vis", pipeline["vis"],
            "--txt", pipeline["txt"], "--pairs", pipeline["pairs"], "--labels", str(path),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and names in err


# Files that do not exist: a command that parsed would exit 1, not 2.
CORPUS_ARGS = ("--vis", "v", "--txt", "t", "--pairs", "p", "--ckpt", "c")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["not-a-command"],
            ["train", "--vis", "v", "--txt", "t", "--pairs", "p", "--ckpt", "c"],
            ["analyze"],
            ["evaluate", "--vis", "v", "--txt", "t", "--pairs", "p", "--threads", "2"],
            ["train", "--vis", "v", "--txt", "t", "--pairs", "p", "--ckpt", "c",
             "--epochs", "1", "--optimizer", "adam"],
            ["rerank", *CORPUS_ARGS, "--fit-betas", "--grid", "0,x"],
            ["gen-synth", "--vis", "v", "--txt", "t", "--pairs", "p", "--weights", "1,y"],
            ["analyze", "removal-curve", *CORPUS_ARGS, "--counts", "1,z"],
            ["analyze", "removal-curve", *CORPUS_ARGS, "--fractions", "nan"],
            ["analyze", "removal-curve", *CORPUS_ARGS, "--fractions", "inf"],
            ["analyze", "removal-curve", *CORPUS_ARGS, "--fractions", "0.1,,0.2"],
            ["rerank", *CORPUS_ARGS, "--fit-betas", "--beta1", "3"],
            ["rerank", *CORPUS_ARGS, "--fit-betas", "--beta2", "4"],
        ],
    )
    def test_argparse_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
