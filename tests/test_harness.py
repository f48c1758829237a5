"""Experiment orchestration, report emission, and the command line."""

import json

import numpy as np
import pytest

from annobias import (
    CorrectionParams,
    DatasetMeta,
    LabelDistribution,
    Strategy,
    estimate_delta_two_proposals,
    repair_labels,
)
from annobias.harness.cli import main
from annobias.harness.config import ConfigError, ExperimentConfig
from annobias.harness.experiments import (
    Report,
    emit_report,
    run_calibration,
    run_from_manifest,
    run_label_correction,
    run_simulation_experiment,
    run_strategy_comparison,
)
from annobias.harness.formats import (
    Dataset,
    FormatError,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    bundled_transition_matrix,
    load_transition_matrix,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)
from annobias.calibration import CalibrationError

from conftest import (
    banded_campaign,
    build_dataset,
    campaign_records,
    two_proposal_dataset,
)


@pytest.fixture
def annotated_dataset_dir(tmp_path):
    """Dataset with raw annotations and an explicit proposal column."""
    ds = build_dataset(6, seed=9, with_proposal=True)
    images = []
    for i, img in enumerate(ds.images):
        classes = (0, 0, 1) if i % 2 == 0 else (1, 2, 1, 1)
        images.append(
            type(img)(
                img.image_id,
                img.gt,
                None,
                classes,
                img.proposal,
            )
        )
    # re-tally through the loader to keep annotations consistent
    path = tmp_path / "annotated"
    save_dataset(Dataset(ds.meta, tuple(images)), path)
    return path


@pytest.fixture
def identity_transitions(tmp_path):
    path = tmp_path / "identity.json"
    save_transition_matrix(TransitionMatrixFile(tuple(map(tuple, np.eye(3)))), path)
    return path


def _campaign_dir(tmp_path, n_images=60, log_seed=44):
    """Dataset plus proposal-guided log, written to disk."""
    ds = build_dataset(n_images, seed=23, jitter=0.4)
    ds_dir = tmp_path / "campaign"
    save_dataset(ds, ds_dir)
    records = campaign_records(
        ds, delta=0.1, annotations_per_image=5, seed=log_seed, proposal_mode="random"
    )
    entries = [LogEntry(r.image_id, r.proposal, r.annotated) for r in records]
    log_path = tmp_path / "log.csv"
    save_acceptance_log(entries, log_path, ds.meta)
    return ds_dir, log_path


class TestExperimentConfig:
    def test_defaults(self, dataset_dir):
        cfg = ExperimentConfig(seed=1, dataset=str(dataset_dir))
        assert cfg.strategy == "ACCEPT_GT"
        assert cfg.annotations == (5, 10, 20, 50)
        assert cfg.metrics == ("kl",)
        assert cfg.speedups == (1.0, 2.5, 10.0)
        assert cfg.initial_supervision == 0.2
        assert cfg.pct_annotated == 1.0
        assert cfg.aggregation == "median"
        assert cfg.use_bc and cfg.use_cb
        assert cfg.cb_input == "corrected"
        assert cfg.reject_fallback == "first"
        assert cfg.sim_delta is None and cfg.mu is None

    def test_strategy_spelling_is_canonicalized(self, dataset_dir):
        cfg = ExperimentConfig(seed=1, dataset=str(dataset_dir), strategy="accept-gt")
        assert cfg.strategy == "ACCEPT_GT"

    def test_bad_strategy_fails_at_construction(self, dataset_dir):
        with pytest.raises(ConfigError, match="strategy"):
            ExperimentConfig(seed=1, dataset=str(dataset_dir), strategy="SOMETIMES")

    def test_missing_dataset_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="dataset directory not found"):
            ExperimentConfig(seed=1, dataset=str(tmp_path / "nope"))

    def test_seed_must_fit_64_bits(self, dataset_dir):
        with pytest.raises(ConfigError, match="64"):
            ExperimentConfig(seed=-1, dataset=str(dataset_dir))
        with pytest.raises(ConfigError, match="64"):
            ExperimentConfig(seed=2**64, dataset=str(dataset_dir))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"annotations": ()}, "annotations"),
            ({"annotations": (0,)}, "annotations"),
            ({"mu": 1.5}, "mu"),
            ({"corr_delta": 0.5, "corr_upper_bound": 0.4}, "corr_delta"),
            ({"cb_input": "sideways"}, "cb_input"),
            ({"reject_fallback": "retry"}, "reject_fallback"),
            ({"metrics": ("kl", "accuracy")}, "unknown metrics"),
            ({"metrics": ("kl", "kl")}, "duplicate"),
            ({"speedups": (0.5,)}, "speedup"),
            ({"initial_supervision": 1.5}, "initial_supervision"),
            ({"pct_annotated": -0.1}, "pct_annotated"),
            ({"aggregation": "mode"}, "aggregation"),
        ],
    )
    def test_field_validation(self, dataset_dir, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(seed=1, dataset=str(dataset_dir), **kwargs)

    def test_missing_transitions_file(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="transitions file not found"):
            ExperimentConfig(
                seed=1,
                dataset=str(dataset_dir),
                transitions=str(tmp_path / "no.json"),
            )

    def test_from_mapping_unknown_key(self, dataset_dir):
        with pytest.raises(ConfigError, match="unknown config keys.*'typo'"):
            ExperimentConfig.from_mapping(
                {"seed": 1, "dataset": str(dataset_dir), "typo": True}
            )

    def test_from_mapping_requires_seed_and_dataset(self, dataset_dir):
        with pytest.raises(ConfigError, match="missing required key 'seed'"):
            ExperimentConfig.from_mapping({"dataset": str(dataset_dir)})
        with pytest.raises(ConfigError, match="missing required key 'dataset'"):
            ExperimentConfig.from_mapping({"seed": 1})

    def test_file_round_trip(self, dataset_dir, tmp_path):
        cfg = ExperimentConfig(
            seed=42,
            dataset=str(dataset_dir),
            strategy="LIKELY",
            annotations=(3, 7),
            sim_delta=0.2,
            metrics=("kl", "l1"),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_mapping()), encoding="utf-8")
        assert ExperimentConfig.from_file(path) == cfg

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_file(path)

    def test_from_file_non_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            ExperimentConfig.from_file(path)


class TestRunSimulationExperiment:
    def test_faithful_annotators_score_near_zero(self, dataset_dir):
        cfg = ExperimentConfig(
            seed=5,
            dataset=str(dataset_dir),
            strategy="GT",
            annotations=(2000,),
            use_bc=False,
            use_cb=False,
        )
        report = run_simulation_experiment(cfg)
        median = next(
            row["value"]
            for row in report.aggregates
            if row["variant"] == "raw" and row["aggregate"] == "median"
        )
        assert median < 0.01

    def test_repair_beats_raw_under_default_pipeline(self, dataset_dir):
        cfg = ExperimentConfig(
            seed=20260816, dataset=str(dataset_dir), annotations=(10,)
        )
        report = run_simulation_experiment(cfg)
        medians = {
            row["variant"]: row["value"]
            for row in report.aggregates
            if row["aggregate"] == "median"
        }
        assert medians["repaired"] < medians["raw"]

    def test_manifest_captures_run(self, dataset_dir):
        cfg = ExperimentConfig(seed=3, dataset=str(dataset_dir), annotations=(2,))
        m = run_simulation_experiment(cfg).manifest
        assert m["tool"] == "annobias"
        assert m["command"] == "simulate"
        assert m["seed"] == 3
        assert m["dataset_images"] == 30
        assert m["num_classes"] == 3
        assert m["proposal_source"] == "argmax_gt"
        assert m["effective_sim_delta"] == 0.1  # dataset metadata
        assert m["effective_mu"] == 0.75
        assert m["transitions_source"] == "estimated"
        assert ExperimentConfig.from_mapping(m["config"]) == cfg

    def test_empty_metrics_is_manifest_only(self, dataset_dir):
        cfg = ExperimentConfig(seed=3, dataset=str(dataset_dir), metrics=())
        report = run_simulation_experiment(cfg)
        assert report.results == []
        assert report.aggregates == []
        assert report.budget == []
        assert report.manifest["transitions_source"] == "unused"

    def test_same_seed_reproduces_tables(self, dataset_dir):
        cfg = ExperimentConfig(seed=11, dataset=str(dataset_dir), annotations=(3,))
        a = run_simulation_experiment(cfg)
        b = run_simulation_experiment(cfg)
        assert a.results == b.results
        assert a.aggregates == b.aggregates
        assert a.budget == b.budget

    def test_image_order_does_not_change_values(self, tmp_path, identity_transitions):
        # a fixed matrix isolates the per-image streams; estimating one
        # samples from the image pool and is legitimately order-sensitive
        ds = build_dataset(10, seed=3)
        fwd, rev = tmp_path / "fwd", tmp_path / "rev"
        save_dataset(ds, fwd)
        save_dataset(Dataset(ds.meta, tuple(reversed(ds.images))), rev)

        def values(path):
            cfg = ExperimentConfig(
                seed=8,
                dataset=str(path),
                annotations=(4,),
                transitions=str(identity_transitions),
            )
            report = run_simulation_experiment(cfg)
            return {
                (r["image_id"], r["variant"]): r["value"] for r in report.results
            }

        assert values(fwd) == values(rev)

    def test_failures_name_the_image(self, dataset_dir, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("contrived failure")

        monkeypatch.setattr(
            "annobias.harness.experiments.repair_labels", boom
        )
        cfg = ExperimentConfig(seed=3, dataset=str(dataset_dir), annotations=(2,))
        with pytest.raises(RuntimeError, match="image 'img_0000': contrived"):
            run_simulation_experiment(cfg)

    def test_budget_table_covers_grid(self, dataset_dir):
        cfg = ExperimentConfig(
            seed=3,
            dataset=str(dataset_dir),
            annotations=(5, 10),
            speedups=(1.0, 10.0),
        )
        report = run_simulation_experiment(cfg)
        assert len(report.budget) == 4
        row = next(
            r
            for r in report.budget
            if r["speedup"] == 10.0 and r["annotations"] == 5
        )
        assert row["budget"] == 0.7


class TestRunStrategyComparison:
    def test_acceptance_model_ranks_ahead_of_baselines(self, tmp_path):
        ds_dir, log_path = _campaign_dir(tmp_path)
        cfg = ExperimentConfig(seed=101, dataset=str(ds_dir), sim_delta=0.1)
        rows = run_strategy_comparison(cfg, log_path)
        assert len(rows) == 7
        assert {r.strategy for r in rows} == set(Strategy)
        means = {r.strategy: r.mean for r in rows}
        assert means[Strategy.ACCEPT_GT] < means[Strategy.RANDOM]
        assert means[Strategy.ACCEPT_GT] < means[Strategy.GT]
        assert [r.mean for r in rows] == sorted(r.mean for r in rows)

    def test_empty_log_is_an_error(self, tmp_path):
        ds = build_dataset(3, seed=1)
        ds_dir = tmp_path / "ds"
        save_dataset(ds, ds_dir)
        log_path = tmp_path / "log.csv"
        save_acceptance_log([], log_path, ds.meta)
        cfg = ExperimentConfig(seed=1, dataset=str(ds_dir))
        with pytest.raises(FormatError, match="no entries"):
            run_strategy_comparison(cfg, log_path)


class TestRunCalibration:
    def _banded_setup(self, tmp_path, seed=0, delta=0.2):
        ds, entries = banded_campaign(seed, delta)
        ds_dir = tmp_path / "banded"
        save_dataset(ds, ds_dir)
        log_path = tmp_path / "banded_log.csv"
        save_acceptance_log(entries, log_path, ds.meta)
        return ds_dir, log_path

    def test_banded_report(self, tmp_path):
        ds_dir, log_path = self._banded_setup(tmp_path)
        cfg = ExperimentConfig(seed=0, dataset=str(ds_dir))
        report = run_calibration(cfg, log_path, "banded", rescale=1.0)
        assert report["method"] == "banded"
        assert abs(report["estimate"] - 0.2) <= 0.05
        assert report["band"] == [0.2, 0.4]
        assert report["n_records"] == 2000
        assert report["n_in_band_records"] == 2000
        assert report["n_in_band_images"] == 20
        assert report["occupancy"]["bin_2"] == 2000
        assert report["upper_bound"] == 0.99

    def test_empty_log(self, tmp_path):
        ds_dir, _ = self._banded_setup(tmp_path)
        empty = tmp_path / "empty.csv"
        save_acceptance_log([], empty, build_dataset(2, seed=1).meta)
        cfg = ExperimentConfig(seed=0, dataset=str(ds_dir))
        with pytest.raises(CalibrationError, match="empty log"):
            run_calibration(cfg, empty, "banded")

    def test_out_of_band_error_reports_occupancy(self, tmp_path):
        gt = LabelDistribution([0.5, 0.3, 0.2])  # proposal mass in bin 3
        images = tuple(
            ImageRecord(f"img_{i}", gt, None, (), 0) for i in range(3)
        )
        ds = Dataset(DatasetMeta(("a", "b", "c")), images)
        ds_dir = tmp_path / "ds"
        save_dataset(ds, ds_dir)
        entries = [LogEntry(img.image_id, 0, 0) for img in ds.images]
        log_path = tmp_path / "log.csv"
        save_acceptance_log(entries, log_path, ds.meta)
        cfg = ExperimentConfig(seed=0, dataset=str(ds_dir))
        with pytest.raises(CalibrationError, match="occupancy.*bin_3"):
            run_calibration(cfg, log_path, "banded")

    def _edge_setup(self, tmp_path, masses):
        """One accepted record per image, proposing class 0 at each mass."""
        images = tuple(
            ImageRecord(f"img_{i}", LabelDistribution([m, 0.5, 0.5 - m]), None, (), 0)
            for i, m in enumerate(masses)
        )
        ds = Dataset(DatasetMeta(("a", "b", "c")), images)
        ds_dir = tmp_path / "edge"
        save_dataset(ds, ds_dir)
        log_path = tmp_path / "edge_log.csv"
        entries = [LogEntry(img.image_id, 0, 0) for img in images]
        save_acceptance_log(entries, log_path, ds.meta)
        return ExperimentConfig(seed=0, dataset=str(ds_dir)), log_path

    def test_report_counts_record_the_estimate_used_at_upper_edge(self, tmp_path):
        # 0.4 + 5e-13 is inside the band's round-off tolerance
        cfg, log_path = self._edge_setup(tmp_path, [0.4 + 5e-13])
        report = run_calibration(cfg, log_path, "banded", n_target=1)
        assert report["n_in_band_records"] == 1
        assert report["n_in_band_images"] == 1

    def test_report_skips_record_the_estimate_skipped_at_lower_edge(self, tmp_path):
        # 0.2 + 5e-13 is within round-off of the open lower edge: out of band
        cfg, log_path = self._edge_setup(tmp_path, [0.2 + 5e-13])
        with pytest.raises(CalibrationError, match="no records"):
            run_calibration(cfg, log_path, "banded", n_target=1)
        cfg, log_path = self._edge_setup(tmp_path, [0.2 + 5e-13, 0.3])
        report = run_calibration(cfg, log_path, "banded", n_target=1)
        assert report["n_in_band_records"] == 1
        assert report["n_in_band_images"] == 1

    def test_two_proposal_report(self, tmp_path):
        records = two_proposal_dataset(seed=0, delta=0.1, n_records=50)
        entries = []
        for rec in records:
            for cls, n in enumerate(rec.annotations_a.counts):
                entries.extend([LogEntry(rec.image_id, rec.proposal_a, cls)] * int(n))
            for cls, n in enumerate(rec.annotations_b.counts):
                entries.extend([LogEntry(rec.image_id, rec.proposal_b, cls)] * int(n))
        meta = DatasetMeta(tuple(f"class_{i}" for i in range(6)))
        placeholder = ImageRecord(
            "unused", LabelDistribution(np.full(6, 1 / 6)), None, (), None
        )
        ds_dir = tmp_path / "six"
        save_dataset(Dataset(meta, (placeholder,)), ds_dir)
        log_path = tmp_path / "two_log.csv"
        save_acceptance_log(entries, log_path, meta)

        cfg = ExperimentConfig(seed=0, dataset=str(ds_dir))
        report = run_calibration(cfg, log_path, "two-proposal")
        assert report["method"] == "two-proposal"
        assert report["n_records"] == 50
        assert report["estimate"] == estimate_delta_two_proposals(records)
        assert report["n_survivors"] <= report["n_finite_candidates"] <= 50
        assert (
            report["candidate_min"]
            <= report["estimate"]
            <= report["candidate_max"]
        )

    def test_unknown_method(self, tmp_path):
        ds_dir, log_path = self._banded_setup(tmp_path)
        cfg = ExperimentConfig(seed=0, dataset=str(ds_dir))
        with pytest.raises(ConfigError, match="unknown calibration method"):
            run_calibration(cfg, log_path, "bogus")


class TestRunLabelCorrection:
    def test_matches_direct_repair(self, annotated_dataset_dir, identity_transitions):
        from annobias.harness.formats import load_dataset

        out = run_label_correction(
            str(annotated_dataset_dir), transitions=str(identity_transitions)
        )
        ds = load_dataset(annotated_dataset_dir)
        assert [image_id for image_id, _ in out] == [
            img.image_id for img in ds.images
        ]
        matrix = load_transition_matrix(identity_transitions).matrix
        corr = CorrectionParams(delta=0.1, upper_bound=0.99, mu=ds.meta.mu)
        for (_, repaired), img in zip(out, ds.images):
            expected = repair_labels(img.annotations, img.proposal, matrix, corr)
            np.testing.assert_array_equal(repaired.probs, expected.probs)

    def test_missing_annotations(self, tmp_path):
        ds = build_dataset(3, seed=2, with_proposal=True)
        ds_dir = tmp_path / "ds"
        save_dataset(ds, ds_dir)
        with pytest.raises(FormatError, match="no raw annotations"):
            run_label_correction(str(ds_dir), seed=1)

    def test_missing_proposals(self, tmp_path):
        ds = build_dataset(3, seed=2)
        images = tuple(
            type(img)(img.image_id, img.gt, None, (0, 1), None)
            for img in ds.images
        )
        ds_dir = tmp_path / "ds"
        save_dataset(Dataset(ds.meta, images), ds_dir)
        with pytest.raises(FormatError, match="no proposal"):
            run_label_correction(str(ds_dir), seed=1)

    def test_estimation_requires_seed(self, annotated_dataset_dir):
        with pytest.raises(ConfigError, match="seed"):
            run_label_correction(str(annotated_dataset_dir))

    def test_estimation_is_deterministic(self, annotated_dataset_dir):
        a = run_label_correction(str(annotated_dataset_dir), seed=4)
        b = run_label_correction(str(annotated_dataset_dir), seed=4)
        for (id_a, dist_a), (id_b, dist_b) in zip(a, b):
            assert id_a == id_b
            np.testing.assert_array_equal(dist_a.probs, dist_b.probs)

    def test_matrix_width_must_match(self, annotated_dataset_dir, tmp_path):
        two_class = tmp_path / "two.json"
        save_transition_matrix(bundled_transition_matrix("qualitymri"), two_class)
        with pytest.raises(FormatError, match="matrix has 2 classes, dataset has 3"):
            run_label_correction(
                str(annotated_dataset_dir), transitions=str(two_class)
            )


class TestEmitReport:
    def test_budget_row_bytes(self, tmp_path):
        report = Report(
            manifest={"note": 1},
            budget=[{"speedup": 10.0, "annotations": 5, "budget": 0.7}],
        )
        written = emit_report(report, tmp_path)
        assert [p.name for p in written] == ["manifest.json", "budget.csv"]
        assert (tmp_path / "budget.csv").read_text() == (
            "speedup,annotations,budget\n10.0,5,0.7\n"
        )

    def test_empty_tables_are_omitted(self, tmp_path):
        written = emit_report(Report(manifest={"note": 1}), tmp_path)
        assert [p.name for p in written] == ["manifest.json"]
        assert not (tmp_path / "results.csv").exists()


class TestRunFromManifest:
    def test_reproduces_results(self, dataset_dir, tmp_path):
        cfg = ExperimentConfig(seed=6, dataset=str(dataset_dir), annotations=(3,))
        out1 = tmp_path / "run1"
        emit_report(run_simulation_experiment(cfg), out1)
        report2 = run_from_manifest(out1 / "manifest.json")
        out2 = tmp_path / "run2"
        emit_report(report2, out2)
        for name in ("results.csv", "aggregates.csv", "budget.csv"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created"), m2.pop("created")
        assert m1 == m2

    def test_relative_dataset_path_resolves_against_manifest(
        self, tmp_path
    ):
        ds = build_dataset(5, seed=2)
        save_dataset(ds, tmp_path / "ds")
        cfg = ExperimentConfig(
            seed=9, dataset=str(tmp_path / "ds"), annotations=(2,)
        )
        report = run_simulation_experiment(cfg)
        portable = dict(report.manifest)
        portable["config"] = dict(portable["config"], dataset="ds")
        (tmp_path / "manifest.json").write_text(json.dumps(portable))
        rerun = run_from_manifest(tmp_path / "manifest.json")
        assert rerun.results == report.results

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            run_from_manifest(tmp_path / "absent.json")

    def test_manifest_without_config(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"tool": "annobias"}')
        with pytest.raises(ConfigError, match="not a run manifest"):
            run_from_manifest(path)


class TestCli:
    def test_simulate_end_to_end(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--dataset",
                str(dataset_dir),
                "--seed",
                "7",
                "--annotations",
                "3,5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        for name in ("manifest.json", "results.csv", "aggregates.csv", "budget.csv"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "manifest.json" in stdout

    def test_simulate_is_byte_reproducible(self, dataset_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "simulate",
                        "--dataset",
                        str(dataset_dir),
                        "--seed",
                        "7",
                        "--annotations",
                        "3",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        a, b = outs
        for name in ("results.csv", "aggregates.csv", "budget.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # only the timestamp and the recorded output directory may differ
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        for m in (ma, mb):
            m.pop("created")
            m["config"].pop("out_dir")
        assert ma == mb

    def test_simulate_requires_seed(self, dataset_dir, tmp_path, capsys):
        rc = main(
            ["simulate", "--dataset", str(dataset_dir), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "seed" in err

    def test_simulate_rejects_bad_strategy(self, dataset_dir, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--dataset",
                str(dataset_dir),
                "--seed",
                "1",
                "--strategy",
                "BOGUS",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_correct_writes_csv(
        self, annotated_dataset_dir, identity_transitions, tmp_path, capsys
    ):
        out = tmp_path / "repaired.csv"
        rc = main(
            [
                "correct",
                "--dataset",
                str(annotated_dataset_dir),
                "--transitions",
                str(identity_transitions),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "image_id,p_0,p_1,p_2"
        assert len(lines) == 7  # header + six images
        assert str(out) in capsys.readouterr().out

    def test_calibrate_study_rescale(self, tmp_path, capsys):
        ds, entries = banded_campaign(seed=0, delta=0.2)
        ds_dir = tmp_path / "ds"
        save_dataset(ds, ds_dir)
        log_path = tmp_path / "log.csv"
        save_acceptance_log(entries, log_path, ds.meta)

        def run(*extra):
            args = [
                "calibrate",
                "--dataset",
                str(ds_dir),
                "--log",
                str(log_path),
                *extra,
            ]
            assert main(args) == 0
            out = capsys.readouterr().out
            return float(
                next(l for l in out.splitlines() if l.startswith("estimate:")).split(
                    ":"
                )[1]
            )

        plain = run()
        assert abs(plain - 0.2) <= 0.05
        study = run("--study-data")
        assert study == pytest.approx(1.3 * plain, rel=1e-9)

    def test_calibrate_writes_json_report(self, tmp_path, capsys):
        ds, entries = banded_campaign(seed=1, delta=0.1)
        ds_dir = tmp_path / "ds"
        save_dataset(ds, ds_dir)
        log_path = tmp_path / "log.csv"
        save_acceptance_log(entries, log_path, ds.meta)
        out = tmp_path / "report.json"
        rc = main(
            [
                "calibrate",
                "--dataset",
                str(ds_dir),
                "--log",
                str(log_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["method"] == "banded"
        assert data["n_records"] == 2000

    def test_estimate_transitions_writes_loadable_matrix(
        self, dataset_dir, tmp_path, capsys
    ):
        out = tmp_path / "estimated.json"
        rc = main(
            [
                "estimate-transitions",
                "--dataset",
                str(dataset_dir),
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        tm = load_transition_matrix(out)
        assert tm.matrix.num_classes == 3
        assert tm.metadata["seed"] == 3
        assert tm.class_names == ("class_0", "class_1", "class_2")

    def test_compare_strategies_prints_ranking(self, tmp_path, capsys):
        ds_dir, log_path = _campaign_dir(tmp_path, n_images=20)
        out = tmp_path / "ranking.csv"
        rc = main(
            [
                "compare-strategies",
                "--dataset",
                str(ds_dir),
                "--log",
                str(log_path),
                "--seed",
                "101",
                "--sim-delta",
                "0.1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "strategy" in stdout
        assert "ACCEPT_GT" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "strategy,mean_sod,std_sod,sods"
        assert len(lines) == 8

    def test_report_reproduces_simulation(self, dataset_dir, tmp_path):
        first = tmp_path / "first"
        assert (
            main(
                [
                    "simulate",
                    "--dataset",
                    str(dataset_dir),
                    "--seed",
                    "7",
                    "--annotations",
                    "3",
                    "--out",
                    str(first),
                ]
            )
            == 0
        )
        second = tmp_path / "second"
        rc = main(
            [
                "report",
                "--from-manifest",
                str(first / "manifest.json"),
                "--out",
                str(second),
            ]
        )
        assert rc == 0
        assert (second / "results.csv").read_bytes() == (
            first / "results.csv"
        ).read_bytes()
