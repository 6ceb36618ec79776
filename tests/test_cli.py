"""Tests for the command-line generator tool."""

import json

import pytest

from repro.cli import _release_warning, build_config, main
from repro.datasets.dataset import Dataset
from repro.datasets.metadata import read_metadata


class TestBuildConfig:
    def test_defaults_are_demo_scaled(self):
        config = build_config({}, num_attributes=11)
        # The paper's k=50 assumes ~1.2M seed records and releases nothing at
        # the CLI's demo scale, so the default is deliberately smaller.
        assert config.privacy.k == 10
        assert config.privacy.gamma == 4.0
        assert config.model.omega == 9

    def test_overrides_applied(self):
        config = build_config(
            {"k": 10, "gamma": 2.0, "omega": [5, 6], "total_epsilon": 0.5}, num_attributes=11
        )
        assert config.privacy.k == 10
        assert config.model.omega == (5, 6)

    def test_unnoised_model_when_total_epsilon_is_null(self):
        config = build_config({"total_epsilon": None}, num_attributes=11)
        assert config.model.epsilon_structure is None
        assert config.model.epsilon_parameters is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config({"not_a_key": 1}, num_attributes=11)

    def test_removed_sampling_test_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config({"approximate": True}, num_attributes=11)


class TestReleaseWarning:
    def test_zero_releases_produce_a_warning(self):
        warning = _release_warning(0, 100, k=50, num_seed_records=2000)
        assert warning is not None
        assert "k=50" in warning
        assert "2000" in warning

    def test_successful_release_produces_no_warning(self):
        assert _release_warning(1, 100, k=50, num_seed_records=2000) is None
        assert _release_warning(100, 100, k=10, num_seed_records=2000) is None

    def test_zero_requested_produces_no_warning(self):
        assert _release_warning(0, 0, k=50, num_seed_records=2000) is None


class TestEndToEndCli:
    def test_sample_data_then_generate(self, tmp_path, capsys):
        demo_dir = tmp_path / "demo"
        exit_code = main(
            ["sample-data", "--output-dir", str(demo_dir), "--records", "4000", "--seed", "3"]
        )
        assert exit_code == 0
        assert (demo_dir / "acs.csv").exists()
        assert (demo_dir / "metadata.json").exists()
        assert (demo_dir / "config.json").exists()

        config_path = demo_dir / "config.json"
        config_path.write_text(
            json.dumps({"k": 10, "gamma": 4.0, "epsilon0": 1.0, "omega": 9, "total_epsilon": 1.0})
        )
        output_path = tmp_path / "synthetic.csv"
        exit_code = main(
            [
                "generate",
                "--input", str(demo_dir / "acs.csv"),
                "--metadata", str(demo_dir / "metadata.json"),
                "--config", str(config_path),
                "--output", str(output_path),
                "--records", "20",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "records released" in captured.out

        schema = read_metadata(demo_dir / "metadata.json")
        released = Dataset.from_csv(schema, output_path)
        assert len(released) == 20
        assert released.schema == schema


class TestServeArguments:
    def test_serve_requires_an_input_source(self):
        with pytest.raises(SystemExit, match="either --scenario or both"):
            main(["serve", "--port", "0"])

    def test_serve_scenario_and_input_are_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "serve",
                    "--scenario", "tiny-n",
                    "--input", "x.csv",
                    "--metadata", "x.json",
                ]
            )

    def test_serve_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["serve", "--scenario", "not-a-scenario", "--port", "0"])
