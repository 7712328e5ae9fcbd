"""Tests for the CLI entry point."""

import pytest

from repro.__main__ import main as cli_main


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "pufferfish-repro" in out
        assert "fig4_synthetic" in out

    def test_verify_passes(self, capsys):
        assert cli_main(["verify", "--length", "4"]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_single_experiment(self, capsys):
        assert cli_main(["experiments", "section3_flu"]) == 0
        out = capsys.readouterr().out
        assert "Wasserstein bound" in out

    def test_running_example_experiment(self, capsys):
        assert cli_main(["experiments", "section44_running_example"]) == 0
        out = capsys.readouterr().out
        assert "13.02" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["experiments", "bogus"])

    def test_calibrate_is_bit_identical(self, capsys):
        argv = ["calibrate", "--workers", "1", "--grid-points", "2", "--length", "20"]
        assert cli_main(argv) == 0
        assert '"bit_identical": true' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--length", "0"],
            # The benchmark demos left the CLI; benchmarks/bench_*.py run them.
            ["throughput"],
            ["stream"],
            ["accounting"],
            ["temporal"],
            # Only lint takes options this parser does not define.
            ["info", "--bogus"],
            # ... and the lint CLI's own parser refuses what it lacks.
            ["lint", "--bogus"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "{experiments,verify,calibrate,serve,lint,info}" in out

    def test_help_prints_the_docstring_as_written(self, capsys):
        """The command list keeps its heading and one line per command
        instead of being reflowed into one paragraph."""
        import repro.__main__

        with pytest.raises(SystemExit):
            cli_main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        doc = repro.__main__.__doc__.strip().splitlines()
        start = lines.index(doc[0])
        assert lines[start : start + len(doc)] == doc
        assert "Commands" in doc and "``lint``" in doc

    def test_lint_help_is_the_lint_clis(self, capsys):
        """The lint subparser has no -h of its own: --help reaches the
        lint CLI, which prints its options."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro lint")
        assert "--list-rules" in out and "--strict" in out
