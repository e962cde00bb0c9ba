"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.__main__ import main


class TestCompileCommand:
    def test_compile_known_service(self, capsys):
        assert main(["compile", "lock"]) == 0
        out = capsys.readouterr().out
        assert "interface     : lock" in out
        assert "mechanisms" in out

    def test_compile_unknown(self, capsys):
        assert main(["compile", "nope"]) == 1

    def test_compile_from_file(self, tmp_path, capsys):
        idl = tmp_path / "x.idl"
        idl.write_text(
            "service = x;\n"
            "service_global_info = { desc_has_data = true };\n"
            "sm_creation(mk);\n"
            "desc_data_retval(long, xid)\n"
            "mk(desc_data(componentid_t c));\n"
        )
        assert main(["compile", str(idl)]) == 0
        assert "interface     : x" in capsys.readouterr().out

    def test_compile_show_source(self, capsys):
        assert main(["compile", "lock", "--show-source"]) == 0
        assert "GeneratedClientStub" in capsys.readouterr().out


class TestCampaignCommand:
    def test_tiny_campaign(self, capsys):
        assert main(["table2", "--faults", "4"]) == 0
        out = capsys.readouterr().out
        assert "sched" in out and "SuccRate" in out


class TestFig7Command:
    def test_small_run(self, capsys):
        assert main(["fig7", "--requests", "60"]) == 0
        out = capsys.readouterr().out
        assert "apache (model)" in out
        assert "superglue + faults" in out


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        # The commands are the paper's experiments and their tools; the
        # removed multi-node ``cluster`` campaign is not one of them.
        with pytest.raises(SystemExit) as exit_:
            main(["cluster"])
        assert exit_.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err
