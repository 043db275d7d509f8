"""Smoke tests: the shipped examples must run end to end.

Only the fast examples are exercised (the full set is run manually /
in CI stages); each must complete without raising and print its headline
result.
"""

import importlib

import pytest


def run_example(name: str, capsys) -> str:
    module = importlib.import_module(f"examples.{name}")
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "generated blue_sky_576p25" in out
        assert "PSNR" in out

    def test_transcode(self, capsys):
        out = run_example("transcode", capsys)
        assert "bitrate saved by transcoding" in out
        assert "generation loss" in out
