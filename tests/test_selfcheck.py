"""The ``selfcheck`` command's contract: no options, one PASS/FAIL line
per check, exit 1 on any FAIL.  The checks themselves run in
``make selfcheck``; here fake groups stand in for them."""

import pytest

from repro import selfcheck
from repro.cli import build_parser, main


def passing():
    yield "first", True
    yield "second", True


def failing():
    yield "third", False


def raising():
    yield "fourth", True
    raise RuntimeError("boom")


def test_takes_no_options():
    assert build_parser().parse_args(["selfcheck"]).command == "selfcheck"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["selfcheck", "-n", "100"])


def test_one_line_per_check(capsys):
    assert selfcheck.run_selfcheck((passing,)) is True
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["PASS first", "PASS second",
                     "selfcheck: 2 of 2 checks passed"]


def test_any_fail_fails_the_run(capsys):
    assert selfcheck.run_selfcheck((failing, passing)) is False
    out = capsys.readouterr().out
    assert "FAIL third" in out and "PASS second" in out


def test_raising_group_is_a_fail_and_the_next_group_runs(capsys):
    assert selfcheck.run_selfcheck((raising, passing)) is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["PASS fourth",
                         "FAIL raising raised RuntimeError: boom"]
    assert "PASS first" in lines


@pytest.mark.parametrize("ok, status", [(True, 0), (False, 1)])
def test_exit_status(monkeypatch, ok, status):
    monkeypatch.setattr(selfcheck, "run_selfcheck", lambda: ok)
    assert main(["selfcheck"]) == status
