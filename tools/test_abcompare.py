"""The byte-compare tool: a tree against its own HEAD, and a tampered output."""

import shutil

import pytest

import abcompare


@pytest.fixture(scope="module")
def head_work(tmp_path_factory):
    """Outputs of a comparison of this checkout against HEAD, kept for the tests."""
    work = tmp_path_factory.mktemp("abcompare") / "work"
    code = abcompare.main(["--against", "HEAD", "--work", str(work)])
    return code, work


def test_against_head_every_artifact_identical(head_work, capsys):
    code, work = head_work
    assert code == 0
    artifacts = abcompare.compare_outputs(work / "base", work / "change")
    assert len(artifacts) > 100
    assert {status for _, status in artifacts} == {"identical"}
    names = {rel.split("/")[0] for rel, _ in artifacts}
    expected = {
        "gauss_run-seed0", "gauss_sweep-seed7127", "quad_sweep-seed0", "criterion9", "finetune_abort",
        "npo_beta_sweep", *abcompare.FALLBACK_CONFIGS, *abcompare.ECHO_CONFIGS,
    }
    assert expected <= names


def test_altered_record_and_missing_file_are_reported(head_work, tmp_path, capsys):
    _, work = head_work
    change = tmp_path / "change"
    shutil.copytree(work / "change", change)
    records = sorted(change.rglob("record.json"))
    text = records[0].read_text()
    records[0].write_text(text.replace('"guard_trips":', '"guard_trips": ', 1))
    records[1].unlink()
    artifacts = dict(abcompare.compare_outputs(work / "base", change))
    assert artifacts[str(records[0].relative_to(change))] == "differing"
    assert artifacts[str(records[1].relative_to(change))] == "missing in change"
    assert sum(status != "identical" for status in artifacts.values()) == 2
    capsys.readouterr()
    assert abcompare.verdict(sorted(artifacts.items()), {}) == 1
    assert "2 not identical" in capsys.readouterr().out


def test_differing_exit_code_is_reported(capsys):
    calls = {"quad_abort": ((3, "", "error: a\n"), (0, "", ""))}
    assert abcompare.verdict([("x/record.json", "identical")], calls) == 1
    assert "exit code differs" in capsys.readouterr().out


def test_differing_output_is_reported(capsys):
    calls = {"finetune": ((0, "no-unlearn: acc_retain=1.000000\n", ""), (0, "", ""))}
    assert abcompare.verdict([("x/record.json", "identical")], calls) == 1
    assert "output differs       finetune" in capsys.readouterr().out


def test_unknown_revision_exits_2(tmp_path, capsys):
    assert abcompare.main(["--against", "no-such-rev-xyz", "--work", str(tmp_path / "w")]) == 2
    assert "cannot extract" in capsys.readouterr().err


def test_non_empty_work_directory_exits_2(tmp_path, capsys):
    (tmp_path / "stale").write_text("")
    assert abcompare.main(["--against", "HEAD", "--work", str(tmp_path)]) == 2
