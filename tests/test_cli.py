import json

import pytest

from suprschur.cli import VERIFY_TARGETS, main

from golden_data import CYW31_D1_WORDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_kron_with_oracle(capsys):
    code, out = run(capsys, "kron", "--lambda", "3,1", "--mu-hook-d", "2", "--nu", "2,2", "--oracle-check")
    payload = json.loads(out)
    assert code == 0
    assert payload["g"] == 1 and payload["oracle"] == 1 and payload["match"] is True
    assert payload["mu"] == "2,1,1"


def test_kron_sum(capsys):
    code, out = run(capsys, "kron-sum", "--lambda", "3,2", "--d", "2", "--nu", "3,1,1", "--oracle-check")
    payload = json.loads(out)
    assert code == 0 and payload["g"] == 3 and payload["match"] is True


def test_cyw_count(capsys):
    code, out = run(capsys, "cyw", "--lambda", "3,2", "--d", "2", "--count")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 50 and "words" not in payload


def test_json_prints_letters_as_text(capsys):
    code, out = run(capsys, "cyw", "--lambda", "3,1", "--d", "1")
    assert code == 0 and json.loads(out)["words"] == CYW31_D1_WORDS
    assert '"1 1 1\' 2"' in out
    code, out = run(capsys, "convert-word", "--word", "1' 1 2", "--from", "bigbar", "--to", "natural")
    assert code == 0 and all(tok in ("1", "1'", "2", "2'") for tok in json.loads(out)["converted"].split())


def test_fexpand_both(capsys):
    code, out = run(capsys, "fexpand", "--cyw", "3,2", "--d", "2", "--method", "both")
    payload = json.loads(out)
    assert code == 0 and payload["match"] is True
    assert payload["tableaux"] == {"4,1": 2, "3,2": 2, "3,1,1": 3, "2,2,1": 2, "2,1,1,1": 1}


def test_insert_and_sqread_roundtrip(capsys):
    code, out = run(capsys, "insert", "--word", "2 1 1 1' 2'")
    tableau = json.loads(out)["tableau"]
    assert code == 0 and tableau == ["1 1 1' 2'", "2"]
    code, out = run(capsys, "sqread", "--tableau", "/".join(tableau))
    assert code == 0 and json.loads(out)["word"] == "2 1 1 1' 2'"


def test_convert_word(capsys):
    code, out = run(capsys, "convert-word", "--word", "1' 1 2", "--from", "bigbar", "--to", "natural")
    assert code == 0
    assert "converted" in json.loads(out)


def test_convert_tableau(capsys):
    code, out = run(capsys, "convert-tableau", "--tableau", "2 2 / 1'", "--from", "bigbar", "--to", "natural")
    assert code == 0 and json.loads(out)["tableau"] == ["1' 2", "2"]


def test_switchboard_dot(capsys, tmp_path):
    target = tmp_path / "board.dot"
    code, out = run(capsys, "switchboard", "--lambda", "3,3", "--d", "2", "--dot", str(target), "--schur")
    payload = json.loads(out)
    assert code == 0
    assert payload["vertices"] == 75 and len(payload["components"]) == 4
    assert target.read_text().startswith("graph switchboard {")
    assert {"4,2": 1} in payload["component_schur"]


def test_switchboard_schur_with_components_off_the_kronecker_ideal(capsys):
    # two of this board's seven components pair nonzero with the Kronecker
    # ideal; all are orthogonal to the kron-Knuth ideal
    code, out = run(capsys, "switchboard", "--lambda", "3,1", "--d", "2", "--schur")
    assert code == 0
    assert len(json.loads(out)["component_schur"]) == 7


def test_lascoux(capsys):
    code, out = run(capsys, "lascoux", "--lambda", "3,1", "--mu", "2,1,1")
    payload = json.loads(out)
    assert code == 0 and payload["is_union"] is True
    assert sorted(cls["shape"] for cls in payload["classes"]) == ["1,1,1,1", "2,1,1", "2,2", "3,1"]


def test_lascoux_pretty(capsys):
    code, out = run(capsys, "lascoux", "--lambda", "3,1", "--mu", "2,1,1", "--pretty")
    assert code == 0 and "union of Knuth classes: True" in out
    assert "3241" in out


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "jnu", "--nu", "2,1", "--N", "2", "--ideal", "kron")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "verify", "commute-e", "--ideal", "plac-bigbar", "--N", "2", "--max-degree", "4")
    assert code == 0
    code, out = run(capsys, "verify", "perp", "--lambda", "2,2", "--d", "2", "--ideal", "kron")
    assert code == 0
    # the plactic ideal genuinely fails this orthogonality: exit code 1
    code, out = run(capsys, "verify", "perp", "--lambda", "2,2", "--d", "2", "--ideal", "plac-natural")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    # the support word comes first in the witness pair
    assert payload["witness"] == ["1' 2 1 2'", "1' 1 2 2'"]


def test_resource_limit_has_its_own_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SUPRSCHUR_BUDGET", "2")
    code = main(["verify", "jnu", "--nu", "2,2", "--N", "2", "--ideal", "kron"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "over the budget of 2" in captured.err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-verb"])
    assert err.value.code == 2
    assert main(["insert", "--word", "junk"]) == 2
    assert main(["sqread", "--tableau", "1' 1'"]) == 2
    # a filling that is not a tableau for the source order
    assert main(["convert-tableau", "--tableau", "2 1", "--from", "natural", "--to", "bigbar"]) == 2
    # an unknown order, and an explicit one with a half out of order
    assert main(["insert", "--word", "1 2", "--order", "bogus"]) == 2
    assert main(["insert", "--word", "1 2", "--order", "explicit:\"2 1 1' 2'\""]) == 2
    # a malformed partition is bad input, not a failed identity
    assert main(["kron", "--lambda", "3,,1", "--mu-hook-d", "1", "--nu", "2,1"]) == 2
    assert main(["verify", "jnu", "--nu", "2,x"]) == 2
    # a letter outside the alphabet of the order
    assert main(["insert", "--word", "1 3", "--N", "2"]) == 2
    assert main(["sqread", "--tableau", "1 3", "--N", "2"]) == 2
    assert main(["insert", "--word", "1 3", "--order", "explicit:\"1 1' 2 2'\""]) == 2
    assert main(["convert-word", "--word", "1 3", "--from", "natural", "--to", "bigbar", "--N", "2"]) == 2
    # a negative size bound would run zero checks and report them as passed
    for target, option in (
        ("reading-congruence", "--max-size"),
        ("jnu", "--max-size"),
        ("conjecture61", "--max-size"),
        ("conversion-bijection", "--max-size"),
        ("fixed-point", "--max-size"),
        ("commute-e", "--max-degree"),
        ("flagged", "--max-alpha"),
        ("flagged", "--box"),
        ("nontail", "--box"),
    ):
        assert main(["verify", target, option, "-1"]) == 2, (target, option)


def test_verify_takes_n_as_given(capsys):
    code, out = run(capsys, "verify", "flagged", "--max-alpha", "1", "--box", "2")
    assert code == 0 and json.loads(out)["N"] == 2
    code, out = run(capsys, "verify", "flagged", "--max-alpha", "1", "--box", "2", "--N", "0")
    assert code == 2 and out == ""


def test_empty_partition_is_a_usage_error(capsys):
    code, out = run(capsys, "kron-sum", "--lambda", "", "--d", "0", "--nu", "", "--oracle-check")
    assert code == 2 and out == ""
    code, out = run(capsys, "kron", "--lambda", "", "--mu-hook-d", "0", "--nu", "", "--oracle-check")
    assert code == 2 and out == ""
    code, out = run(capsys, "kron", "--lambda", "", "--mu-hook-d", "0", "--nu", "")
    assert code == 2 and out == ""


# every verify target at a small scale, by the arguments it reads
SMALL_VERIFY_RUNS = {
    "jnu": ["--max-size", "2"],
    "jplac": ["--order", "bigbar", "--max-size", "3"],
    "commute-e": ["--ideal", "kron", "--max-degree", "4"],
    "commute-h": ["--ideal", "plac-natural", "--max-degree", "4"],
    "flagged": ["--max-alpha", "1", "--box", "2"],
    "perp": ["--lambda", "2,1", "--d", "1"],
    "conjecture61": ["--max-size", "2"],
    "conversion-bijection": ["--max-size", "3"],
    "reading-congruence": ["--max-size", "3"],
    "fixed-point": ["--max-size", "3"],
    "nontail": ["--box", "2"],
}


@pytest.mark.parametrize("target", sorted(SMALL_VERIFY_RUNS))
def test_every_verify_target_runs(capsys, target):
    code, out = run(capsys, "verify", target, *SMALL_VERIFY_RUNS[target], "--N", "2")
    assert code == 0 and json.loads(out)["target"] == target


def test_verify_choices_are_the_target_table():
    assert list(VERIFY_TARGETS) == list(SMALL_VERIFY_RUNS)
    with pytest.raises(SystemExit) as err:
        main(["verify", "no-such-target"])
    assert err.value.code == 2
