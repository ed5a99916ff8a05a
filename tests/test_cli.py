import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ypa.cli import (
    CHARACTER_METHODS,
    MAX_CLI_KEROV_SAMPLE_WEIGHT,
    MAX_CLI_MOMENT_INDEX,
    MAX_CLI_ORACLE_PI,
    MAX_CLI_VERIFY_WEIGHT,
    main,
    report_json,
)
from ypa.heisenberg import (
    BUILTIN_ELEMENTS,
    VerifyWorkerError,
    character_diagram,
    relation_sides,
)
from ypa.plancherel import PLANCHEREL
from ypa.tangle import evaluate, parse
from ypa.young import diagrams_up_to, enumerate_loops


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_character_all_methods_agree(capsys):
    code, out, _ = run(
        capsys, "character", "--lambda", "[2]", "--pi", "[2]", "--method", "all"
    )
    assert code == 0
    assert out.count(": 2") == 3  # diagram, frobenius, oracle


def test_character_of_a_long_row_by_all_three_methods(capsys):
    code, out, _ = run(
        capsys, "character", "--lambda", "[400]", "--pi", "[1]", "--method", "all"
    )
    assert code == 0
    assert out.count(": 400") == 3  # diagram, frobenius, oracle


def test_character_oracle_on_a_staircase_at_a_two_part_class(capsys):
    # Frobenius needs a one-part pi, so "all" is the diagram and the oracle;
    # the oracle traces on S_7, not on the 3,573,570-dimensional V^lam.
    code, out, _ = run(
        capsys, "--format", "json", "character", "--lambda", "[6,5,3,2,1]",
        "--pi", "[4,3]", "--method", "all",
    )
    assert code == 0
    assert json.loads(out)["results"] == {"diagram": "14976", "oracle": "14976"}


def test_character_csv(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "character",
        "--lambda",
        "[2,1]",
        "--pi",
        "[1]",
        "--method",
        "diagram",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,pi,method,value"
    assert lines[1] == "[2,1],[1],diagram,3"


def test_character_frobenius_needs_single_part(capsys):
    code, _, err = run(
        capsys, "character", "--lambda", "[2,1]", "--pi", "[1,1]",
        "--method", "frobenius",
    )
    assert code == 2
    assert "single-part" in err


def test_verify_left_circle_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "verify",
        "--relation",
        "left_circle",
        "--max-weight",
        "8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "verified"
    assert data["results"]["left_circle"]["failures"] == []
    # Byte-identical round trip under the deterministic serializer.
    assert report_json(json.loads(out)) == out.strip()


def test_verify_unknown_relation(capsys):
    code, _, err = run(capsys, "verify", "--relation", "nope")
    assert code == 2 and "unknown relation" in err


def test_verify_jobs_reports_identical(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "verify",
            "--relation",
            "ind_ind",
            "--max-weight",
            "4",
            "--jobs",
            jobs,
        )
        assert code == 0
        data = json.loads(out)
        data.pop("elapsed_ms")
        data["parameters"].pop("jobs")
        outs.append(data)
    assert outs[0] == outs[1]


def test_moments_both_sources(capsys):
    code, out, _ = run(
        capsys, "moments", "--lambda", "[2,1]", "--upto", "4", "--source", "both"
    )
    assert code == 0
    assert "status: ok" in out


def test_moments_of_a_staircase_by_both_sources(capsys):
    # The dotted circles read dim of 55-box diagrams, by the hook lengths.
    code, out, _ = run(
        capsys, "--format", "json", "moments", "--lambda", "[10,9,8,7,6,5,4,3,2,1]",
        "--upto", "10", "--source", "both",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["results"]["2"] == {"diagram": "55", "series": "55"}


def test_cumulants_b2_is_weight(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "cumulants",
        "--lambda",
        "[3,1]",
        "--upto",
        "3",
        "--source",
        "both",
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["2"] == {"series": "4", "diagram": "4"}


@pytest.mark.parametrize(
    "source, row",
    [("diagram", {"diagram": "0"}), ("both", {"series": "0", "diagram": "0"})],
)
def test_cumulants_b1_has_a_diagram(capsys, source, row):
    # B_1 = M_1, so k = 1 reads the one-dot counterclockwise circle.
    code, out, _ = run(
        capsys, "--format", "json", "cumulants", "--lambda", "[2,1]",
        "--upto", "1", "--source", source,
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["results"] == {"1": row}


def test_eval_left_circle(tmp_path, capsys):
    f = tmp_path / "circle.tng"
    f.write_text("tangle leftcircle : () { row cup_du; row cap; }\n")
    code, out, _ = run(
        capsys, "eval", "--file", str(f), "--name", "leftcircle", "--loop", "[3,1]"
    )
    assert code == 0
    assert out.strip() == "1"


def test_eval_uses_cross_builtin(tmp_path, capsys):
    f = tmp_path / "t.tng"
    f.write_text("tangle tt : (-,-,+,+) { row box cross; }\n")
    code, out, _ = run(
        capsys,
        "eval",
        "--file",
        str(f),
        "--name",
        "tt",
        "--loop",
        "[2] v [1] v [] ^ [1] ^ [2]",
    )
    assert code == 0
    assert out.strip() == "sqrt(2)"


def test_eval_bad_loop_literal_is_parse_error(tmp_path, capsys):
    f = tmp_path / "circle.tng"
    f.write_text("tangle c : () { row cup_du; row cap; }\n")
    code, _, err = run(
        capsys, "eval", "--file", str(f), "--name", "c", "--loop", "[2 1]"
    )
    assert code == 3 and "parse error" in err


def test_eval_bad_tng_source_is_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.tng"
    f.write_text("tangle bad : () { row cup_du; }\n")
    code, _, err = run(capsys, "eval", "--file", str(f), "--name", "bad", "--loop", "[]")
    assert code == 3 and "parse error" in err


def test_eval_reads_the_tng_file_as_utf8(tmp_path, capsys):
    source = "tangle c : () { row cup_du; row cap; }\n"
    f = tmp_path / "latin1.tng"
    f.write_bytes(b"# caf\xe9\n" + source.encode())
    code, out, err = run(capsys, "eval", "--file", str(f), "--name", "c", "--loop", "[]")
    assert code == 3 and out == ""
    assert "parse error" in err and str(f) in err
    f = tmp_path / "utf8.tng"
    f.write_text("# caf\u00e9\n" + source, encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--file", str(f), "--name", "c", "--loop", "[]")
    assert code == 0 and out.strip() == "1"


def test_eval_loop_takes_spaced_diagram_literals(tmp_path, capsys):
    f = tmp_path / "arc.tng"
    f.write_text("tangle arc : (-,+) { row cap; }\n")
    argv = ["eval", "--file", str(f), "--name", "arc", "--loop"]
    code, spaced, _ = run(capsys, *argv, "[2, 1] v [2] ^ [2, 1]")
    assert code == 0
    assert (0, spaced, "") == run(capsys, *argv, "[2,1] v [2] ^ [2,1]")


def test_eval_missing_name_is_usage_error(tmp_path, capsys):
    f = tmp_path / "c.tng"
    f.write_text("tangle c : () { row cup_du; row cap; }\n")
    code, _, err = run(capsys, "eval", "--file", str(f), "--name", "x", "--loop", "[]")
    assert code == 2 and "no tangle named" in err


def test_frobenius_all_checks(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "frobenius",
        "--lambda",
        "[2]",
        "--n",
        "2",
        "--check",
        "all",
        "--seed",
        "7",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "verified"
    assert data["results"]["satellite"]["satellite_I"] == "-4"


def test_kerov_pi3(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "kerov", "--pi", "[3]", "--sample-weight", "6"
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["P_polynomial"] == "x2 + x2^2 + x4"
    assert data["results"]["nonnegative_integer_coefficients"] is True


def test_kerov_weight_cap(capsys):
    code, _, err = run(capsys, "kerov", "--pi", "[6]", "--sample-weight", "6")
    assert code == 2 and "capped" in err


@pytest.mark.parametrize("command", ["moments", "cumulants"])
def test_moment_index_cap_is_checked_before_any_work(capsys, monkeypatch, command):
    def boom(*args, **kwargs):
        raise AssertionError("computed before --upto was checked")

    for name in ("cli.moment", "cli.boolean_cumulant", "heisenberg.moment_diagram",
                 "heisenberg.cumulant_diagram"):
        monkeypatch.setattr(f"ypa.{name}", boom)
    code, out, err = run(
        capsys, command, "--lambda", "[5,3,1]", "--upto", str(MAX_CLI_MOMENT_INDEX + 1)
    )
    assert code == 2 and out == ""
    assert f"--upto capped at {MAX_CLI_MOMENT_INDEX}" in err


@pytest.mark.parametrize("command", ["moments", "cumulants"])
def test_moment_index_cap_itself_is_answered(capsys, command):
    code, out, _ = run(
        capsys, "--format", "json", command, "--lambda", "[5,3,1]",
        "--upto", str(MAX_CLI_MOMENT_INDEX), "--source", "series",
    )
    assert code == 0
    assert len(json.loads(out)["results"]) == MAX_CLI_MOMENT_INDEX


@pytest.mark.parametrize(
    "argv, flag, cap, work",
    [
        (["verify", "--relation", "all", "--max-weight"], "--max-weight",
         MAX_CLI_VERIFY_WEIGHT, "heisenberg.verify_relation"),
        (["kerov", "--pi", "[2]", "--sample-weight"], "--sample-weight",
         MAX_CLI_KEROV_SAMPLE_WEIGHT, "heisenberg.kerov_boolean_expansion"),
    ],
)
def test_weight_caps_are_checked_before_any_work(capsys, monkeypatch, argv, flag, cap, work):
    def boom(*args, **kwargs):
        raise AssertionError(f"computed before {flag} was checked")

    monkeypatch.setattr(f"ypa.{work}", boom)
    code, out, err = run(capsys, *argv, str(cap + 1))
    assert code == 2 and out == ""
    assert f"{flag} capped at {cap}" in err


def test_weight_caps_themselves_are_answered(capsys):
    # The cheapest relation and pi keep this quick at the caps.
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--relation", "left_circle",
        "--max-weight", str(MAX_CLI_VERIFY_WEIGHT),
    )
    assert code == 0 and json.loads(out)["status"] == "verified"
    code, out, _ = run(
        capsys, "--format", "json", "kerov", "--pi", "[1]",
        "--sample-weight", str(MAX_CLI_KEROV_SAMPLE_WEIGHT),
    )
    assert code == 0 and json.loads(out)["results"]["P_polynomial"] == "x2"


@pytest.mark.parametrize("method", ["oracle", "all"])
def test_oracle_pi_cap_is_checked_before_any_work(capsys, monkeypatch, method):
    def boom(*args, **kwargs):
        raise AssertionError("computed before |pi| was checked")

    for name in ("diagram", "oracle", "frobenius"):
        monkeypatch.setitem(CHARACTER_METHODS, name, boom)
    code, out, err = run(
        capsys, "character", "--lambda", "[9,8,7]",
        "--pi", f"[{MAX_CLI_ORACLE_PI + 1}]", "--method", method,
    )
    assert code == 2 and out == ""
    assert f"|pi| capped at {MAX_CLI_ORACLE_PI} for --method {method}" in err


def test_oracle_pi_cap_leaves_the_other_methods_and_the_cap_itself(capsys):
    big = f"[{MAX_CLI_ORACLE_PI + 1}]"
    for method in ("diagram", "frobenius"):
        code, _, _ = run(capsys, "character", "--lambda", "[9,8,7]", "--pi", big,
                         "--method", method)
        assert code == 0
    cap = f"[{MAX_CLI_ORACLE_PI}]"
    code, out, _ = run(capsys, "--format", "json", "character", "--lambda", cap,
                       "--pi", cap, "--method", "all")
    assert code == 0 and len(set(json.loads(out)["results"].values())) == 1


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-weight", "not-a-number"])
    assert exc.value.code == 2


def test_format_accepted_after_subcommand(capsys):
    code, out, _ = run(
        capsys, "verify", "--relation", "left_circle", "--max-weight", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "verified"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["character", "--lambda", "[2,1]", "--pi", "[1]"], 0),
        (["character", "--lambda", "[2,1]", "--pi", "[]"], 0),
        (["character", "--lambda", "[1,2]", "--pi", "[1]"], 3),
        (["character", "--lambda", "[2,0,1]", "--pi", "[1]"], 3),
        (["character", "--lambda", "[2,1]", "--pi", "[0]"], 3),
        (["character", "--lambda", "[2,1", "--pi", "[1]"], 3),
        (["kerov", "--pi", "[0]"], 3),
        (["verify", "--relation", "ind_ind", "--max-weight", "3", "--jobs", "-3"], 2),
        (["verify", "--relation", "ind_ind", "--max-weight", "3", "--jobs", "0"], 2),
        (["verify", "--relation", "ind_ind", "--max-weight", "0"], 2),
        (["moments", "--lambda", "[2]", "--upto", "-1"], 2),
        (["cumulants", "--lambda", "[2]", "--upto", "0"], 2),
        (["verify", "--relation", "ybe", "--max-weight", "2"], 1),
        (["verify", "--relation", "ybe", "--max-weight", "3"], 0),
        (["kerov", "--pi", "[2]", "--sample-weight", "-1"], 2),
        (["frobenius", "--lambda", "[2]", "--n", "0"], 2),
        (["frobenius", "--lambda", "[2]", "--n", "1", "--check", "contours"], 2),
        (["frobenius", "--lambda", "[2]", "--n", "1", "--check", "satellite"], 0),
        (["frobenius", "--lambda", "[2]", "--n", "1", "--check", "radial"], 0),
        (["eval", "--file", "<dup.tng>", "--name", "a", "--loop", "[]"], 3),
        (["character", "--lambda", "[\u0661]", "--pi", "[1]"], 3),
        (["eval", "--file", "<superscript.tng>", "--name", "a", "--loop", "[]"], 3),
        (["eval", "--file", "<arabic.tng>", "--name", "a", "--loop", "[]"], 3),
        (["eval", "--file", "<accent.tng>", "--name", "a", "--loop", "[]"], 3),
        # Both inputs parse, but the loop does not fit the tangle.
        (["eval", "--file", "<circle.tng>", "--name", "c", "--loop", "[2] v [1] ^ [2]"], 2),
    ],
)
def test_exit_code_table(capsys, tmp_path, argv, code):
    sources = {
        "<dup.tng>": "tangle a : () { }\ntangle a : () { }\n",  # a name defined twice
        # Integers and names are ASCII: no other digit or letter is read.
        "<superscript.tng>": "tangle a : () { row cup_du@\u00b2; row cap; }\n",
        "<arabic.tng>": "tangle a : () { row cup_du@\u0661; row cap; }\n",
        "<accent.tng>": "tangle caf\u00e9 : () { }\n",
        "<circle.tng>": "tangle c : () { row cup_du; row cap; }\n",
    }
    for i, arg in enumerate(argv):
        if arg in sources:
            path = tmp_path / arg.strip("<>")
            path.write_text(sources[arg], encoding="utf-8")
            argv[i] = str(path)
    assert run(capsys, *argv)[0] == code


def test_literal_error_names_the_parts(capsys):
    code, _, err = run(capsys, "character", "--lambda", "[1,2]", "--pi", "[1]")
    assert code == 3
    assert "parse error" in err and "[1, 2]" in err and "generator" not in err


def test_eval_loop_that_is_not_a_walk_is_parse_error(tmp_path, capsys):
    f = tmp_path / "c.tng"
    f.write_text("tangle c : () { row cup_du; row cap; }\n")
    code, _, err = run(
        capsys, "eval", "--file", str(f), "--name", "c", "--loop", "[1] ^ [3] v [1]"
    )
    assert code == 3 and "does not cover" in err


def test_eval_loop_of_another_signature_is_usage_error(tmp_path, capsys):
    f = tmp_path / "c.tng"
    f.write_text("tangle c : () { row cup_du; row cap; }\n")
    code, _, err = run(
        capsys, "eval", "--file", str(f), "--name", "c", "--loop", "[2] v [1] ^ [2]"
    )
    assert code == 2 and "(-1, 1)" in err and "()" in err


def test_verify_without_loops_is_vacuous(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--relation", "ybe", "--max-weight", "2"
    )
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "vacuous"
    assert data["results"]["ybe"]["loops_checked"] == 0


def test_frobenius_contour_identities_reported_once(capsys):
    for n, keys in ((2, {"n2_identity"}), (3, {"n3_exchange", "n3_identity"})):
        code, out, _ = run(
            capsys, "--format", "json", "frobenius", "--lambda", "[2,1]",
            "--n", str(n), "--check", "all",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert set(results["contours"]) == {"satellite_steps"} | keys
        assert set(results["lemmas"]) == {"cyclic_sum", "inversion"}


def test_parameters_are_checked_before_any_work(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("computed before the parameters were checked")

    # Both frobenius and kerov compute characters first of all; frobenius
    # --check all then takes the satellite integral.
    monkeypatch.setattr("ypa.heisenberg.character_diagram", boom)
    monkeypatch.setattr("ypa.frobenius.satellite_I", boom)
    for argv, message in (
        (["frobenius", "--lambda", "[2]", "--n", "0"], "--n must be >= 1"),
        (["frobenius", "--lambda", "[2]", "--n", "1"], "needs --n >= 2"),
        (["frobenius", "--lambda", "[2]", "--n", "1", "--check", "lemmas"],
         "needs --n >= 2"),
        (["frobenius", "--lambda", "[2]", "--n", "6", "--check", "all"],
         "needs --n <= 5"),
        (["frobenius", "--lambda", "[2]", "--n", "9", "--check", "contours"],
         "needs --n <= 8"),
        (["frobenius", "--lambda", "[2]", "--n", "8", "--check", "lemmas"],
         "needs --n <= 7"),
        (["kerov", "--pi", "[2]", "--sample-weight", "-1"],
         "sample_weight must be >= 0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == ""


def test_frobenius_contours_and_lemmas_compute_no_character(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a character that no check reports")

    monkeypatch.setattr("ypa.heisenberg.character_diagram", boom)
    for check in ("contours", "lemmas"):
        code, _, err = run(
            capsys, "frobenius", "--lambda", "[2,1]", "--n", "2", "--check", check
        )
        assert code == 0, err


def test_kerov_inconsistent_fit_is_a_failure_not_a_usage_error(capsys, monkeypatch):
    # A character value off by one at a single sample leaves no polynomial
    # that fits every sample.
    def off_by_one(lam, pi):
        return character_diagram(lam, pi) + (lam == (3,) and pi == (2,))

    monkeypatch.setattr("ypa.heisenberg.character_diagram", off_by_one)
    code, out, err = run(capsys, "--format", "json", "kerov", "--pi", "[2]")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["status"] == "inconsistent"
    assert data["results"] == {"error": "no polynomial fits the sampled values"}


def test_eval_rejects_a_rebound_name(tmp_path, capsys):
    f = tmp_path / "t.tng"
    f.write_text("tangle c : () { }\ntangle cross : (-,+) { row cap; }\n")
    code, _, err = run(capsys, "eval", "--file", str(f), "--name", "c", "--loop", "[]")
    assert code == 3 and "line 2, col 8" in err and "already bound" in err


def test_csv_outside_character_is_rejected_before_dispatch(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("verify_relation must not run")

    monkeypatch.setattr("ypa.heisenberg.verify_relation", boom)
    code, out, err = run(
        capsys, "--format", "csv", "verify", "--relation", "ybe", "--max-weight", "7"
    )
    assert code == 2 and out == ""
    assert "--format csv is not defined for this command" in err



def test_a_dead_verify_worker_exits_1_with_its_message(capsys, monkeypatch):
    def dies(*args, **kwargs):
        raise VerifyWorkerError("verify worker 7 ended without a report (exit code 1)")

    monkeypatch.setattr("ypa.heisenberg.verify_relation", dies)
    code, out, err = run(capsys, "verify", "--relation", "ybe", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == "ypa: verify worker 7 ended without a report (exit code 1)\n"


ROOT = Path(__file__).resolve().parents[1]


def _run_python(*argv):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )


def _run_script(name, *argv):
    return _run_python(str(ROOT / "scripts" / name), *argv)


def test_importing_the_cli_loads_no_process_pool():
    # Only verify --jobs forks, through os.fork; pickle is read only when a
    # worker raised, so none of these belongs to every run's start-up.
    proc = _run_python("-c", "import sys, ypa.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ypa.heisenberg" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing", "pickle"}


_COUNTED_IMPORT = """
import sys, ypa.tangle as tangle

calls = []
parse_programs = tangle.parse_programs
tangle.parse_programs = lambda *args: calls.append(args) or parse_programs(*args)
import ypa.cli

print(len(calls), *sys.modules)
"""


def test_importing_the_cli_loads_no_dataclasses_or_typing():
    # The records are plain slotted classes, and the relation programs are
    # parsed on first use, not at import.  -S keeps site's .pth files, which
    # may import typing themselves, out of the start-up.
    proc = _run_python("-S", "-c", _COUNTED_IMPORT)
    assert proc.returncode == 0, proc.stderr
    parses, *modules = proc.stdout.split()
    loaded = set(modules)
    assert "ypa.heisenberg" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    assert parses == "0"


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["character", "--lambda", "[2,1]", "--pi", "[2]", "--format", "json"]
    proc = _run_python("-m", "ypa", *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(proc.stdout)["results"] == json.loads(out)["results"]


def test_character_table_script_smoke():
    proc = _run_script("character_table.py", "--max-lambda", "3", "--max-pi", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "lambda,pi,method,value"
    assert len(lines) > 1
    # |pi| > |lambda|: the Frobenius residues give 0 by themselves.
    assert "[1],[2],frobenius,0" in lines
    assert "disagreements" not in proc.stderr


def test_character_table_agrees_three_ways_up_to_weight_seven():
    proc = _run_script("character_table.py", "--max-lambda", "7", "--max-pi", "7")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "lambda,pi,method,value"
    # 45 diagrams times 44 classes, two methods each, and the Frobenius
    # residues on the 7 one-part classes.
    assert len(lines) - 1 == 4275
    assert "disagreements" not in proc.stderr


@pytest.mark.parametrize("argv", [["--max-pi", "0"], ["--max-lambda", "-3"]])
def test_character_table_script_refuses_an_empty_range(argv):
    proc = _run_script("character_table.py", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no (lambda, pi) pair to compare" in proc.stderr


def test_derive_relation_programs_script_refuses_weights_without_loops():
    # No (-,-,+,+) loop has base weight <= 1, so no candidate could be checked.
    proc = _run_script(
        "derive_relation_programs.py",
        "--relation", "ind_ind", "--check-weight", "0", "--confirm-weight", "1",
    )
    assert proc.returncode == 2
    assert "MATCH" not in proc.stdout
    assert "must each admit a loop of ind_ind" in proc.stderr


def test_derive_relation_programs_script_smoke():
    proc = _run_script(
        "derive_relation_programs.py",
        "--relation", "ind_ind", "--check-weight", "2", "--confirm-weight", "3",
    )
    assert proc.returncode == 0, proc.stderr
    sides = relation_sides("ind_ind")
    header = f"tangle m : ({','.join('+' if e > 0 else '-' for e in sides.signature)})"
    blocks = proc.stdout.split("MATCH:")[1:]
    assert blocks
    loops = [
        lp for base in diagrams_up_to(3) for lp in enumerate_loops(base, sides.signature)
    ]
    for block in blocks:
        rows = [ln.strip() for ln in block.splitlines() if ln.strip().startswith("row ")]
        prog = parse(f"{header} {{ {' '.join(rows)} }}", BUILTIN_ELEMENTS)
        for loop in loops:
            assert evaluate(prog, loop, PLANCHEREL) == sides.rhs_value(loop)
