import contextlib
import io
import json
import subprocess
import sys

import pytest

from agq.cli import main
from conftest import FIXTURES

AGQ = [sys.executable, "-m", "agq.cli"]


def run(*args, **kw):
    return subprocess.run(AGQ + [str(a) for a in args],
                          capture_output=True, text=True, **kw)


def test_validate_ok():
    out = run("validate", FIXTURES / "fig1.agq")
    assert out.returncode == 0
    assert "valid almost gentle pair" in out.stdout


def test_validate_failure_exit_code():
    out = run("validate", FIXTURES / "loop_norel.agq")
    assert out.returncode == 1
    assert "NonzeroCycle" in out.stdout


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.agq"
    bad.write_text("arrow a 1 -> 2\n")
    out = run("gldim", bad)
    assert out.returncode == 1
    assert "error" in out.stderr


def test_gldim_fig1():
    out = run("gldim", FIXTURES / "fig1.agq")
    assert out.returncode == 0
    assert out.stdout == "4\n"


def test_gldim_witness():
    out = run("gldim", FIXTURES / "fig1.agq", "--witness")
    assert "witness: a_1_2 a_2_3 a_3_4 a_4_5" in out.stdout


def test_injdim_cyc2():
    out = run("injdim", FIXTURES / "cyc2.agq")
    assert out.stdout.splitlines()[0] == "0"


def test_injdim_of_an_empty_document(tmp_path, capsys):
    empty = tmp_path / "empty.agq"
    empty.write_text("")
    assert main(["injdim", str(empty)]) == 0
    assert capsys.readouterr().out == "0\n"


def test_pdim_flags():
    assert run("pdim", FIXTURES / "fig1.agq", "--simple", "1").stdout == "4\n"
    assert run("pdim", FIXTURES / "fig1.agq", "--injective", "2R").stdout == "4\n"
    assert run("pdim", FIXTURES / "fig1.agq", "--string", "a_1_2").stdout == "2\n"
    assert run("pdim", FIXTURES / "fig1.agq", "--simple", "zz").returncode == 1


def test_forbidden_report():
    out = run("forbidden", FIXTURES / "cyc2e.agq")
    assert "1: sup infinite" in out.stdout
    cycles = run("forbidden", FIXTURES / "cyc2e.agq", "--cycles")
    assert cycles.stdout == "a b\n"


def test_resolve_with_oracle():
    out = run("resolve", FIXTURES / "fig1.agq", "--string", "a_1_2", "--oracle")
    assert "terminated: projective (length 2)" in out.stdout
    assert "oracle pdim: 2" in out.stdout
    assert "P2 = P(3L) + P(3R)" in out.stdout


def test_gorenstein_text_and_json():
    out = run("gorenstein", FIXTURES / "cyc2e.agq")
    assert "gorenstein: no" in out.stdout
    data = json.loads(run("gorenstein", FIXTURES / "fig1.agq", "--json").stdout)
    assert data["global_dimension"] == {
        "finite": True, "value": 4,
        "witness": ["a_1_2", "a_2_3", "a_3_4", "a_4_5"]}
    assert data["gorenstein"] is True
    assert data["per_vertex"]["2R"]["gentle"] is True
    assert data["per_vertex"]["2"]["invalid"] is True


def test_json_infinite_encoding():
    data = json.loads(run("gldim", FIXTURES / "cyc2.agq", "--json").stdout)
    assert data["global_dimension"]["finite"] is False
    assert data["global_dimension"]["value"] is None
    assert data["self_injective_dimension"]["finite"] is True
    assert data["self_injective_dimension"]["value"] == 0


def test_check_ok():
    out = run("check", FIXTURES / "fig1.agq", "--cutoff", "20")
    assert out.returncode == 0
    assert "agree with the oracle" in out.stdout


def test_random_emit(tmp_path):
    out = run("random", "--seed", "3", "--count", "2", "--emit", tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["random_3.agq", "random_4.agq"]
    assert out.returncode == 0


def test_dot_output():
    out = run("dot", FIXTURES / "a3r.agq")
    assert out.stdout.startswith('digraph "a3r" {')
    assert '"mid_a" -> "mid_b" [style=dashed' in out.stdout


def test_determinism_byte_identical():
    for args in (("gldim", FIXTURES / "fig1.agq"),
                 ("gorenstein", FIXTURES / "fig1.agq", "--json"),
                 ("random", "--seed", "1"),
                 ("forbidden", FIXTURES / "cyc2e.agq")):
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_check_mismatch_exit_code(monkeypatch, capsys):
    # exercised with a stubbed disagreement: the honest pipeline has none
    from agq import cli as climod, oracle
    from agq.oracle import AgreementReport, Mismatch

    monkeypatch.setattr(oracle, "check_against_formulas",
                        lambda pair, cutoff: AgreementReport(
                            (Mismatch("v", "pdim_simple", "1", "2"),), 1))
    code = climod.main(["check", str(FIXTURES / "a2.agq")])
    out = capsys.readouterr().out
    assert code == 2
    assert "mismatch at v" in out


def test_check_color_env(monkeypatch, capsys):
    from agq import cli as climod
    monkeypatch.setenv("AGQ_COLOR", "1")
    code = climod.main(["check", str(FIXTURES / "a2.agq")])
    out = capsys.readouterr().out
    assert code == 0
    assert "\x1b[32m" in out


def test_single_vertex_json():
    data = json.loads(run("gorenstein", FIXTURES / "single.agq", "--json").stdout)
    assert data["global_dimension"] == {"finite": True, "value": 0}
    assert data["self_injective_dimension"]["value"] == 0
    assert data["gorenstein"] is True


def test_check_on_generated_file(tmp_path):
    emitted = run("random", "--seed", "7", "--emit", tmp_path)
    assert emitted.returncode == 0
    path = emitted.stdout.strip()
    out = run("check", path, "--cutoff", "25")
    assert out.returncode == 0, out.stdout + out.stderr


def test_unknown_flag_exits_one():
    out = run("gldim", FIXTURES / "fig1.agq", "--nope")
    assert out.returncode == 1
    assert "usage" in out.stderr
    out = run("frobnicate")
    assert out.returncode == 1


def assert_clean_error(out):
    assert out.returncode == 1
    assert "error" in out.stderr
    assert "Traceback" not in out.stderr


def test_forbidden_unknown_vertex_is_an_error():
    out = run("forbidden", FIXTURES / "fig1.agq", "--from", "zz")
    assert_clean_error(out)
    assert out.stderr == "error: unknown vertex 'zz'\n"


def test_forbidden_from_and_cycles_are_a_usage_error_together():
    out = run("forbidden", FIXTURES / "fig1.agq", "--from", "1", "--cycles")
    assert_clean_error(out)
    assert out.stderr.startswith("usage: agq forbidden")
    assert out.stderr.endswith("error: argument --cycles: not allowed with argument --from\n")
    assert out.stdout == ""


@pytest.mark.parametrize("command, string", [("pdim", ""), ("pdim", ","), ("resolve", "")],
                         ids=["pdim-empty", "pdim-comma", "resolve-empty"])
def test_a_string_without_arrows_points_to_the_simple_flag(command, string):
    out = run(command, FIXTURES / "fig1.agq", "--string", string)
    assert_clean_error(out)
    assert out.stderr == "error: --string needs at least one arrow; --simple V is the length-zero string at V\n"
    assert out.stdout == ""


@pytest.mark.parametrize("command, flag", [("pdim", "--simple"), ("pdim", "--injective"), ("resolve", "--injective")])
def test_an_empty_vertex_is_an_unknown_vertex(command, flag):
    out = run(command, FIXTURES / "fig1.agq", flag, "")
    assert_clean_error(out)
    assert out.stderr == "error: unknown vertex ''\n"


def test_check_cutoff_below_one_is_a_usage_error():
    assert_clean_error(run("check", FIXTURES / "fig1.agq", "--cutoff", "0"))


def test_random_max_vertices_below_one_is_a_usage_error():
    assert_clean_error(run("random", "--seed", "1", "--max-vertices", "0"))


def test_random_negative_max_arrows_is_a_usage_error():
    assert_clean_error(run("random", "--seed", "1", "--max-arrows", "-1"))


def test_resolve_max_steps_below_one_is_a_usage_error():
    out = run("resolve", FIXTURES / "cyc2.agq", "--simple", "1", "--max-steps", "0")
    assert_clean_error(out)
    assert out.stderr.startswith("usage: agq resolve")
    assert out.stdout == ""


def test_random_count_below_one_is_a_usage_error():
    out = run("random", "--seed", "1", "--count", "-1")
    assert_clean_error(out)
    assert out.stderr.startswith("usage: agq random")
    assert out.stdout == ""


def test_file_not_utf8_is_a_parse_error(tmp_path):
    bad = tmp_path / "latin1.agq"
    bad.write_bytes("algebra x\nvertex 1 2\n# café\n".encode("latin-1"))
    out = run("gldim", bad)
    assert_clean_error(out)
    assert out.stderr == "error: line 3, column 6: file is not valid UTF-8\n"


def _fully_related(n, ring):
    """A_n, or the ring of n arrows, with every composition of consecutive arrows a relation."""
    vertices = [f"v{k}" for k in range(n if ring else n + 1)]
    lines = ["algebra fully_related", "vertex " + " ".join(vertices)]
    lines += [f"arrow a{k} : v{k} -> {vertices[(k + 1) % len(vertices)]}" for k in range(n)]
    lines += [f"rel a{k} a{(k + 1) % n}" for k in range(n if ring else n - 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("ring, checked, pdim", [(False, 7504, "1500"), (True, 7500, ">=64")], ids=["chain", "ring"])
def test_the_oracle_answers_on_resolutions_longer_than_the_recursion_limit(tmp_path, ring, checked, pdim):
    # pd S(v0) is 1,500 on the chain; on the ring the syzygies of S(v0) repeat only after 1,500 steps
    path = tmp_path / "fully_related.agq"
    path.write_text(_fully_related(1500, ring))
    for argv, last in ((["check", str(path)], f"ok: {checked} quantities agree with the oracle"),
                       (["resolve", str(path), "--simple", "v0", "--oracle"], f"oracle pdim: {pdim}")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue().splitlines()[-1] == last
