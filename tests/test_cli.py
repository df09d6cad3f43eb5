import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphrenorm import fixtures as fx
from graphrenorm.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_python(*args):
    """A fresh interpreter with the source tree on its path."""
    env = dict(os.environ)
    src = str(FIXTURES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_cli_import_leaves_out_scipy_integrate():
    """Only the toy-model quadrature needs scipy.integrate, which takes
    about a second to import, so loading the CLI must not pull it in."""
    proc = run_python("-c", "import sys, graphrenorm.cli; "
                      "print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m graphrenorm`` works from a source checkout, without the
    installed ``graphrenorm`` script."""
    path = str(FIXTURES / "fish.g")
    proc = run_python("-m", "graphrenorm", "analyze", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, "analyze", path)[1]


def test_analyze_dunce(capsys):
    code, out = run(capsys, "analyze", str(FIXTURES / "dunce.g"))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert len(doc["divergent_lattice"]["elements"]) == 3
    assert doc["pole_order"] == 2
    assert doc["betti_from_atoms"] == doc["betti_oracle"] == \
        {"0": 1, "3": 1}
    assert len(doc["charts"]) == 28
    full = [c for c in doc["charts"] if len(c["nested"]) == 2][0]
    assert full["tree"] == [0, 2]
    expo = {tuple(e["member"]): (e["constant"], e["s_coefficient"])
            for e in full["exponents"]}
    assert expo[(2, 3)] == (3, -4)
    assert expo[(0, 1, 2, 3)] == (7, -8)


def test_analyze_k3(capsys):
    code, out = run(capsys, "analyze", str(FIXTURES / "k3.g"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["saturated_poset"]["elements"]) == 5
    assert doc["divergent_lattice"]["elements"] == [[]]


def test_analyze_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("d 4\ne 0 0\n")
    code = main(["analyze", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "self-loop" in err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/x.g"]) == 2


@pytest.mark.parametrize("command", ["analyze", "homology"])
def test_oracle_atom_limit_exit_2(tmp_path, capsys, command):
    path = tmp_path / "tsb43.g"
    path.write_text(fx.graph_file_text(fx.two_sided_bubbles(4, 3)))
    assert main([command, str(path)]) == 2
    assert "lattice has 7" in capsys.readouterr().err


def test_analyze_dot_output(capsys):
    code, out = run(capsys, "analyze", str(FIXTURES / "dunce.g"),
                    "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"o" -> "{e2,e3}"' in out
    assert '"{e2,e3}" -> "{e0,e1,e2,e3}"' in out


@pytest.mark.parametrize("argv", [
    ["analyze", "--format", "csv"], ["period", "--format", "dot"],
    ["renorm", "--format", "dot"], ["nested", "--format", "dot"],
    ["homology", "--format", "csv"], ["rgcheck", "--format", "csv"],
    ["locality", "--g", "0,1", "--h", "2,3", "--format", "csv"],
])
def test_unsupported_format_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(FIXTURES / "fish.g")] + argv[1:])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["period", "fish.g", "--samples", "0"],
    ["period", "fish.g", "--batches", "0"],
    ["period", "fish.g", "--samples", "nan"],
    ["renorm", "fish.g", "--psi-radius", "0"],
    ["rgcheck", "dunce.g", "--r1", "-1"],
    ["locality", "nm11.g", "--g", "0,x", "--h", "2,3"],
    ["period", "fish.g", "--samples", "inf"],
    ["period", "fish.g", "--samples", "1e400"],
    ["renorm", "dunce.g", "--samples=-inf"],
    ["renorm", "dunce.g", "--psi-radius", "nan"],
    ["renorm", "dunce.g", "--psi-radius", "inf"],
    ["renorm", "dunce.g", "--nu-radius", "nan"],
    ["renorm", "dunce.g", "--psi-radius", "1e-320"],
    ["renorm", "dunce.g", "--nu-radius", "1e-320"],
    ["renorm", "dunce.g", "--scheme", "ms", "--cutoff", "nan"],
    ["renorm", "dunce.g", "--scheme", "ms", "--cutoff", "inf"],
    ["rgcheck", "dunce.g", "--r1", "nan"],
    ["rgcheck", "dunce.g", "--r2", "inf"],
    ["locality", "nm11.g", "--g", "0,1", "--h", "2,3", "--numerical",
     "--samples", "inf"],
])
def test_invalid_argument_value_exit_2(argv, capsys):
    """Exit 1 means a failed statistical check; a bad value, a NaN or an
    infinite one included, is refused at once with one error line and
    exit 2."""
    start = time.perf_counter()
    code = main([argv[0], str(FIXTURES / argv[1])] + argv[2:])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("command", ["period", "renorm"])
def test_unallocatable_samples_exit_2(command, capsys):
    """A sample count whose batch arrays cannot be allocated is refused
    before any memory is touched: one error line, exit 2 (not 1)."""
    start = time.perf_counter()
    code = main([command, str(FIXTURES / "fish.g"), "--samples", "1e15"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("command", ["renorm", "rgcheck"])
@pytest.mark.parametrize("fixture", ["k3.g", "star3.g"])
def test_nothing_to_renormalize_exit_2(command, fixture, capsys):
    code = main([command, str(FIXTURES / fixture), "--samples", "1000"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: no divergent subgraph to renormalize\n"


@pytest.mark.parametrize("command", ["analyze", "period", "nested",
                                     "homology"])
def test_oversized_graph_exits_2_at_once(tmp_path, capsys, command):
    path = tmp_path / "bubble_chain8.g"
    path.write_text(fx.graph_file_text(fx.bubble_chain(8)))
    start = time.perf_counter()
    assert main([command, str(path)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "too large" in capsys.readouterr().err


def test_nested_command(capsys):
    code, out = run(capsys, "nested", str(FIXTURES / "nm11.g"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nested"]["faces"]) == 7


def test_analyze_maximal_building(capsys):
    code, out = run(capsys, "analyze", str(FIXTURES / "bubble2.g"),
                    "--building", "maximal")
    assert code == 0
    doc = json.loads(out)
    assert doc["nested"]["minimal"] is False
    assert doc["nested"]["max_cardinality"] == 3
    assert len(doc["charts"]) == 284


def test_homology_command(capsys):
    code, out = run(capsys, "homology", str(FIXTURES / "bubble2.g"))
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["betti_from_atoms"] == {"0": 1, "3": 2, "6": 1}


def test_period_fish(capsys):
    code, out = run(capsys, "period", str(FIXTURES / "fish.g"),
                    "--samples", "2e5", "--batches", "20", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    import math
    assert abs(doc["value"] + math.pi ** 2 / 2) <= 3 * doc["stderr"]


def test_period_not_primitive_exit_2(capsys):
    code = main(["period", str(FIXTURES / "dunce.g")])
    err = capsys.readouterr().err
    assert code == 2
    assert "primitive" in err


def test_period_csv_trace(capsys):
    code, out = run(capsys, "period", str(FIXTURES / "fish.g"),
                    "--samples", "50000", "--batches", "5",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "samples,running_mean,running_stderr"
    assert len(lines) == 6


def test_json_byte_identical_for_same_seed(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["period", str(FIXTURES / "fish.g"), "--samples",
                     "100000", "--batches", "10", "--seed", "7",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_renorm_fixed(capsys):
    code, out = run(capsys, "renorm", str(FIXTURES / "fish.g"),
                    "--samples", "2e5", "--batches", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "fixed" and "chart" in doc


def test_renorm_ms(capsys):
    code, out = run(capsys, "renorm", str(FIXTURES / "fish.g"),
                    "--scheme", "ms", "--samples", "2e5",
                    "--batches", "20")
    assert code == 0
    assert json.loads(out)["scheme"] == "ms"


def test_rgcheck_fish(capsys):
    code, out = run(capsys, "rgcheck", str(FIXTURES / "fish.g"),
                    "--samples", "4e5", "--batches", "20",
                    "--r1", "0.8", "--r2", "1.2")
    doc = json.loads(out)
    assert doc["passed"] is True and code == 0


def test_locality_command(capsys):
    code, out = run(capsys, "locality", str(FIXTURES / "nm11.g"),
                    "--g", "0,1", "--h", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["combinatorial_ok"] is True


def test_locality_numerical_exit_code(capsys):
    code, out = run(capsys, "locality", str(FIXTURES / "nm11.g"),
                    "--g", "0,1", "--h", "2,3", "--numerical",
                    "--samples", "2e4", "--batches", "10")
    numeric = json.loads(out)["numeric"]
    assert set(numeric) == {"lhs", "rhs", "passed"}
    assert code == (0 if numeric["passed"] else 1)


def test_locality_bad_subgraphs(capsys):
    code = main(["locality", str(FIXTURES / "nm11.g"),
                 "--g", "0,1", "--h", "0,1"])
    assert code == 2


def test_locality_not_at_most_logarithmic_exit_2(capsys):
    code = main(["locality", str(FIXTURES / "nm11.g"), "--dim", "6",
                 "--g", "0,1", "--h", "2,3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "not at most logarithmic" in err


def test_dim_override(capsys):
    # at d = 6 the fish is no longer divergent: period must be rejected
    code = main(["period", str(FIXTURES / "fish.g"), "--dim", "6"])
    assert code == 2


def test_golden_dot_matches_fixture(capsys):
    golden = FIXTURES / "dunce_hasse.dot"
    code, out = run(capsys, "analyze", str(FIXTURES / "dunce.g"),
                    "--format", "dot")
    assert code == 0
    assert out == golden.read_text()


def test_golden_analysis_json(capsys):
    """The full deterministic analysis pipeline is pinned byte-for-byte."""
    code, out = run(capsys, "analyze", str(FIXTURES / "dunce.g"))
    assert code == 0
    assert out == (FIXTURES / "dunce_analysis.json").read_text()


@pytest.mark.parametrize("name", ["fish", "dunce", "k3", "k4", "bubble2",
                                  "bubble3", "ins2", "ins3", "nm11",
                                  "nm21", "star3"])
def test_every_fixture_round_trips_to_golden_hasse(name, capsys):
    """parse -> analyze -> DOT must be a DAG identical to the golden file."""
    code, out = run(capsys, "analyze", str(FIXTURES / f"{name}.g"),
                    "--format", "dot")
    assert code == 0
    assert out == (FIXTURES / f"{name}_hasse.dot").read_text()
    # acyclicity: cover arrows always point to strictly larger edge sets
    for line in out.splitlines():
        if "->" in line:
            src, dst = [part.strip().strip('";')
                        for part in line.split("->")]
            size = lambda lab: 0 if lab == "o" else lab.count("e")
            assert size(src) < size(dst)
