import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eiscoeff.cli import run
from eiscoeff.symalg import FORMULA_JSON_SCHEMA, parse_formula_json

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _golden(name):
    return (GOLDEN / name).read_text()


def test_first_coeff_borel_a2_latex_golden(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--type", "A2", "--levi", "", "--format", "latex")
    assert code == 0
    assert out == _golden("borel_a2_latex.txt")
    assert out.endswith("\n")


def test_first_coeff_borel_a2_text_golden(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--type", "A2", "--levi", "")
    assert code == 0
    assert out == _golden("borel_a2_text.txt")


def test_first_coeff_sl4_211_golden(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--type", "A3", "--levi", "2,1,1")
    assert code == 0
    assert out == _golden("sl4_211_text.txt")


def test_first_coeff_22_text(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--type", "A3", "--levi", "2,2", "--mode", "grouped", "--format", "text")
    assert code == 0
    assert out == "L*(s+1,π'×π'')^-1\n"


def test_first_coeff_exceptional_goldens(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--type", "E8", "--levi-nodes", "1,2,3,4,5,6,7")
    assert code == 0 and out == _golden("e8_e7_text.txt")
    code, out, _ = _run(capsys, "first-coeff", "--type", "E8", "--levi-nodes", "2,3,4,5,6,7,8")
    assert code == 0 and out == _golden("e8_d7_text.txt")


def test_first_coeff_json_validates(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = _run(capsys, "first-coeff", "--type", "A3", "--levi", "2,1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, FORMULA_JSON_SCHEMA)
    assert doc["grouping"] == "W_L-orbit heuristic"
    back = parse_formula_json(out)
    assert len(back.factors) == 3


def test_first_coeff_gln_alias(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--gln", "4", "--levi", "2,2")
    assert code == 0
    assert out == "L*(s+1,π'×π'')^-1\n"


def test_first_coeff_petersson_classical(capsys):
    code, out, _ = _run(
        capsys,
        "first-coeff", "--type", "A2", "--levi", "2,1",
        "--coords", "classical", "--normalization", "petersson",
    )
    assert code == 0
    assert out == "L*(1,Ad φ)^-1/2 · L*(3z1+1,φ)^-1\n"


def test_whittaker_p_identity(capsys):
    code, out, _ = _run(capsys, "whittaker-p", "--type", "A1", "--p", "5", "--nu", "0.2", "--cochar", "0")
    assert code == 0
    assert out == "1\n"


def test_whittaker_sl2(capsys):
    code, out, _ = _run(capsys, "whittaker-sl2", "--nu", "0.5", "--y", "1.0")
    assert code == 0
    assert abs(float(out) - math.exp(-2 * math.pi)) < 1e-12


def test_whittaker_sl2_small_value_not_zeroed(capsys):
    # 2 sqrt(5) K_{0.25i}(10 pi) is about 2.3e-14: far below 1, yet printed with its digits
    from eiscoeff.whittaker import whittaker_sl2_arch

    code, out, _ = _run(capsys, "whittaker-sl2", "--nu", "0.25i", "--y", "5")
    assert code == 0
    ref = whittaker_sl2_arch(0.25j, 5).value.value
    assert abs(complex(out.strip().replace("i", "j")) - ref) <= 1e-11 * abs(ref)


def test_zeta_completed(capsys):
    code, out, _ = _run(capsys, "zeta", "2", "--completed")
    assert code == 0
    assert abs(float(out) - math.pi / 6) < 1e-12


def test_params_21(capsys):
    code, out, _ = _run(capsys, "params", "--gln", "3", "--levi", "2,1")
    assert code == 0
    assert out == "(z1+v, z1-v, -2z1)\n"


def test_params_borel(capsys):
    code, out, _ = _run(capsys, "params", "--gln", "3")
    assert code == 0
    assert out == "(2v1+v2, -v1+v2, -v1-2v2)\n"


def test_constant_term_a1(capsys):
    code, out, _ = _run(capsys, "constant-term", "--type", "A1")
    assert code == 0
    assert out.splitlines() == [
        "w=[e] coeff=1 exponent=(2nu)",
        "w=[1] coeff=c(2nu) exponent=(-2nu)",
    ]


def test_constant_term_expand_c(capsys):
    code, out, _ = _run(capsys, "constant-term", "--type", "A1", "--expand-c")
    assert "ζ*(2nu)" in out and "ζ*(2nu+1)^-1" in out


def test_hecke_cli(capsys):
    code, out, _ = _run(capsys, "hecke", "--gln", "2", "--alpha", "0.5i,-0.5i", "--m", "1")
    assert code == 0
    assert out == "1\n"


def test_symbols_override(capsys):
    code, out, _ = _run(capsys, "first-coeff", "--type", "A2", "--levi", "2,1", "--symbols", "r")
    assert code == 0
    assert out == "L*(s+1,π)^-1\n"  # grouped output hides the spectral symbol
    code, out, _ = _run(
        capsys, "first-coeff", "--type", "A2", "--levi", "2,1", "--symbols", "r", "--mode", "flat"
    )
    assert code == 0
    assert "ir" in out and "it" not in out


def test_usage_error_exit_2(capsys):
    code, _, _ = _run(capsys, "first-coeff", "--type", "Q9")
    assert code == 2
    code, _, _ = _run(capsys, "first-coeff", "--type", "D4", "--levi", "2,2")
    assert code == 2
    code, _, _ = _run(capsys, "nonsense")
    assert code == 2


def test_numeric_failure_exit_3(capsys):
    code, _, err = _run(capsys, "zeta", "1")
    assert code == 3
    assert "pole" in err
    # Weyl cap exceeded surfaces as a numeric failure
    code, _, err = _run(capsys, "constant-term", "--type", "E8", "--cap", "1000000")
    assert code == 3


def test_verify_paper_suite(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_properties_suite(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "properties")
    assert code == 0
    assert "FAIL" not in out


def test_verify_failure_exit_4(capsys, monkeypatch):
    from eiscoeff import verifysuite

    cases = (verifysuite.PAPER_CASES[0], ("injected failing case", lambda: False))
    monkeypatch.setattr(verifysuite, "PAPER_CASES", cases)
    code, out, _ = _run(capsys, "verify", "--suite", "paper")
    assert code == 4
    assert out == "ok A2 positive roots {a1, a2, a1+a2}\nFAIL injected failing case\n1/2 checks passed\n"


def test_import_loads_neither_numpy_nor_mpmath():
    import eiscoeff

    src = str(Path(eiscoeff.__file__).resolve().parents[1])
    probe = "import sys, eiscoeff; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out == "[]\n"


def test_outputs_newline_terminated(capsys):
    for argv in (
        ["first-coeff", "--type", "A2", "--levi", "2,1"],
        ["zeta", "3"],
        ["params", "--gln", "4", "--levi", "2,2"],
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out.endswith("\n")


SUBCOMMANDS = {
    "first-coeff": ["first-coeff", "--type", "A2", "--levi", ""],
    "constant-term": ["constant-term", "--type", "A2"],
    "params": ["params", "--gln", "4", "--levi", "2,2"],
    "hecke": ["hecke", "--gln", "3", "--alpha", "0.3i,0.1i,-0.4i", "--m", "720"],
    "whittaker-p": ["whittaker-p", "--type", "A2", "--p", "5", "--nu", "0.2+1i,0.1+0.8i",
                    "--cochar", "1,2"],
    "whittaker-sl2": ["whittaker-sl2", "--nu", "0.25i", "--y", "1.5"],
    "zeta": ["zeta", "2"],
    "verify": ["verify", "--suite", "properties"],
}


def _loaded_submodules(code, *argv):
    """Names of the eiscoeff submodules that a fresh interpreter has loaded after `code`."""
    import eiscoeff

    src = str(Path(eiscoeff.__file__).resolve().parents[1])
    probe = (
        f"import sys\n{code}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('eiscoeff.')), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return {m.removeprefix("eiscoeff.") for m in proc.stderr.split()}


def _cli_loads(name):
    code = "from eiscoeff.cli import run\nassert run(sys.argv[1:]) == 0"
    return _loaded_submodules(code, *SUBCOMMANDS[name])


def test_bare_import_loads_no_submodule():
    assert _loaded_submodules("import eiscoeff") == set()


def test_first_use_of_a_name_loads_its_layer_only():
    assert _loaded_submodules("import eiscoeff\neiscoeff.zeta_star") == {"errors", "specfun"}


def test_zeta_loads_only_its_own_layers():
    loaded = _cli_loads("zeta")
    assert not loaded & {"symalg", "roots", "parabolic", "template", "glcoords", "verifysuite"}


def test_hecke_loads_no_symbolic_layer():
    loaded = _cli_loads("hecke")
    assert not loaded & {"symalg", "roots", "glcoords", "parabolic", "template"}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_only_verify_loads_the_example_catalogue(name):
    assert ("verifysuite" in _cli_loads(name)) == (name == "verify")


def test_every_public_name_resolves_to_its_submodule_object():
    import importlib

    import eiscoeff

    assert len(eiscoeff.__all__) == len(set(eiscoeff.__all__)) == 55
    for name in eiscoeff.__all__:
        module = importlib.import_module(f"eiscoeff.{eiscoeff._SUBMODULE[name]}")
        assert getattr(eiscoeff, name) is getattr(module, name)


def test_public_names_are_listed_and_star_importable():
    import eiscoeff

    assert set(eiscoeff.__all__) <= set(dir(eiscoeff))
    assert "__version__" in vars(eiscoeff)
    namespace = {}
    exec("from eiscoeff import *", namespace)
    assert set(eiscoeff.__all__) <= set(namespace)
    for name in eiscoeff.__all__:
        assert namespace[name] is getattr(eiscoeff, name)


def test_unknown_name_raises_attribute_error():
    import eiscoeff

    with pytest.raises(AttributeError, match="no_such_name"):
        eiscoeff.no_such_name
    assert not hasattr(eiscoeff, "cli_run")
