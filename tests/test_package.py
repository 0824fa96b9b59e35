import dataclasses
import importlib.util
import inspect
import pathlib

import omega_index
import omega_index.calibration as calibration
import omega_index.cli as cli_module
import omega_index.linalg as linalg_module
import omega_index.operators as operators_module
from omega_index import BoundCheckResult, OmegaResult, QBuild
from omega_index.cli import main

#: the sphere-coordinate API, which plays no part in the index, the declarative
#: pair description, which only the command line filled in, and the refusal of the
#: positive-definite inverse's eigendecomposition route; all were removed
REMOVED_NAMES = (
    "SphereMap", "bott_point", "sphere_map", "PairSpec", "build_pair", "NotPositiveDefinite",
)


def test_every_exported_name_resolves():
    assert len(set(omega_index.__all__)) == len(omega_index.__all__)
    for name in omega_index.__all__:
        getattr(omega_index, name)


def test_removed_names_are_gone():
    for name in REMOVED_NAMES:
        assert name not in omega_index.__all__
        assert not hasattr(omega_index, name)
        assert not hasattr(operators_module, name)
    for name in ("cmd_sphere", "SPHERE_SCHEMA", "_pair_spec_from_args", "_BUILDER_NAMES",
                 "_sweep_point"):
        assert not hasattr(cli_module, name)
    for name in ("_eigen_inverse", "PD_FLOOR", "INV_TOL", "_first"):
        assert not hasattr(linalg_module, name)


def test_removed_fields_are_gone():
    assert not hasattr(QBuild, "q")
    assert "seed" not in {f.name for f in dataclasses.fields(BoundCheckResult)}
    assert "scaling" not in {f.name for f in dataclasses.fields(OmegaResult)}


def test_removed_parameters_are_gone():
    for fn in (omega_index.omega, omega_index.certify):
        assert "scaling" not in inspect.signature(fn).parameters
    for name in ("write_record", "load_record", "record_path"):
        assert not hasattr(calibration, name)
    assert "c" not in inspect.signature(omega_index.OperatorPair).parameters


def test_sphere_subcommand_is_a_usage_error(capsys):
    assert main(["sphere"]) == 1
    assert "invalid choice: 'sphere'" in capsys.readouterr().err



def test_load_pair_takes_only_the_two_paths():
    params = inspect.signature(omega_index.load_pair).parameters
    assert list(params) == ["path_a", "path_b"]


def test_code_lines_counts_no_docstring_comment_or_blank(tmp_path, capsys, monkeypatch):
    """The code-line counter of ``tools/code_lines.py``: a multi-line string that
    is not a docstring counts, line by line, and ``__init__.py`` is left out."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "# a comment alone\n"
        "class K:\n"
        '    """A class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """A function\n'
        '        docstring."""\n'
        '        text = """a string\n'
        '        that is code"""\n'
        "        return (text,\n"
        "                os.sep)\n"
    )
    assert tool.code_lines(source) == 7
    (tmp_path / "k.py").write_text(source)
    (tmp_path / "__init__.py").write_text("from .k import K\n")
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    assert tool.main() == 0
    assert capsys.readouterr().out.split() == ["k.py", "7", "total", "7"]
