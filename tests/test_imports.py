"""What a fresh process imports: the package loads submodules on first use,
and each CLI command loads only the modules it runs."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import vspace
import vspace.tolerance

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
S1 = Path(__file__).parent / "fixtures" / "s1.vs"
UNUSED_BY_VALIDATE = ["vspace.coding", "vspace.tolerance", "vspace.oracles", "dataclasses"]


def fresh(code: str):
    """Run ``code`` in a new interpreter on this checkout; return what it prints as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "command, code, used, unused",
    [
        ("validate", 0, [], ["vspace.connectivity", *UNUSED_BY_VALIDATE]),
        ("induced", 0, [], ["vspace.connectivity", *UNUSED_BY_VALIDATE]),
        ("connected", 1, ["vspace.connectivity"], UNUSED_BY_VALIDATE[:3]),
    ],
    ids=["validate", "induced", "connected"],
)
def test_a_command_imports_only_what_it_runs(command, code, used, unused, tmp_path):
    argv = [command, str(S1), *(["--out", str(tmp_path / "out.vs")] if command == "induced" else [])]
    loaded = fresh(
        "import json, vspace.cli\n"
        f"code = vspace.cli.main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {[*used, *unused]!r} if m in sys.modules]]))"
    )
    assert loaded == [code, used]


def test_import_vspace_loads_no_submodule_until_a_name_is_read():
    loaded = fresh(
        "import json, vspace\n"
        "before = sorted(m for m in sys.modules if m.startswith('vspace.'))\n"
        "vspace.ParseError\n"
        "after = sorted(m for m in sys.modules if m.startswith('vspace.'))\n"
        "print(json.dumps([before, after]))"
    )
    assert loaded == [[], ["vspace.errors"]]


def test_every_public_name_is_its_home_modules_object():
    wrong = fresh(
        "import json, types, vspace\n"
        "wrong = []\n"
        "for name in vspace.__all__:\n"
        "    value, home = getattr(vspace, name), sys.modules['vspace.' + vspace._HOMES[name]]\n"
        "    defined = value.__module__ if isinstance(value, (type, types.FunctionType)) else home.__name__\n"
        "    if value is not getattr(home, name) or defined != home.__name__:\n"
        "        wrong.append(name)\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []


def test_dir_lists_every_public_name():
    listed = fresh("import json, vspace\nprint(json.dumps(dir(vspace)))")
    assert set(vspace.__all__) <= set(listed) and "__version__" in listed
    assert set(vspace.__all__) <= set(dir(vspace))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from vspace import *", namespace)
    assert {name: namespace[name] for name in vspace.__all__} == {name: getattr(vspace, name) for name in vspace.__all__}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vspace.no_such_name
    with pytest.raises(ImportError):
        exec("from vspace import no_such_name", {})


def test_a_public_name_follows_a_rebinding_in_its_home_module(monkeypatch):
    original = vspace.tolerance_report
    monkeypatch.setattr(vspace.tolerance, "tolerance_report", len)
    assert vspace.tolerance_report is len
    monkeypatch.undo()
    assert vspace.tolerance_report is original is vspace.tolerance.tolerance_report
    assert "tolerance_report" not in vars(vspace)


def test_every_public_name_is_read_by_the_package_or_the_bench():
    # A name read only by tests is a second entry into a rule that the
    # package already runs elsewhere.  Docstrings and the _EXPORTS strings
    # do not count; a read of the name or of an attribute so named does.
    read = set()
    for path in [*(SRC / "vspace").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(vspace.__all__) - read) == []
