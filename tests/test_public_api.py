"""The public API holds what the command line, the demos and the benchmark use.

Every name of ``entwit.__all__`` is named, as a word, in ``src/entwit/cli.py``,
``demos/*.py`` or ``perfbench/*.py``, or is a type in the table of README's
"Public API" section.  Each of those types is in an annotation of every
function its row names, and each of those functions is public and named
there.  A demo imports from the package only names of ``__all__``.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import entwit

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = [ROOT / "src" / "entwit" / "cli.py", *DEMOS, *sorted((ROOT / "perfbench").glob("*.py"))]


def kept_types(readme: str) -> dict[str, list[str]]:
    """The table of README's "Public API" section: each kept type and the
    functions that take or return it."""
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.MULTILINE)
    return {name: re.findall(r"`(\w+)`", functions) for name, functions in rows}


REACHED = set(re.findall(r"\w+", "\n".join(path.read_text(encoding="utf-8") for path in SOURCES)))
KEPT = kept_types((ROOT / "README.md").read_text(encoding="utf-8"))


def unreached(names) -> list[str]:
    """The names that no source names and README does not keep."""
    return [name for name in names if name not in REACHED and name not in KEPT]


def non_public_imports(source: str) -> list[str]:
    """The names that ``source`` imports from entwit or one of its modules
    and that ``entwit.__all__`` lacks."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "entwit"
        for alias in node.names
        if alias.name not in entwit.__all__
    ]


def annotation_words(function) -> set[str]:
    signature = inspect.signature(function)
    annotations = [signature.return_annotation, *(p.annotation for p in signature.parameters.values())]
    return set(re.findall(r"\w+", " ".join(map(str, annotations))))


@pytest.mark.parametrize("name", entwit.__all__)
def test_each_public_name_is_reached_or_kept(name):
    assert not unreached([name]), (
        f"{name} is named in no CLI, demo or benchmark file and is not a kept type in README's Public API"
    )


def test_a_name_added_without_a_reach_is_refused():
    assert unreached([*entwit.__all__, "added_helper"]) == ["added_helper"]


def test_readme_keeps_six_types():
    assert sorted(KEPT) == [
        "DrivingSchedule",
        "EstimatorSummary",
        "SweepReference",
        "TransitionMatrix",
        "WitnessReport",
        "WorkDistribution",
    ]


@pytest.mark.parametrize("name", sorted(KEPT))
def test_a_kept_type_is_taken_or_returned_by_reached_functions(name):
    assert name in entwit.__all__
    assert KEPT[name], f"README names no function for {name}"
    for function in KEPT[name]:
        assert function in entwit.__all__ and function in REACHED, function
        assert name in annotation_words(getattr(entwit, function)), function


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_a_demo_imports_only_public_names(demo):
    assert not non_public_imports(demo.read_text(encoding="utf-8"))


def test_a_demo_import_of_a_module_name_is_refused():
    source = "from entwit import build_w_state\nfrom entwit.witness import reference_params, witness_evaluate\n"
    assert non_public_imports(source) == ["reference_params"]
