"""Every name a module imports is used in it, every private name the
package defines is read in the package, every public name it defines is
read in the package, the benchmark or the tests, every name
tests/helpers.py defines is read by the tests or by helpers.py itself, no
two test functions have the same arguments and body, no package module but
the oracle imports the dense simplex, no package module but the
relaxation names the parts of its LP solver, no package module but
influence, which holds the one size rule, the one memory rule and the reach
kernel's one word rule, writes a size refusal or names the memory rule's
byte bound or an unsigned word, and no package module but model, which holds
the one user-cap rule, writes the refusal of extended mode without W.

No linter runs in the test suite, and deleting or moving code tends to leave
stale imports, helpers and public names behind.  The import check parses each
package module (but the package's __init__, which imports to re-export) and
each test module; the private-name, simplex, LP, size-refusal, byte-bound,
word and W-refusal checks parse the whole package, the public-name check
reads it from the package but its __init__, perfbench/ and the tests, and
the helper and duplicate checks parse the whole test directory.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "couponprobe").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"] + TESTS)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_name() -> None:
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def simplex_importers(sources: dict[str, str]) -> list[str]:
    """The modules, by name, with an import statement, of either form,
    relative or absolute, that names a module or name called simplex."""
    importers = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            else:
                continue
            if any(name.split(".")[-1] == "simplex" for name in names):
                importers.append(module)
                break
    return importers


def test_simplex_checker_flags_every_import_form() -> None:
    sources = {
        "a": "from . import simplex\n",
        "b": "from .simplex import maximize\n",
        "c": "import couponprobe.simplex\n",
        "d": "from couponprobe import model, simplex\n",
        "e": "from . import model\nfrom .relaxation import solve_lp\n",
    }
    assert simplex_importers(sources) == ["a", "b", "c", "d"]


def test_only_the_oracle_imports_the_simplex() -> None:
    # the simplex serves the concave extension's LP alone; the relaxation's
    # direction LP and the relaxation optimum run on the integer hull walk
    assert simplex_importers({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == ["oracle"]


# the parts of relaxation._ColumnLP.solve, which its callers reach only
# through _ColumnLP
LP_INTERNALS = frozenset({"_cost_runs", "_knapsack_optimum", "_lagrangian_optimum", "_vertex", "_dependence"})


def namers(sources: dict[str, str], names: frozenset[str]) -> list[str]:
    """The modules, by name, that name one of names: import it, read or
    assign it as a name or an attribute, define it, or spell it as a string
    (a dtype's name, getattr's)."""
    modules = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.Constant):
                found = [node.value]
            elif isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [node.name]
            else:
                continue
            if names.intersection(found):
                modules.append(module)
                break
    return modules


def test_lp_internal_checker_flags_every_form() -> None:
    sources = {
        "a": "from .relaxation import _cost_runs\n",
        "b": "from . import relaxation\nrelaxation._vertex(lp, z)\n",
        "c": "from .relaxation import *\nx = _knapsack_optimum\n",
        "d": "def _dependence(effects):\n    return None\n",
        "e": "from .relaxation import _ColumnLP, _mass\nlp = _ColumnLP([], [], 0, [], None)\n",
    }
    assert namers(sources, LP_INTERNALS) == ["a", "b", "c", "d"]


def test_only_the_relaxation_names_its_lp_internals() -> None:
    # the direction LP, solve_lp and the oracle's relaxation optimum all
    # solve through _ColumnLP.solve, so no other module strings its parts
    # together
    assert namers({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}, LP_INTERNALS) == ["relaxation"]


# the byte bound of a chunk of outcomes, which influence._chunk_columns reads
MEMORY_BOUND = frozenset({"KERNEL_BYTES"})


def test_memory_bound_checker_flags_every_form() -> None:
    sources = {
        "a": "from .influence import KERNEL_BYTES\n",
        "b": "from . import influence\nrows = influence.KERNEL_BYTES // 32\n",
        "c": "KERNEL_BYTES = 1 << 22\n",
        "d": "from . import influence\nrows = influence._chunk_columns(graph, 32)\n",
    }
    assert namers(sources, MEMORY_BOUND) == ["a", "b", "c"]


def test_only_the_influence_reads_the_memory_bound() -> None:
    # every sampled path sizes its chunks by influence._chunk_columns, the
    # one memory rule, so no other module divides the bound its own way
    assert namers({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}, MEMORY_BOUND) == ["influence"]


# the reach kernel's words, which influence._word chooses by the node count
WORDS = frozenset({"uint8", "uint16", "uint32", "uint64"})


def test_word_checker_flags_every_form() -> None:
    sources = {
        "a": "import numpy as np\nones = np.iinfo(np.uint64).max\n",
        "b": "from numpy import uint8\n",
        "c": "import numpy as np\nrows = np.zeros(3, dtype=\"uint16\")\n",
        "d": "import numpy\nrows = numpy.empty(3, numpy.uint32)\n",
        "e": "import numpy as np\nrows = np.zeros(3, dtype=np.int64)\n",
        "f": "from .influence import _word\nword, words = _word(graph)\n",
    }
    assert namers(sources, WORDS) == ["a", "b", "c", "d"]


def test_only_the_influence_names_a_word() -> None:
    # the reach kernel, its live columns and _chunk_columns' byte count all
    # take the word influence._word picks, so no other module picks a second
    assert namers({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}, WORDS) == ["influence"]


# the phrase every size refusal ends with, which influence._admit writes
LIMIT_PHRASE = "above the limit of"
# the refusal of extended mode without W, which model.Instance.user_cap writes
W_REFUSAL = "extended mode requires an instance with W set"


def phrasers(sources: dict[str, str], phrase: str) -> list[str]:
    """The modules, by name, with a string, an f-string's included, that
    holds phrase outside a docstring."""
    phrasers = []
    for module, source in sources.items():
        tree = ast.parse(source)
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
        }
        if any(isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
               and id(node) not in docstrings for node in ast.walk(tree)):
            phrasers.append(module)
    return phrasers


def test_limit_phrase_checker_flags_every_string_form() -> None:
    sources = {
        "a": 'def f(n, m):\n    raise ValueError(f"x needs {n} y (z), above the limit of {m}")\n',
        "b": 'MESSAGE = "above the " "limit of 3"\n',
        "c": 'def f():\n    """Refuses counts above the limit of N."""\n',
        "d": 'def f(n, m):\n    raise ValueError(f"at most {m} y, got {n}")\n',
    }
    assert phrasers(sources, LIMIT_PHRASE) == ["a", "b"]


def test_only_the_size_rule_writes_a_size_refusal() -> None:
    # every other module hands its count, parts and limit to influence._admit
    assert phrasers({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}, LIMIT_PHRASE) == ["influence"]


def test_only_the_cap_rule_writes_the_w_refusal() -> None:
    # every entry point with an extended mode reads its cap from
    # model.Instance.user_cap, which refuses an instance without W
    assert phrasers({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}, W_REFUSAL) == ["model"]


def names_read(trees) -> set[str]:
    """Every name the parsed modules read, as a name, an attribute or an
    imported name."""
    read: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def top_level_names(tree) -> list[str]:
    """The functions, classes and assigned names a parsed module defines at
    its top level, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore) that one of the
    sources defines and none of them reads.  sources maps a module's name
    to its text."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    return [f"{module}: {name}" for module, tree in trees.items() for name in top_level_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_private_name_checker_flags_an_unread_name() -> None:
    sources = {
        "a": "import b\n_ONE = 1\n_two: int = 2\ndef _f():\n    return _ONE\nclass _C: pass\n"
             "def _g():\n    return b._h()\n__all__ = []\n",
        "b": "from a import _C\ndef _h(): pass\ndef _dead(): pass\n",
    }
    assert unread_private_names(sources) == ["a: _two", "a: _f", "a: _g", "b: _dead"]


def test_every_private_package_name_is_read() -> None:
    assert unread_private_names({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def unread_public_names(defining: dict[str, str], reading: dict[str, str]) -> list[str]:
    """Module-level public names (no leading underscore) that one of the
    defining sources defines and none of the reading sources reads.  Both
    map a module's name to its text."""
    read = names_read(ast.parse(source) for source in reading.values())
    return [f"{module}: {name}" for module, source in defining.items() for name in top_level_names(ast.parse(source))
            if not name.startswith("_") and name not in read]


def test_public_name_checker_flags_an_unread_name() -> None:
    defining = {
        "a": "ONE = 1\nTWO: int = 2\ndef f():\n    return ONE\nclass C: pass\ndef _g(): pass\n",
        "b": "def h(): pass\ndef dead(): pass\n__all__ = []\n",
    }
    reading = {"a": defining["a"], "t": "import b\nfrom a import C\nb.h()\n"}
    assert unread_public_names(defining, reading) == ["a: TWO", "a: f", "b: dead"]


def test_every_public_package_name_is_read() -> None:
    # the package's __init__ re-exports names; that alone is no reader
    readers = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS + BENCH
    assert unread_public_names(
        {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE},
        {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in readers},
    ) == []


def unread_helpers(sources: dict[str, str]) -> list[str]:
    """Top-level names of sources["helpers"] that none of the sources reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    return [name for name in top_level_names(trees["helpers"]) if name not in read]


def test_helper_checker_flags_an_unread_helper() -> None:
    sources = {
        "helpers": "N = 1\ndef f():\n    return N\ndef g(): pass\nclass C: pass\n",
        "test_a": "from helpers import f\n",
    }
    assert unread_helpers(sources) == ["g", "C"]


def test_every_helper_is_read() -> None:
    assert unread_helpers({p.stem: p.read_text(encoding="utf-8") for p in TESTS}) == []


def duplicate_functions(sources: dict[str, str]) -> list[str]:
    """Top-level functions of the sources that share their arguments and
    body, as ast.dump gives them, each set as "module.name, module.name"."""
    defined: dict[str, list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = ast.dump(node.args) + "".join(ast.dump(stmt) for stmt in node.body)
                defined.setdefault(key, []).append(f"{module}.{node.name}")
    return [", ".join(names) for names in defined.values() if len(names) > 1]


def test_duplicate_checker_flags_a_copied_function() -> None:
    sources = {"a": "def f(x): return x\ndef g(y): return y\n", "b": "def h(x): return x\n"}
    assert duplicate_functions(sources) == ["a.f, b.h"]


def test_no_function_is_defined_twice_in_the_tests() -> None:
    assert duplicate_functions({p.stem: p.read_text(encoding="utf-8") for p in TESTS}) == []
