"""The exact modules and the tests' `reference` use no floats: no float
literal, no float() and no `math` function beyond the integer ones.
`asymptotics` is left out, because its final logarithms are floats by
design."""

import ast
from pathlib import Path

import pytest

import cantorq

EXACT_MODULES = ("measure.py", "constraint.py", "oracle.py", "closedform.py")
INTEGER_MATH = {"gcd", "lcm", "comb", "isqrt"}


def float_uses(source: str) -> list[str]:
    """Each float literal, use of the name `float`, and `math` name outside
    INTEGER_MATH in the source, with its line number."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: math.{a.name}" for a in node.names
                      if a.name not in INTEGER_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr not in INTEGER_MATH):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_use_no_floats(name):
    path = Path(cantorq.__file__).parent / name
    assert float_uses(path.read_text()) == []


def test_the_reference_uses_no_floats():
    assert float_uses((Path(__file__).parent / "reference.py").read_text()) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e3",
    "y = float(x)",
    "ys = map(float, xs)",
    "import math\ny = math.log(x)",
    "import math as m\ny = m.sqrt(x)",
    "from math import gcd, log2",
    "import math\ny = math.pi",
])
def test_float_uses_are_found(source):
    assert len(float_uses(source)) == 1


def test_integer_math_is_allowed():
    assert float_uses("import math\nfrom math import comb, lcm\n"
                      "y = math.gcd(6, 4) + math.isqrt(9) + 3 // 2") == []
