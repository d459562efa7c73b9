"""README's quick start runs as written: its python block is executed one
statement at a time in a fresh namespace, and the results its comments
state exactly are asserted."""

import ast
import re
from pathlib import Path

from conekit.certify import Verdict

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_quick_start():
    """The value of each expression statement of the block, keyed by its
    source text, after running every statement in order."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_readme_quick_start_runs():
    values = _run_quick_start()
    assert values["cert.verdict"] is Verdict.VIOLATION
    assert values["ck.detect_schmidt_number(rho, ck.reduction_detectors(3)[1])"
                  ".implied_lower_bound"] == 3
    assert values["ck.classify(ck.MatrixOp(np.eye(6), dims=(2, 3))).dims"] == (2, 3)
