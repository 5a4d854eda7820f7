"""Rules the library's source keeps, checked by parsing it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "apnforge").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """python -O strips assert statements, so a run-time check must raise explicitly."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


BLAS_ATTRIBUTES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_calls(path):
    """The CLI runs numpy's BLAS on one thread because apnforge makes no BLAS call; the
    matrix product operator and numpy's product and linalg routines would make one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES
    ]
    assert not lines, f"{path.name}: BLAS-backed operations at lines {lines}"
