"""Mutation testing of `src/epibias`, on the standard library alone.

    python tests/mutate.py epibias.streams epibias.noise
    python tests/mutate.py epibias.finite:_pinned,_forward,_backward

Each target is a module of the package, optionally with the functions or
methods (by qualified name, nested ones included) to mutate.  The runner
copies the checkout to a temporary directory and applies one mutant at a
time to the copy; the checkout itself is never written.  The operators are:

* compare: one comparison operator flipped (< and <=, > and >=, == and !=,
  is and is not, in and not in);
* constant: an integer constant +1 or -1;
* slice: a slice bound that is not a constant +1 or -1;
* negate: the condition of an if, elif, while, conditional expression or
  comprehension filter negated;
* delete: a statement replaced by `pass` (docstrings and imports are kept).

A mutant is first run against its module's own test files with `-x`.  One
that no test there fails is run against all of Tier-1, unless it is listed
as equivalent (below).  A mutant that Tier-1 passes too is a survivor: the
tests cannot tell it from the code.  Every pytest run, the unmutated ones
too, is held to `MEMORY_LIMIT` bytes of address space, so a mutant that asks
for more fails its run and is killed.  Each output line is one mutant, as
`<fate> <file>:<line> <id>`, where the fate is killed, timeout (counted as
killed), listed (its own tests pass and it is in the list, so Tier-1 was not
run) or SURVIVED (its own tests and Tier-1 pass), and the id is

    <module>:<scope>: <source line> :: <operator> [<before> -> <after>]

where the source line loses its trailing comment, with a ` [n]` suffix when
a scope holds the same mutant more than once.  `tests/mutants_equivalent.json`
maps the id of each mutant the tests are not meant to kill (an equivalent
mutant, a speed choice, or safety code) to the reason.  The exit status is 1
when a survivor is missing from that list, or when a listed mutant in the
scope that ran is no longer made or is killed by its own tests.  A listed
mutant that only a test in another file kills is not found stale: that
would cost a Tier-1 run for every listed mutant.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENTS = Path(__file__).with_name("mutants_equivalent.json")
TIER1 = ["--continue-on-collection-errors"]
# Address space of each pytest run, in bytes (`ulimit -v 3000000`): a mutant
# that asks for more fails its run, and is killed, instead of filling the host.
MEMORY_LIMIT = 3_000_000 * 1024

# Each module's own test files; a module not named here has tests/test_<name>.py.
OWN_TESTS = {
    "epibias.errors": ["tests/test_boundary.py"],
    "epibias.finite": ["tests/test_finite_oracle.py", "tests/test_theorem.py"],
}

COMPARE_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


@dataclass(frozen=True)
class Mutant:
    id: str
    line: int
    start: int  # byte offsets into the module's source
    end: int
    text: str  # what replaces source[start:end]

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text.encode() + source[self.end:]


def _scopes(tree: ast.Module):
    """(qualified scope name, node) for every node of the module."""
    stack = [("<module>", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            stack.append((inner, child))


def _edits(node: ast.AST, parent_body: bool):
    """(operator, before, after, node whose source is replaced, new text);
    a deletion has no before and after."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[k] = COMPARE_FLIPS[type(op)]()
            new = ast.Compare(node.left, ops, node.comparators)
            yield "compare", ast.unparse(node), ast.unparse(new), node, f"({ast.unparse(new)})"
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta in (1, -1):
            yield "constant", repr(node.value), repr(node.value + delta), node, f"({node.value + delta})"
    elif isinstance(node, ast.Slice):
        for bound in (node.lower, node.upper):
            if bound is not None and not isinstance(bound, ast.Constant):
                for sign in "+-":
                    text = f"({ast.unparse(bound)} {sign} 1)"
                    yield "slice", ast.unparse(bound), text, bound, text
    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
        test = ast.unparse(node.test)
        yield "negate", test, f"not ({test})", node.test, f"(not ({test}))"
    elif isinstance(node, ast.comprehension):
        for cond in node.ifs:
            test = ast.unparse(cond)
            yield "negate", test, f"not ({test})", cond, f"(not ({test}))"
    if isinstance(node, ast.stmt) and parent_body and not isinstance(
        node, (ast.Pass, ast.Import, ast.ImportFrom)
    ):
        yield "delete", None, None, node, "pass"


def _in_fstring(tree: ast.Module) -> set[int]:
    """ids of the nodes inside f-strings, whose text the runner leaves alone."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            inside.update(id(n) for n in ast.walk(node))
    return inside


def _docstrings(tree: ast.Module) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            found.add(id(body[0]))
    return found


def mutants(module: str, source: bytes, functions: set[str] | None) -> list[Mutant]:
    """Every mutant of `source`, in source order, restricted to the scopes in
    `functions` (and the scopes nested in them) when it is given."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))
    skip = _in_fstring(tree) | _docstrings(tree)
    in_body = {id(stmt) for node in ast.walk(tree) for field in ("body", "orelse", "finalbody")
               if isinstance(getattr(node, field, None), list) for stmt in getattr(node, field)}
    found = []
    for scope, node in _scopes(tree):
        if id(node) in skip or not _within(scope, functions):
            continue
        for operator, before, after, target, text in _edits(node, id(node) in in_body):
            start = offsets[target.lineno - 1] + target.col_offset
            end = offsets[target.end_lineno - 1] + target.end_col_offset
            line = lines[target.lineno - 1].decode().split("  # ")[0].strip()
            change = operator if before is None else f"{operator} {before} -> {after}"
            mutant = Mutant(f"{module}:{scope}: {line} :: {change}", target.lineno, start, end, text)
            try:  # a deletion that is not Python (`elif pass`) is no mutant
                if operator == "delete":
                    ast.parse(mutant.apply(source))
            except SyntaxError:
                continue
            found.append(mutant)
    found.sort(key=lambda m: (m.start, -m.end, m.id))
    seen = {}
    for k, m in enumerate(found):
        seen[m.id] = seen.get(m.id, 0) + 1
        if seen[m.id] > 1:
            found[k] = replace(m, id=f"{m.id} [{seen[m.id]}]")
    return found


def _copy_checkout(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out",
        ".benchmarks", "*.egg-info", "out",
    ))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(copy: Path, args: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in the copy.  No
    bytecode is written, so a mutant of the same size is never run from the
    last one's cache; a run past its time is killed with every process it
    started."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    with subprocess.Popen(command, cwd=copy, env=env, start_new_session=True,
                          preexec_fn=_limit_memory,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as run:
        try:
            return "passed" if run.wait(timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            return "timeout"


def _timed(copy: Path, args: list[str]) -> float:
    start = time.perf_counter()
    if _pytest(copy, args, timeout=3600) != "passed":
        sys.exit(f"the unmutated checkout fails: pytest {' '.join(args)}")
    return time.perf_counter() - start


def _within(scope: str, functions) -> bool:
    """Whether `scope` is one of `functions` or nested in one; None is all."""
    return functions is None or any(scope == f or scope.startswith(f + ".") for f in functions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="MODULE[:FUNC,...]")
    args = parser.parse_args(argv)

    plan = []
    for target in args.targets:
        module, _, names = target.partition(":")
        path = ROOT / "src" / Path(*module.split(".")).with_suffix(".py")
        functions = set(names.split(",")) if names else None
        source = path.read_bytes()
        plan.append((module, path, functions, source, mutants(module, source, functions)))

    equivalents = json.loads(EQUIVALENTS.read_text(encoding="utf-8"))
    survivors, listed = [], []
    with tempfile.TemporaryDirectory(prefix="epibias-mutate-") as tmp:
        copy = Path(tmp) / "checkout"
        _copy_checkout(copy)
        tier1_limit = None  # timed on the first mutant that reaches Tier-1
        for module, path, functions, source, found in plan:
            own = OWN_TESTS.get(module, [f"tests/test_{module.rsplit('.', 1)[1]}.py"])
            own_limit = 5 * _timed(copy, own) + 30
            mutated = copy / path.relative_to(ROOT)
            print(f"{module}: {len(found)} mutants", flush=True)
            start = time.perf_counter()
            try:
                for m in found:
                    mutated.write_bytes(m.apply(source))
                    fate = _pytest(copy, own, own_limit)
                    if fate == "passed" and m.id in equivalents:
                        fate = "listed"
                        listed.append(m.id)
                    elif fate == "passed":
                        if tier1_limit is None:  # and check that Tier-1 passes unmutated
                            mutated.write_bytes(source)
                            tier1_limit = 5 * _timed(copy, TIER1) + 60
                            mutated.write_bytes(m.apply(source))
                        fate = _pytest(copy, TIER1, tier1_limit)
                    fate = {"passed": "SURVIVED", "failed": "killed"}.get(fate, fate)
                    print(f"{fate:8} {path.relative_to(ROOT)}:{m.line} {m.id}", flush=True)
                    if fate == "SURVIVED":
                        survivors.append(m.id)
            finally:
                mutated.write_bytes(source)
            print(f"{module}: {time.perf_counter() - start:.0f} s", flush=True)

    def ran(ident: str) -> bool:
        module, scope = ident.split(": ", 1)[0].split(":")
        return any(module == m and _within(scope, functions) for m, _, functions, _, _ in plan)

    stale = [e for e in equivalents if ran(e) and e not in listed]
    print(f"\n{len(listed)} listed, {len(survivors)} survivors not listed")
    for s in survivors:
        print(f"  NOT LISTED: {s}")
    for e in stale:
        print(f"  STALE (listed, but killed by its own tests or no longer made): {e}")
    return 1 if stale or survivors else 0


if __name__ == "__main__":
    sys.exit(main())
