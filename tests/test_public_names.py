"""Every public name of the package has a reader in the program itself: the
package, the demos or the benchmark.  A name that only its own tests read is
API that no command runs, so it is deleted rather than kept for its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qumode_probe"
PROGRAM = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
           *(ROOT / "perfbench").glob("*.py")]

# the tests read these as references for other code, so they stay without a
# reader in the program: log Z checks the grids of thermo_report and quench_work,
# evenly spaced lines are the test spectra of the probe and reconstruction, and
# the measurement budget sizes the records whose lines the tests recover
REFERENCES = {"log_partition_function", "evenly_spaced_spectrum", "required_samples"}


def public_definitions(tree: ast.Module):
    """(name, statement) of each public top-level function, class and UPPERCASE
    constant of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def names_read(node: ast.AST) -> set[str]:
    """The identifiers that ``node`` loads, as a name or as an attribute."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            } | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_public_name_has_a_reader_outside_its_definition():
    defined, read = {}, set()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(), str(path))
        own = list(public_definitions(tree)) if path.parent == PACKAGE else []
        defined.update((name, f"{path.stem}.{name}") for name, _ in own)
        for node in tree.body:
            # a definition that reads its own name, say by recursion, is no reader
            read |= names_read(node) - {name for name, statement in own if statement is node}
    assert REFERENCES <= defined.keys()
    unread = sorted(where for name, where in defined.items()
                    if name not in read and name not in REFERENCES)
    assert unread == []
