"""Golden outputs of the CLI: fixed configs whose stdout is kept under ``tests/data/``.

Four modules hold the cases, each with its folder of files: ``test_eval_golden``,
``test_jet_golden``, ``test_residual_golden`` and ``test_cli_golden``.  Each
defines ``DATA``, its folder, ``CASES``, and ``pinned(tmp_dir, name)``, the
output of a case that its file keeps.  Every file is written by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/golden.py

Rewrite them only for a change that is meant to move printed values, and
say so in CHANGES.md.
"""

import importlib
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner

from meandro.cli import main

MODULES = ("test_eval_golden", "test_jet_golden", "test_residual_golden", "test_cli_golden")


def run(tmp_dir: Path, name: str, command: str, config: dict, extra: list, exit_code: int = 0) -> str:
    """The stdout of ``command`` on the config of case ``name``, written to tmp_dir, with its options.

    The command must end with ``exit_code`` and print nothing on stderr.
    """
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, [command, "--config", str(path), *extra])
    assert (result.exit_code, result.stderr) == (exit_code, ""), f"{name}: {result.output}"
    return result.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for module in map(importlib.import_module, MODULES):
            module.DATA.mkdir(parents=True, exist_ok=True)
            for name in sorted(module.CASES):
                text = module.pinned(Path(tmp), name)
                (module.DATA / f"{name}.csv").write_text(text, encoding="utf-8")
                print(f"{module.DATA.name}/{name}.csv: {text.count(chr(10)) - 1} rows")
