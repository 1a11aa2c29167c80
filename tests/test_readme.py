"""The README's configuration listing and library example stay true."""

import ast
import os
import re
import subprocess
import sys

import tsdiag
from tsdiag import cli
from tsdiag.config import PipelineConfig, dump_config, load_config
from tsdiag.synth import write_fixture

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _first_code_block(title: str) -> str:
    with open(README) as fh:
        text = fh.read()
    body = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    fenced = body.split("```", 2)[1]
    return fenced.split("\n", 1)[1]  # drop the language tag line


def _ini_entries(text: str) -> list[tuple[str, str, str]]:
    entries = []
    section = None
    for line in text.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            key, _, value = line.partition("=")
            entries.append((section, key.strip(), value.strip()))
    return entries


def test_configuration_block_lists_every_key_with_its_default():
    listed = _ini_entries(_first_code_block("Configuration"))
    assert listed == _ini_entries(dump_config(PipelineConfig()))


def test_configuration_block_loads_as_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_first_code_block("Configuration"))
    assert load_config(str(path)) == PipelineConfig()


def test_library_example_runs(tmp_path, monkeypatch):
    write_fixture(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_first_code_block("Library use"), "README.md", "exec"), namespace)
    diagram = namespace["diagram"]
    assert len(diagram.vehicle_trajectories) == 1
    assert len(diagram.probe_trajectory) == 100


def _tsdiag_modules_loaded_by(statement: str) -> list[str]:
    """The tsdiag modules a fresh interpreter holds after running statement."""
    code = (f"import sys; {statement}; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'tsdiag'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsdiag.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


def test_package_root_loads_only_the_version():
    assert _tsdiag_modules_loaded_by("import tsdiag") == ["tsdiag", "tsdiag.version"]


def test_config_loads_no_pipeline_stage():
    assert _tsdiag_modules_loaded_by("import tsdiag.config") == [
        "tsdiag", "tsdiag.config", "tsdiag.errors", "tsdiag.geodesy", "tsdiag.photogrammetry",
        "tsdiag.version"]


def test_exit_code_sentence_lists_every_exit_code():
    with open(README) as fh:
        sentence = fh.read().split("\nExit codes", 1)[1].split(".", 1)[0]
    listed = [int(code) for code in re.findall(r"(?:: |, )(\d+) ", sentence)]
    assert listed == sorted(value for name, value in vars(cli).items()
                            if name.startswith("EXIT_"))
