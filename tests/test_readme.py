import json
import pathlib
import re

from martprop import config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(),
                        re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    curve = namespace["curve"]
    assert curve.converged
    assert 0.0 < curve.deficit < 1.0


def test_readme_configs_resolve():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(),
                        re.DOTALL)
    kinds = [config.resolve(json.loads(block)).kind for block in blocks]
    assert sorted(kinds) == ["diffusion", "hilbert", "jump"]
