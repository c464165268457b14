"""The README's library example must run against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library-example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    rates = {name: float(value) for name, value in (line.rsplit(None, 1) for line in lines)}
    assert set(rates) == {"movable", "upper bound"}
    assert 0 < rates["movable"] <= rates["upper bound"]
