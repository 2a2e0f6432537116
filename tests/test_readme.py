import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    """Each fenced python block of the README (the library tour) runs as
    written, on its own."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {i}", "exec"), {})
