"""The README's Python examples run as doctests, so the tour stays true."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_pass_as_doctests():
    text = README.read_text()
    blocks = list(PYTHON_BLOCK.finditer(text))
    assert blocks, "README.md has no ```python block"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs = {}  # later blocks may use names the earlier ones bound
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), globs, "README.md", str(README), lineno)
        runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
