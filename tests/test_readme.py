"""The README's examples run: the ``>>>`` lines of its ``python`` blocks
(the Quick start) are a doctest of the library as it is, so a value or a
repr that the README shows cannot drift from the one the library returns."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE)
    globs, report = {}, []
    for block in re.finditer(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE):
        line = text.count("\n", 0, block.start(1))  # the block's first line, from 0
        runner.run(parser.get_doctest(block[1], globs, "README.md", str(README), line),
                   out=report.append, clear_globs=False)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0
    assert failed == 0, "".join(report)
