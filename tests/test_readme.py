"""The README's examples run: the ``>>>`` lines of its ``python`` blocks
(the Quick start) are a doctest of the library as it is, and each
``lambda-stirling`` line of its ``sh`` blocks runs through the CLI, so a
value, a repr or an output line that the README shows cannot drift from
the one the package gives.  Each count the README states is read from the
library too."""

import doctest
import re
import shlex
from math import comb
from pathlib import Path

import lambda_stirling
from lambda_stirling import (CHECKS, SYMBOLIC, resolve_theorem13_variant, rstirling1_lambda,
                             rstirling2_lambda, unsigned_rstirling1_lambda)
from lambda_stirling.cli import main

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


def cli_examples(text: str) -> list:
    """(line number, argv, fragments) of each ``lambda-stirling`` line of the
    ``sh`` blocks: the ``# ...`` lines right below it, up to a blank line,
    are its output, split at ``...`` and cut at a ``<-`` note."""
    examples, current = [], None
    for block in re.finditer(r"^```sh\n(.*?)^```$", text, re.DOTALL | re.MULTILINE):
        first = text.count("\n", 0, block.start(1)) + 1
        for number, line in enumerate(block[1].splitlines(), first):
            if line.startswith("lambda-stirling "):
                current = (number, shlex.split(line)[1:], [])
                examples.append(current)
            elif current and line.startswith("#"):
                output = line[1:].split("<-")[0]
                current[2].extend(part.strip() for part in output.split("...") if part.strip())
            else:
                current = None
    return examples


def test_readme_cli_lines_print_what_they_show(capsys):
    examples = cli_examples(README.read_text(encoding="utf-8"))
    assert len(examples) >= 7
    for number, argv, fragments in examples:
        assert main(argv) == 0, number
        out = capsys.readouterr().out
        at = 0
        for fragment in fragments:
            found = out.find(fragment, at)
            assert found >= 0, f"README.md:{number}: {fragment!r} not in order in\n{out}"
            at = found + len(fragment)


WORDS = ("zero one two three four five six seven eight nine ten eleven twelve thirteen "
         "fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()


def same_shift_pairings(second, sign):
    """(instances, instances where it is not [n = m]) of the pairing
    sum_k sign^(k - m) T(n, k; r) second(k, m; r) over n, m <= 12, r <= 3,
    at symbolic lambda."""
    instances = misses = 0
    for r in range(4):
        for n in range(13):
            for m in range(13):
                total = sum(sign ** (k - m) * rstirling2_lambda(n, k, r, SYMBOLIC)
                            * second(k, m, r, SYMBOLIC) for k in range(m, n + 1))
                instances += 1
                misses += total != (n == m)
    return instances, misses


def test_readme_counts_are_the_library_s():
    text = " ".join(README.read_text(encoding="utf-8").split())
    variants = resolve_theorem13_variant().variant_reports
    const = variants["const"].checked_instances
    t13 = sum(report.checked_instances for report in variants.values())
    literal, literal_misses = same_shift_pairings(rstirling1_lambda, 1)
    inverse, inverse_misses = same_shift_pairings(unsigned_rstirling1_lambda, -1)
    assert literal_misses == 3 * comb(13, 2) and inverse_misses == 0
    for claim in (
        f"executes {WORDS[len(CHECKS)]} named checks",
        f"`__all__` ({len(lambda_stirling.__all__)} names)",
        f"passes on all {const} instances of the default grid, so T13 reports {t13} checked",
        f"symbolic deformation parameter ({literal} instances)",
        f"`3 * C(13, 2) = {literal_misses}` instances with `r >= 1` and `m < n`",
        f"`r <= 3` ({inverse} instances). This corrected form",
    ):
        assert claim in text, claim
