"""Every package name that README.md quotes exists.

README names functions and constants as `module.name` or
`nldirac.module.name` inside inline code.  A rename or a deletion that
leaves such a quote behind sends a reader to a name that is gone, so each
quoted name must be an attribute of its nldirac module.
"""

import importlib
import pathlib
import re

import nldirac

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(path.stem for path in
                 pathlib.Path(nldirac.__file__).resolve().parent.glob("*.py")
                 if path.stem != "__init__")


def _quoted_names(text):
    """(module, name) of each `module.name` inside the inline code spans
    of ``text``, fenced code blocks left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    name = re.compile(r"(?<![\w./])(?:nldirac\.)?(%s)\.(\w+)" % "|".join(MODULES))
    for span in re.findall(r"`([^`]+)`", text):
        yield from (match.groups() for match in name.finditer(span))


def test_readme_names_resolve():
    names = list(_quoted_names(README.read_text(encoding="utf-8")))
    # the README quotes dozens; none found means the pattern went stale
    assert len(names) >= 40
    missing = sorted({f"{module}.{attr}" for module, attr in names
                      if not hasattr(importlib.import_module(
                          f"nldirac.{module}"), attr)})
    assert missing == []
