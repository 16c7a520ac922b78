"""README's "Library sketch" block, run as written, with its comments checked."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch_lines() -> list[str]:
    match = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no Library sketch block"
    return match.group(1).splitlines()


def test_library_sketch_runs_and_its_comments_hold():
    lines = _sketch_lines()
    namespace: dict = {}
    exec(compile("\n".join(lines), str(README), "exec"), namespace)
    parts = (line.partition("#") for line in lines)
    comments = {code.strip(): comment.strip() for code, _, comment in parts if comment}
    claims = [code for code, comment in comments.items() if comment.split(",")[0] == "True"]
    assert len(claims) == 3
    for code in claims:
        assert eval(code, namespace) is True, code
    series = comments["hilbert_function(pt, 4)"]
    assert namespace["hilbert_function"](namespace["pt"], 4).series_str() == series
