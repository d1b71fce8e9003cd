import ast
import contextlib
import io
import re
from pathlib import Path

from hmmtagger.tagset import default_tagset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_api_sketch_runs_as_written():
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            flags=re.MULTILINE | re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    labels = ast.literal_eval(out.getvalue())
    assert len(labels) == 5
    assert set(labels) <= set(default_tagset().labels)
