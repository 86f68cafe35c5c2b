"""The suite's own pytest settings: a failing test is reported, not an internal error."""

import json
import subprocess
import sys
import textwrap

PROPERTY_THEN_PLAIN = textwrap.dedent(
    """
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_a_failing_property(n):
        assert n < 10


    def test_after_it():
        pass
    """
)


def test_failing_property_is_one_failure_and_later_tests_run(tmp_path, pytestconfig):
    # on failure, hypothesis's plugin imports libcst, whose DeprecationWarning
    # the "error" filter would turn into an INTERNALERROR that ends the run
    warnings = "".join(f"    {json.dumps(w)},\n" for w in pytestconfig.getini("filterwarnings"))
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.pytest.ini_options]\nfilterwarnings = [\n{warnings}]\n"
    )
    (tmp_path / "test_property.py").write_text(PROPERTY_THEN_PLAIN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
