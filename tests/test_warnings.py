"""The test session's warning handling, checked in a pytest run of its own."""

from pathlib import Path

from conftest import child_env

pytest_plugins = ("pytester",)

SESSION_TESTS = '''
import warnings

import flexmove.motion
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_given(x):
    assert x < 5


def test_b_flexmove_deprecation():
    warnings.warn_explicit("old API", DeprecationWarning, flexmove.motion.__file__, 1,
                           module="flexmove.motion")


def test_c_after_them():
    pass
'''


def test_failing_given_is_reported_and_deprecations_still_fail(pytester, monkeypatch):
    # the conftest of this suite, under this suite's warning filter, importing this flexmove
    monkeypatch.setenv("PYTHONPATH", child_env()["PYTHONPATH"])
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyprojecttoml('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    pytester.makepyfile(test_session=SESSION_TESTS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_a_failing_given(*",
                                 "*DeprecationWarning: old API*"])
