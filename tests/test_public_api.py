"""Every name the package exports must exist; removing code must not leave one behind."""

import derinv


def test_all_names_resolve():
    assert derinv.__all__
    missing = [name for name in derinv.__all__ if not hasattr(derinv, name)]
    assert not missing
