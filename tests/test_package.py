from types import ModuleType

import fibword


def test_all_lists_exactly_the_public_names():
    assert "annotations" not in fibword.__all__
    assert "run_claims" in fibword.__all__
    assert [name for name in fibword.__all__ if not hasattr(fibword, name)] == []
    public = {
        name
        for name, value in vars(fibword).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(fibword.__all__) == sorted(public)
