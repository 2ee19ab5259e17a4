import types

import kerrqed


def test_all_lists_exactly_the_public_imports():
    # a deleted function cannot leave a stale export, and a new public
    # import cannot be left out of __all__
    names = kerrqed.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(kerrqed, name) for name in names)
    public = {
        name
        for name, value in vars(kerrqed).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names) - {"__version__"}
