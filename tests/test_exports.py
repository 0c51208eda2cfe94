import types

import swarmdeform as sd


def test_all_lists_exactly_the_public_names():
    public = {name for name in dir(sd) if not name.startswith("_")
              and not isinstance(getattr(sd, name), types.ModuleType)}
    assert set(sd.__all__) == public
    assert len(sd.__all__) == len(public)
    for name in sd.__all__:
        assert getattr(sd, name) is not None
