"""The package's `__all__` lists exactly the public names it imports."""

import inspect

import wardflow


def test_all_matches_public_namespace():
    public = {name for name, value in vars(wardflow).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(wardflow.__all__) == public
    assert len(wardflow.__all__) == len(public)  # no name listed twice
