import reprank


def test_every_public_name_resolves():
    missing = [name for name in reprank.__all__ if not hasattr(reprank, name)]
    assert not missing
    namespace = {}
    exec("from reprank import *", namespace)
    assert set(reprank.__all__) <= set(namespace)
