import mirrorslit


def test_star_import_resolves_every_export():
    # a name in __all__ that the package lacks makes the import raise
    namespace = {}
    exec("from mirrorslit import *", namespace)
    assert set(mirrorslit.__all__) <= namespace.keys()
