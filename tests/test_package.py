import topocsp


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from topocsp import *", namespace)  # a stale name raises here
    assert set(topocsp.__all__) <= set(namespace)
