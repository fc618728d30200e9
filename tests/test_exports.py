import gdscert


def test_every_exported_name_resolves():
    missing = [name for name in gdscert.__all__ if not hasattr(gdscert, name)]
    assert missing == []
    assert len(set(gdscert.__all__)) == len(gdscert.__all__)


def test_star_import():
    namespace = {}
    exec("from gdscert import *", namespace)
    assert set(gdscert.__all__) <= namespace.keys()
