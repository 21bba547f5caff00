import armle


def test_all_is_unique_and_resolves():
    assert len(armle.__all__) == len(set(armle.__all__))
    missing = [name for name in armle.__all__ if not hasattr(armle, name)]
    assert missing == []
    namespace: dict = {}
    exec("from armle import *", namespace)
    assert set(armle.__all__) <= set(namespace)
