import bloomretrieval


def test_every_export_resolves():
    for name in bloomretrieval.__all__:
        getattr(bloomretrieval, name)
    namespace = {}
    exec("from bloomretrieval import *", namespace)
    assert set(bloomretrieval.__all__) <= set(namespace)
