from cantorq import asymptotics, cli, closedform, constraint, measure, oracle

MODULES = (measure, constraint, closedform, oracle, asymptotics, cli)


def test_every_cache_is_bounded():
    caches = {f"{mod.__name__}.{name}": obj.cache_parameters()["maxsize"]
              for mod in MODULES for name, obj in vars(mod).items()
              if hasattr(obj, "cache_parameters")}
    assert caches  # the walk sees the caches that exist
    assert {name: size for name, size in caches.items() if size is None} == {}
