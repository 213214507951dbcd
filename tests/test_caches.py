import weakref
from fractions import Fraction

from cantorq import asymptotics, cli, closedform, constraint, measure, oracle

MODULES = (measure, constraint, closedform, oracle, asymptotics, cli)


def test_every_cache_is_bounded():
    caches = {f"{mod.__name__}.{name}": obj.cache_parameters()["maxsize"]
              for mod in MODULES for name, obj in vars(mod).items()
              if hasattr(obj, "cache_parameters")}
    assert caches  # the walk sees the caches that exist
    assert {name: size for name, size in caches.items() if size is None} == {}


def test_a_codebooks_pass_lives_and_dies_with_it():
    # the pass is kept on its PointSet, unseen by equality, hash and repr,
    # and nothing else holds a point of a codebook that is gone
    ps = closedform.build_alpha(12)
    point = weakref.ref(ps.points[0])
    assert oracle.exact_distortion(12, ps) == closedform.quantization_error(12)
    fresh = closedform.build_alpha(12)
    assert (ps, hash(ps), repr(ps)) == (fresh, hash(fresh), repr(fresh))
    del ps, fresh
    assert point() is None


def test_returned_masses_do_not_alias_the_pass():
    ps = closedform.build_alpha(12)
    masses = oracle.cell_measures(12, ps)
    expected = list(masses)
    masses[0] = Fraction(7)
    masses.append(Fraction(1))
    assert oracle.cell_measures(12, ps) == expected
    assert oracle.exact_distortion(12, ps) == closedform.quantization_error(12)
