import sys
import weakref
from fractions import Fraction

import reference
from cantorq import asymptotics, cli, closedform, constraint, measure, oracle

MODULES = (measure, constraint, closedform, oracle, asymptotics, cli, reference)


def test_every_cache_is_bounded():
    # the package keeps no cache; the one cache is the reference A-term's
    caches = {f"{mod.__name__}.{name}": obj.cache_parameters()["maxsize"]
              for mod in MODULES for name, obj in vars(mod).items()
              if hasattr(obj, "cache_parameters")}
    assert caches == {"reference._summand": 4096}


def test_a_codebooks_pass_lives_and_dies_with_it():
    # the pass is kept on its PointSet, unseen by equality, hash and repr,
    # and nothing else holds a point of a codebook that is gone
    ps = closedform.build_alpha(12)
    codebook, point = weakref.ref(ps), ps.points[0]
    held = sys.getrefcount(point)
    assert oracle.exact_distortion(12, ps) == closedform.quantization_error(12)
    assert sys.getrefcount(point) == held
    fresh = closedform.build_alpha(12)
    assert (ps, hash(ps), repr(ps)) == (fresh, hash(fresh), repr(fresh))
    del ps, fresh
    assert codebook() is None
    assert sys.getrefcount(point) == held - 1


def test_returned_masses_do_not_alias_the_pass():
    ps = closedform.build_alpha(12)
    masses = oracle.cell_measures(12, ps)
    expected = list(masses)
    masses[0] = Fraction(7)
    masses.append(Fraction(1))
    assert oracle.cell_measures(12, ps) == expected
    assert oracle.exact_distortion(12, ps) == closedform.quantization_error(12)


def test_the_cli_keeps_no_point_text_after_a_call(capsys):
    # optimal-set formats each distinct point once, in a lookup of its own call
    before = dict(vars(cli))
    for fmt in ("json", "csv"):
        assert cli.main(["optimal-set", "--n", "6", "--split-set", "all",
                         "--format", fmt]) == 0
    assert "11/27,31/54" in capsys.readouterr().out
    assert vars(cli) == before
