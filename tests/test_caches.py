from fractions import Fraction

from cantorq import asymptotics, cli, closedform, constraint, measure, oracle

MODULES = (measure, constraint, closedform, oracle, asymptotics, cli)


def test_every_cache_is_bounded():
    caches = {f"{mod.__name__}.{name}": obj.cache_parameters()["maxsize"]
              for mod in MODULES for name, obj in vars(mod).items()
              if hasattr(obj, "cache_parameters")}
    assert caches  # the walk sees the caches that exist
    assert {name: size for name, size in caches.items() if size is None} == {}


def test_voronoi_slot_holds_one_codebook():
    # the optimal codebooks and the codebooks with evenly spaced feet
    codebooks = [closedform.build_alpha(n) for n in range(1, 33)]
    codebooks += [constraint.PointSet(n, tuple(
        constraint.u_inverse(n, Fraction(2 * i + 1, 2 * n)) for i in range(n)))
        for n in range(1, 33)]
    for ps in codebooks:
        oracle.exact_distortion(ps.n, ps)
        oracle.cell_measures(ps.n, ps)
    n, pts, (_, _, a, r, cells, _) = oracle._last
    assert (n, pts) == (codebooks[-1].n, codebooks[-1].points)
    assert len(a) == len(r) == len(cells) == n


def test_returned_masses_do_not_alias_the_slot():
    ps = closedform.build_alpha(12)
    masses = oracle.cell_measures(12, ps)
    expected = list(masses)
    masses[0] = Fraction(7)
    masses.append(Fraction(1))
    assert oracle.cell_measures(12, ps) == expected
    assert oracle.exact_distortion(12, ps) == closedform.quantization_error(12)
