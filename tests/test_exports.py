import gmfrac
from gmfrac import bruteforce, cones, gauges, hull, linalg, subgrad, support, verify

MODULES = (linalg, cones, support, hull, subgrad, gauges, bruteforce, verify)


def test_package_exports_are_the_modules_exports():
    names = gmfrac.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    assert sum(len(module.__all__) for module in MODULES) == len(names)


def test_each_export_is_the_object_its_module_defines():
    # a tracer that patches gmfrac by object identity relies on this
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(gmfrac, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_reference_constructions_are_not_public():
    # M(V), the projector Q Q^T and the point norms check results in the
    # tests (tests/helpers.py); the library never forms them
    assert "saddle_matrix" not in gmfrac.__all__
    assert not hasattr(gmfrac, "saddle_matrix")
    for name in ("projector", "zero_subspace"):
        assert not hasattr(gmfrac.SubspaceBasis, name)
    for cls in (gmfrac.DualPoint, gmfrac.PrimalPoint):
        for name in ("norm", "scaled"):
            assert not hasattr(cls, name)
