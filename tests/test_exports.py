import gmfrac
from gmfrac import bruteforce, cones, gauges, hull, linalg, subgrad, support

MODULES = (linalg, cones, support, hull, subgrad, gauges, bruteforce)


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
