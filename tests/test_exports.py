import importlib
import pkgutil

import pytest

import tnexp

MODULES = ["tnexp"] + [f"tnexp.{m.name}" for m in pkgutil.iter_modules(tnexp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# The public surface, sorted.  A name joins it only by editing this list,
# so a route that only the tests read is not re-exported unnoticed.
PUBLIC = [
    "BoundValue", "CoverCounter", "ExponentReport", "IpModel", "NetworkSpec", "PRIME",
    "Permutation", "SampledTensor", "SearchResult", "Tree", "__version__",
    "build_cover_table", "build_ht", "build_ip", "build_tt", "check_trivial_containment",
    "compose_exponents", "cover_exponent", "empirical_exponent", "enumerate_plane_trees",
    "enumerate_shapes", "export_lp", "flattening_rank", "height_bound_tt", "heights",
    "leaves_of_mask", "mask_from_leaves", "mat_rank", "parse_tree", "plane_general_bound",
    "poset_bound", "poset_table", "rank_profile", "run_search", "sample_tensor", "solve_ip",
    "trivial_bound", "verify_against_reference", "write_results",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(tnexp.__all__) == PUBLIC
    assert len(set(tnexp.__all__)) == len(tnexp.__all__)
