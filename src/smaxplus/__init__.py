"""Signed (symmetrized) max-plus arithmetic and the geometry built on it:
tripod metrics, geodesic and semimodule segments, interval-union set
representations with convexity predicates, and metric projections.

The package runs on the standard library alone.  The brute-force grid
oracle that checks it is a test-only reference, ``tests/grid_oracle.py``,
which imports nothing from here but the data classes.

Importing the package loads none of its modules: each exported name is
imported from its home module on first access (PEP 562), so a program, the
CLI included, loads only the modules it uses.

``pairs``, ``connectivity`` and ``boxmax`` hold code that most CLI calls
never run, kept apart so that those calls do not compile it.  Each is a
package directory with one ``__init__.py`` rather than a file beside the
others: the traced benchmark run (``perfbench/layers.py``) groups profiled
time by the module files directly in this directory, under a fixed list of
layer names, and stops at a file name it does not know."""

from importlib import import_module

__version__ = "0.1.0"

# every exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", """EPS SElem Sign UNIT ZERO ext_oplus ext_otimes ext_power parts s_abs s_minus
            s_oplus s_otimes s_power scalar_mul"""),
        ("boxmax", "project_box_max"),
        ("connectivity", "component_count components isolated_points"),
        ("exprs", "ExprError eval_expr"),
        ("metrics", """D1 D2 MagnitudeRangeWarning MetricId SVector THETA d1 d2 magnitude
            parse_metric_id phi phi_n rho"""),
        ("pairs", """Pair balance_rel classify equiv_rel lift pair_balance pair_minus pair_norm
            pair_oplus pair_otimes"""),
        ("projection", """ProjectionResult distance_to_set find_multipoint_witness project_box
            project_ray project_segment_set"""),
        ("raysets", """BoxSet RaySet is_box_semimodule_convex is_chebyshev is_connected
            is_geometrically_convex is_semimodule_convex is_traditionally_convex point_on_ray
            ray_components"""),
        ("segments", """ArcPiece BrokenLine ChartError PointPiece SegmentSet as_segment_set
            chart_for d_segment_contains geometric_segment psi psi_inverse semimodule_segment
            traditional_segment vec_oplus vec_scale"""),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _EXPORTS.values():
        # a submodule: importing it binds it in this namespace
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
