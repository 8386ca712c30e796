"""Outside-in span tracer for the halab package.

`Tracer.install()` wraps, at run time, every public function and method of
every `halab` module (plus the multiplication dunders of its classes), and
rebinds each wrapped function in every `halab` module that imported it by
name.  `Tracer.uninstall()` puts every original object back and checks
that no wrapper is left anywhere.  Nothing under `src/` is edited.

Each call of a wrapped function records one span: name, layer (the module
that defines the function), start, end, parent span and item id.  Spans
are kept in flat arrays until the run ends.  Some names also record a few
numbers about their arguments or result (matrix product cells, relation
counts); computing those is itself recorded as a `trace.hook` span, so it
is charged to the tracer and not to the caller.

`Tracer.summary(first, last)` turns the spans of one pass into the
per-layer metrics listed in `bench/README.md`.
"""

import importlib
import pkgutil
import time
from array import array

import halab

# Dunder methods that do real arithmetic; all other dunders are skipped.
ARITH_DUNDERS = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__")

LAYERS = ("fields", "linalg", "algebra", "bimod", "hopfalgebroid",
          "reports", "galois", "zoo", "torus", "cli", "trace")

ELIM = ("linalg.rref", "linalg.rank", "linalg.kernel", "linalg.image",
        "linalg.solve_affine", "linalg.solve_affine_sparse",
        "linalg.inverse", "linalg.is_invertible",
        "linalg.Subspace.from_spanning")

# Metric groups: name -> (kind, member span names or a predicate).
# "self" groups report the self time of their spans (wrapped callees of
# any layer excluded); "incl" groups report the wall time of their
# outermost spans.  Calls and cells count outermost spans only.
GROUPS = (
    ("fields.cyc_mul", "self", ("fields.Cyc.__mul__",)),
    ("fields.zeta", "self", ("fields.CyclotomicField.zeta",)),
    ("fields.cyc_inverse", "self", ("fields.Cyc.inverse",)),
    ("linalg.matmul", "self", ("linalg.Mat.__mul__",)),
    ("linalg.kron", "self", ("linalg.kron",)),
    ("linalg.matvec", "self", ("linalg.Mat.matvec",)),
    ("linalg.elim", "incl", ELIM),
    ("linalg.quotient", "incl", ("linalg.quotient_by",)),
    ("bimod.triple_tensor", "incl", ("bimod.triple_tensor",)),
    ("bimod.tensor_square", "incl", ("bimod.right_tensor_square",
                                     "bimod.left_tensor_square",
                                     "bimod.tensor_over")),
    ("bimod.takeuchi", "incl", ("bimod.takeuchi_right",
                                "bimod.takeuchi_left",
                                "bimod.check_takeuchi_closure")),
    ("algebra.mul_vec", "self", ("algebra.FDAlgebra.mul_vec",)),
    ("algebra.validate", "incl", ("algebra.validate_algebra",)),
    ("algebra.structure", "incl", ("algebra.center",
                                   "algebra.jacobson_radical",
                                   "algebra.wedderburn_shape",
                                   "algebra.central_idempotents_split",
                                   "algebra.is_projective")),
    ("reports.require", "self", ("reports.ViolationReport.require",)),
    ("reports.add", "self", ("reports.ViolationReport.add",)),
    ("torus.qt_mul", "self", ("torus.qt_mul",)),
    ("torus.chi_product", "incl", ("torus.chi_product",)),
    ("torus.galois_matrix", "incl", ("torus.torus_galois_matrix",)),
    ("cli.main", "incl", ("cli.main",)),
    ("cli.parse", "incl", lambda name: name.endswith("from_json")),
    ("hopfalgebroid.check", "incl",
     lambda name: name.startswith("hopfalgebroid.check_")),
    ("galois.check", "incl",
     lambda name: name.startswith(("galois.check_", "galois.validate_"))),
    ("zoo.build", "incl", lambda name: name.startswith("zoo.")),
)

# The per-layer metrics, in the order they are printed, with units.
METRICS = (
    ("fields.cyc_mul_calls", "count"), ("fields.cyc_mul_s", "s"),
    ("fields.zeta_calls", "count"), ("fields.zeta_s", "s"),
    ("fields.cyc_inverse_calls", "count"), ("fields.self_s", "s"),
    ("linalg.matmul_calls", "count"), ("linalg.matmul_s", "s"),
    ("linalg.matmul_cells", "count"), ("linalg.matmul_out_density", "ratio"),
    ("linalg.kron_calls", "count"), ("linalg.kron_s", "s"),
    ("linalg.matvec_calls", "count"), ("linalg.matvec_s", "s"),
    ("linalg.elim_calls", "count"), ("linalg.elim_s", "s"),
    ("linalg.elim_cells", "count"),
    ("linalg.quotient_calls", "count"), ("linalg.quotient_s", "s"),
    ("linalg.quotient_relations_in", "count"),
    ("linalg.quotient_rank_ratio", "ratio"),
    ("linalg.quotient_dim_sum", "count"), ("linalg.self_s", "s"),
    ("bimod.triple_tensor_calls", "count"), ("bimod.triple_tensor_s", "s"),
    ("bimod.tensor_square_s", "s"), ("bimod.takeuchi_s", "s"),
    ("bimod.self_s", "s"),
    ("algebra.mul_vec_calls", "count"), ("algebra.mul_vec_s", "s"),
    ("algebra.validate_s", "s"), ("algebra.structure_s", "s"),
    ("algebra.self_s", "s"),
    ("hopfalgebroid.check_s", "s"), ("hopfalgebroid.self_s", "s"),
    ("reports.axiom_instances", "count"), ("reports.violations", "count"),
    ("reports.self_s", "s"),
    ("galois.check_s", "s"), ("galois.self_s", "s"),
    ("zoo.build_s", "s"), ("zoo.self_s", "s"),
    ("torus.qt_mul_calls", "count"), ("torus.qt_mul_s", "s"),
    ("torus.chi_product_s", "s"), ("torus.galois_matrix_s", "s"),
    ("torus.self_s", "s"),
    ("cli.main_s", "s"), ("cli.parse_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
    ("trace.hook_s", "s"), ("trace.residue_s", "s"),
)

# Metrics that must repeat exactly between two traced passes.
COUNT_METRICS = tuple(
    name for name, unit in METRICS
    if unit == "count"
    or (name.startswith(("linalg.quotient_", "linalg.matmul_out"))
        and not name.endswith("_s")))


def halab_modules():
    """Import and return every module of the halab package."""
    mods = []
    for info in sorted(pkgutil.iter_modules(halab.__path__),
                       key=lambda i: i.name):
        mods.append(importlib.import_module("halab." + info.name))
    return mods


def _is_traced(name):
    return not name.startswith("_") or name in ARITH_DUNDERS


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(seq):
    # a generator argument is consumed by the call; count it as empty
    return len(seq) if hasattr(seq, "__len__") else 0


def _matmul_hook(args, kwargs, result):
    A, B = args[0], args[1]
    if result is NotImplemented:
        return None
    nnz = 0
    for row in result.data:
        nnz += sum(map(bool, row))
    return (A.rows * A.cols * B.cols, nnz, result.rows * result.cols)


def _mat_cells(args, kwargs, result):
    M = _arg(args, kwargs, 0, "M")
    return (M.rows * M.cols,)


def _solve_cells(args, kwargs, result):
    M = _arg(args, kwargs, 0, "constraint")
    return (M.rows * (M.cols + 1),)


def _sparse_cells(args, kwargs, result):
    rows = _arg(args, kwargs, 0, "constraint_rows")
    return (_size(rows) * (_arg(args, kwargs, 2, "ncols") + 1),)


def _spanning_cells(args, kwargs, result):
    # wrapped classmethod: args are (cls, ambient_dim, vectors, ...)
    vectors = _arg(args, kwargs, 2, "vectors")
    return (_size(vectors) * _arg(args, kwargs, 1, "ambient_dim"),)


def _quotient_hook(args, kwargs, result):
    rels = _arg(args, kwargs, 1, "relation_vectors")
    return (_size(rels), result.relations.dim, result.dim)


HOOKS = {
    "linalg.Mat.__mul__": _matmul_hook,
    "linalg.rref": _mat_cells, "linalg.rank": _mat_cells,
    "linalg.kernel": _mat_cells, "linalg.image": _mat_cells,
    "linalg.inverse": _mat_cells, "linalg.is_invertible": _mat_cells,
    "linalg.solve_affine": _solve_cells,
    "linalg.solve_affine_sparse": _sparse_cells,
    "linalg.Subspace.from_spanning": _spanning_cells,
    "linalg.quotient_by": _quotient_hook,
}


class Tracer:
    def __init__(self):
        self.names = []           # span name id -> "layer.qualname"
        self.item = -1            # item id stamped on new spans
        self.sp_name = array("i")
        self.sp_parent = array("q")
        self.sp_item = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.extra = {}           # span id -> tuple from a hook
        self._stack = [-1]
        self._saved = []          # (owner, attribute, original object)
        self._hook_id = self._name_id("trace.hook")

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        hook_id = self._hook_id
        stack = self._stack
        sp_name, sp_parent, sp_item = self.sp_name, self.sp_parent, self.sp_item
        sp_start, sp_end = self.sp_start, self.sp_end
        extra = self.extra
        clock = time.perf_counter
        tracer = self

        def open_span(nid):
            sid = len(sp_start)
            sp_name.append(nid)
            sp_parent.append(stack[-1])
            sp_item.append(tracer.item)
            sp_start.append(0.0)
            sp_end.append(0.0)
            return sid

        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                sp_start[sid] = t0
                sp_end[sid] = t1
            if hook is not None:
                hid = open_span(hook_id)
                h0 = clock()
                extra[sid] = hook(args, kwargs, result)
                sp_start[hid] = h0
                sp_end[hid] = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.halab_bench_trace = True
        return wrapper

    def install(self):
        """Wrap every traced function of every halab module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = halab_modules()
        by_id = {}                # id(original function) -> wrapper
        for mod in mods:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, by_id)
                elif callable(obj) and getattr(obj, "__module__", None) \
                        == mod.__name__ and _is_traced(attr) \
                        and hasattr(obj, "__code__"):
                    if id(obj) not in by_id:
                        by_id[id(obj)] = self._wrap(
                            obj, layer + "." + obj.__qualname__)
        # rebind every module-level name that refers to a wrapped function,
        # including names imported from another halab module
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = by_id.get(id(obj))
                if w is not None and hasattr(obj, "__code__"):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def _wrap_class(self, cls, layer, by_id):
        for attr, raw in list(vars(cls).items()):
            if not _is_traced(attr) or attr == "__init__":
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                w = by_id.get(id(fn)) or self._wrap(
                    fn, layer + "." + fn.__qualname__)
                by_id[id(fn)] = w
                new = type(raw)(w)
            elif hasattr(raw, "__code__"):
                w = by_id.get(id(raw)) or self._wrap(
                    raw, layer + "." + raw.__qualname__)
                by_id[id(raw)] = w
                new = w
            else:
                continue          # properties, constants, nested classes
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        """Restore every wrapped name; return the names still wrapped
        anywhere in the package afterwards (empty when restored)."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        left = []
        for mod in halab_modules():
            for attr, obj in vars(mod).items():
                if getattr(obj, "halab_bench_trace", False):
                    left.append(mod.__name__ + "." + attr)
                if isinstance(obj, type):
                    for cattr, raw in vars(obj).items():
                        inner = getattr(raw, "__func__", raw)
                        if getattr(inner, "halab_bench_trace", False):
                            left.append("%s.%s.%s" % (mod.__name__,
                                                      obj.__name__, cattr))
        return left

    @property
    def n_wrapped(self):
        return len(self._saved)

    def mark(self):
        return len(self.sp_start)

    # -- metrics -----------------------------------------------------------

    def _group_table(self):
        """Per name id: its layer index and its group index (or -1)."""
        layer_of, group_of = [], []
        for name in self.names:
            layer_of.append(LAYERS.index(name.split(".")[0]))
            g = -1
            for gi, (_, _, members) in enumerate(GROUPS):
                hit = members(name) if callable(members) \
                    else name in members
                if hit:
                    g = gi
                    break
            group_of.append(g)
        return layer_of, group_of

    def summary(self, first, last):
        """Metrics of the spans first..last-1 (one pass, or one build):
        `<group>_calls` and `<group>_s` for every group, the hook values,
        and the self time of every layer."""
        layer_of, group_of = self._group_table()
        n_groups = len(GROUPS)
        g_calls = [0] * n_groups
        g_time = [0.0] * n_groups
        g_extra = [[0, 0, 0] for _ in range(n_groups)]
        layer_self = [0.0] * len(LAYERS)
        sp_name, sp_parent = self.sp_name, self.sp_parent
        sp_start, sp_end = self.sp_start, self.sp_end
        child = {}                # span id -> time covered by its children
        mask = {}                 # span id -> bit set of enclosing groups
        root_time = 0.0
        for sid in range(first, last):
            dur = sp_end[sid] - sp_start[sid]
            parent = sp_parent[sid]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + dur
            else:
                root_time += dur
        for sid in range(first, last):
            nid = sp_name[sid]
            parent = sp_parent[sid]
            dur = sp_end[sid] - sp_start[sid]
            own = dur - child.get(sid, 0.0)
            layer_self[layer_of[nid]] += own
            m = 0
            if parent >= first:
                pg = group_of[sp_name[parent]]
                m = mask[parent] | ((1 << pg) if pg >= 0 else 0)
            mask[sid] = m
            g = group_of[nid]
            if g < 0:
                continue
            kind = GROUPS[g][1]
            if kind == "self":
                g_time[g] += own
            if m & (1 << g):
                continue          # nested inside a call of the same group
            g_calls[g] += 1
            if kind == "incl":
                g_time[g] += dur
            ext = self.extra.get(sid)
            if ext:
                acc = g_extra[g]
                for k, v in enumerate(ext):
                    acc[k] += v
        out = {}
        extra = {}
        for gi, (name, _, _) in enumerate(GROUPS):
            out[name + "_calls"] = g_calls[gi]
            out[name + "_s"] = g_time[gi]
            extra[name] = g_extra[gi]
        cells, nnz, entries = extra["linalg.matmul"]
        out["linalg.matmul_cells"] = cells
        out["linalg.matmul_out_density"] = nnz / entries if entries else 0.0
        out["linalg.elim_cells"] = extra["linalg.elim"][0]
        rels, rank, qdim = extra["linalg.quotient"]
        out["linalg.quotient_relations_in"] = rels
        out["linalg.quotient_rank_ratio"] = rank / rels if rels else 0.0
        out["linalg.quotient_dim_sum"] = qdim
        out["reports.axiom_instances"] = out["reports.require_calls"]
        out["reports.violations"] = out["reports.add_calls"]
        for li, layer in enumerate(LAYERS):
            out[layer + ".self_s"] = layer_self[li]
        out["trace.hook_s"] = out.pop("trace.self_s")
        out["trace.spans"] = last - first
        out["_root_s"] = root_time
        out["_self_sum_s"] = sum(layer_self)
        return out
