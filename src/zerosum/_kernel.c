/* Compiled search kernel for groups of order <= 64.
 *
 * Implements the traversal contract of zerosum._pykernel exactly: the same
 * DFS order, pruning, budgets and node accounting, so every result (node
 * counts included) is identical across lanes.  Bitsets are single 64-bit
 * words, with bit i standing for element index i.
 *
 * translate(mask, e) = { r*e : r in mask } is applied byte by byte through
 * per-element tables.  One extra table row maps a set to the set of its
 * inverses, which turns the feasibility test "inv(f) not reachable" into a
 * single word operation.
 *
 * The sub-multiset DP (non-abelian search lane and stand-alone reachability)
 * keeps its table in a dense array indexed in mixed radix: digit j is the
 * count of the j-th distinct element, with stride prod_{i<j} (c_i + 1).
 * Canonical paths append elements in non-decreasing order, so only the last
 * digit ever grows; appending a copy of e adds one block of states at the
 * end of the array, and undoing it truncates the array again.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_ORDER 64
#define DEFAULT_STATE_CAP 100000000LL
#define CONTEXT_NAME "zerosum._kernel.Context"

/* zerosum._pykernel.LimitExceeded: both lanes raise the same class. */
static PyObject *LimitExceeded;

/* ------------------------------------------------------------------------
 * Context: translate tables for one group
 * ------------------------------------------------------------------------ */

typedef struct {
    int n;
    int identity;
    int abelian;
    int chunks;                 /* bytes per bitset: (n + 7) / 8 */
    uint64_t full;              /* bits 0 .. n-1 */
    /* (n + 1) rows of chunks * 256 words: row e < n translates by e,
     * row n maps a set to the set of its inverses. */
    uint64_t tables[];
} Context;

static inline uint64_t
apply_row(const Context *c, uint64_t mask, int row)
{
    const uint64_t *t = c->tables + (size_t)row * c->chunks * 256;
    uint64_t out = 0;
    for (int pos = 0; pos < c->chunks; pos++, t += 256, mask >>= 8)
        out |= t[mask & 0xFF];
    return out;
}

#define translate(c, mask, e) apply_row((c), (mask), (e))
#define inverses(c, mask) apply_row((c), (mask), (c)->n)

static void
context_free(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, CONTEXT_NAME));
}

static const Context *
get_context(PyObject *obj)
{
    return (const Context *)PyCapsule_GetPointer(obj, CONTEXT_NAME);
}

/* Read a sequence of `len` ints, each in [0, bound), into out[]. */
static int
read_indices(PyObject *seq, Py_ssize_t len, int bound, int *out,
             const char *what)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != len) {
        PyErr_Format(PyExc_ValueError, "%s must have %zd entries", what, len);
        Py_DECREF(fast);
        return -1;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (v < 0 || v >= bound) {
            PyErr_Format(PyExc_ValueError, "%s entry %ld out of range", what, v);
            Py_DECREF(fast);
            return -1;
        }
        out[i] = (int)v;
    }
    Py_DECREF(fast);
    return 0;
}

static PyObject *
build_context(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "mul_flat", "inv", "identity", "abelian", NULL};
    int n, identity, abelian;
    PyObject *mul_obj, *inv_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOip:build_context", kwlist,
                                     &n, &mul_obj, &inv_obj, &identity, &abelian))
        return NULL;
    if (n < 1 || n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError,
                     "compiled kernel supports orders 1..%d, got %d", MAX_ORDER, n);
        return NULL;
    }
    if (identity < 0 || identity >= n) {
        PyErr_SetString(PyExc_ValueError, "identity index out of range");
        return NULL;
    }
    int mul[MAX_ORDER * MAX_ORDER], inv[MAX_ORDER];
    if (read_indices(mul_obj, (Py_ssize_t)n * n, n, mul, "mul_flat") < 0
            || read_indices(inv_obj, n, n, inv, "inv") < 0)
        return NULL;

    int chunks = (n + 7) / 8;
    size_t row_words = (size_t)chunks * 256;
    Context *c = PyMem_Malloc(sizeof(Context) + (n + 1) * row_words * sizeof(uint64_t));
    if (c == NULL)
        return PyErr_NoMemory();
    c->n = n;
    c->identity = identity;
    c->abelian = abelian;
    c->chunks = chunks;
    c->full = n == 64 ? ~0ULL : (1ULL << n) - 1;
    for (int row = 0; row <= n; row++) {
        uint64_t *t = c->tables + row * row_words;
        for (int pos = 0; pos < chunks; pos++, t += 256) {
            t[0] = 0;
            for (int v = 1; v < 256; v++) {
                int low = v & -v;
                int r = pos * 8 + __builtin_ctz(low);
                uint64_t img = 0;
                if (r < n)
                    img = 1ULL << (row < n ? mul[r * n + row] : inv[r]);
                t[v] = t[v ^ low] | img;
            }
        }
    }
    PyObject *capsule = PyCapsule_New(c, CONTEXT_NAME, context_free);
    if (capsule == NULL)
        PyMem_Free(c);
    return capsule;
}

/* ------------------------------------------------------------------------
 * Dense sub-multiset DP table of the current search path
 * ------------------------------------------------------------------------ */

typedef struct {
    uint64_t *vals;             /* product set of each sub-multiset */
    long long size, cap;        /* live states, allocated states */
    long long state_cap;
    int spt;                    /* distinct elements on the path */
    int support[MAX_ORDER];
    int counts[MAX_ORDER];
    long long stride[MAX_ORDER];
} Table;

/* Back to the empty path, whose only state (the empty product) is {1}. */
static void
table_reset(Table *t, int identity)
{
    t->size = 1;
    t->spt = 0;
    t->vals[0] = 1ULL << identity;
}

static int
table_init(Table *t, long long state_cap, int identity)
{
    t->cap = 1024;
    t->state_cap = state_cap;
    t->vals = PyMem_New(uint64_t, t->cap);
    if (t->vals == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    table_reset(t, identity);
    return 0;
}

/* Add one copy of e (>= every support element).  The new states are those
 * whose last digit is the new count; *gain is the union of their product
 * sets.  Each is the union over its nonzero digits j of
 * translate(parent with digit j lowered, support[j]); parents with the same
 * last digit lie earlier in the new block, so one forward pass fills it. */
static int
table_append(Table *t, const Context *c, int e, uint64_t *gain)
{
    int pos = t->spt - 1;
    if (pos < 0 || t->support[pos] != e) {
        pos = t->spt++;
        t->support[pos] = e;
        t->counts[pos] = 0;
        t->stride[pos] = t->size;
    }
    long long block = t->stride[pos], base = t->size;
    if (base + block > t->state_cap) {
        PyErr_Format(LimitExceeded, "search DP exceeds the state cap %lld",
                     t->state_cap);
        return -1;
    }
    if (base + block > t->cap) {
        long long cap = t->cap;
        while (cap < base + block)
            cap *= 2;
        uint64_t *vals = t->vals;
        if (PyMem_Resize(vals, uint64_t, cap) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        t->vals = vals;
        t->cap = cap;
    }
    t->counts[pos]++;

    uint64_t *v = t->vals, g = 0;
    int dig[MAX_ORDER] = {0};
    for (long long idx = base; idx < base + block; idx++) {
        uint64_t m = translate(c, v[idx - block], e);
        for (int j = 0; j < pos; j++)
            if (dig[j])
                m |= translate(c, v[idx - t->stride[j]], t->support[j]);
        v[idx] = m;
        g |= m;
        for (int j = 0; j < pos; j++) {
            if (++dig[j] <= t->counts[j])
                break;
            dig[j] = 0;
        }
    }
    t->size = base + block;
    *gain = g;
    return 0;
}

/* Remove the copy added by the last table_append. */
static void
table_undo(Table *t)
{
    int pos = t->spt - 1;
    t->size -= t->stride[pos];
    if (--t->counts[pos] == 0)
        t->spt--;
}

/* ------------------------------------------------------------------------
 * Canonical DFS (max-length search / fixed-length enumeration)
 * ------------------------------------------------------------------------ */

enum { VISIT_OK = 0, VISIT_ABORT = 1, VISIT_ERROR = -1 };

typedef struct {
    const Context *ctx;
    int enumerate;              /* 0: max-length search, 1: enumeration */
    int target;
    long long budget;
    long long nodes;            /* nodes of the current root */
    int root_best;
    int path[MAX_ORDER];
    int witness[MAX_ORDER];
    PyObject *found;
    Table dp;                   /* non-abelian lane only */
} Search;

static PyObject *
int_tuple(const int *v, int len)
{
    PyObject *t = PyTuple_New(len);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < len; i++) {
        PyObject *x = PyLong_FromLong(v[i]);
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* A free multiset of a group of order n has fewer than n elements, because
 * every append strictly grows its reachable set, which never holds 1. */
static int
check_depth(int length)
{
    if (length < MAX_ORDER)
        return 0;
    PyErr_SetString(PyExc_ValueError,
                    "path longer than the group order: the table is not a group");
    return -1;
}

/* e already passed the feasibility test: e != 1 and inv(e) not in reach. */
static int
visit(Search *s, int e, uint64_t reach, int length)
{
    const Context *c = s->ctx;
    if (++s->nodes > s->budget)
        return VISIT_ABORT;
    if (check_depth(length) < 0)
        return VISIT_ERROR;
    int newlen = length + 1;
    s->path[length] = e;
    if (s->enumerate && newlen == s->target) {
        PyObject *t = int_tuple(s->path, newlen);
        if (t == NULL || PyList_Append(s->found, t) < 0) {
            Py_XDECREF(t);
            return VISIT_ERROR;
        }
        Py_DECREF(t);
        return VISIT_OK;
    }
    uint64_t child;
    if (c->abelian) {
        child = reach | translate(c, reach, e) | (1ULL << e);
    } else {
        uint64_t gain;
        if (table_append(&s->dp, c, e, &gain) < 0)
            return VISIT_ERROR;
        child = reach | gain;
    }
    int potential = newlen + (c->n - 1 - __builtin_popcountll(child));
    int descend;
    if (!s->enumerate) {
        if (newlen > s->root_best) {
            s->root_best = newlen;
            memcpy(s->witness, s->path, newlen * sizeof(int));
        }
        descend = potential > s->root_best;
    } else {
        descend = potential >= s->target;
    }
    int rc = VISIT_OK;
    if (descend) {
        /* f >= e whose inverse is not reachable, in increasing order */
        uint64_t cand = ~inverses(c, child) & c->full & (~0ULL << e);
        while (cand && rc == VISIT_OK) {
            int f = __builtin_ctzll(cand);
            cand &= cand - 1;
            rc = visit(s, f, child, newlen);
        }
    }
    if (!c->abelian)
        table_undo(&s->dp);
    return rc;
}

/* Canonical DFS, one branch per root (first element) 1 .. n-1.  Each root
 * has its own node budget and prunes against max(floor_len, its own best),
 * never against other roots, so each root's node count and budget use depend
 * on that root alone. */
static PyObject *
search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ctx", "mode", "target", "floor_len", "budget",
                             "state_cap", NULL};
    PyObject *ctx_obj, *budget_obj;
    const char *mode;
    int target, floor_len;
    long long state_cap = DEFAULT_STATE_CAP;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OsiiO|L:search", kwlist,
                                     &ctx_obj, &mode, &target, &floor_len,
                                     &budget_obj, &state_cap))
        return NULL;
    const Context *c = get_context(ctx_obj);
    if (c == NULL)
        return NULL;
    int overflow;
    long long budget = PyLong_AsLongLongAndOverflow(budget_obj, &overflow);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;

    Search s = {.ctx = c, .enumerate = strcmp(mode, "max") != 0,
                .target = target, .budget = budget};
    if (!c->abelian && table_init(&s.dp, state_cap, c->identity) < 0)
        return NULL;
    s.found = PyList_New(0);
    int complete = 1, best_len = floor_len;
    long long total_nodes = 0;
    PyObject *witness = Py_NewRef(Py_None), *result = NULL;
    if (s.found == NULL)
        goto done;

    for (int root = 1; root < c->n; root++) {
        s.nodes = 0;
        s.root_best = floor_len;
        if (!c->abelian)
            table_reset(&s.dp, c->identity);
        int rc = visit(&s, root, 0, 0);
        if (rc == VISIT_ERROR)
            goto done;
        if (rc == VISIT_ABORT)
            complete = 0;
        total_nodes += s.nodes;
        /* root_best above floor_len means a witness was recorded */
        if (s.root_best > best_len) {
            best_len = s.root_best;
            Py_SETREF(witness, int_tuple(s.witness, best_len));
            if (witness == NULL)
                goto done;
        }
    }
    result = Py_BuildValue("{s:O,s:i,s:O,s:O,s:L}", "complete",
                           complete ? Py_True : Py_False, "best_len", best_len,
                           "witness", witness, "found", s.found,
                           "nodes", total_nodes);
done:
    Py_XDECREF(witness);
    Py_XDECREF(s.found);
    if (!c->abelian)
        PyMem_Free(s.dp.vals);
    return result;
}

/* Leftmost canonical descent: always append the least feasible element.
 * Returns (length, witness tuple, nodes); see the pure lane. */
static PyObject *
greedy(PyObject *self, PyObject *ctx_obj)
{
    const Context *c = get_context(ctx_obj);
    if (c == NULL)
        return NULL;
    Table dp;
    if (!c->abelian && table_init(&dp, DEFAULT_STATE_CAP, c->identity) < 0)
        return NULL;
    int path[MAX_ORDER], len = 0, start = 1;
    uint64_t reach = 0;
    PyObject *result = NULL;
    for (;;) {
        uint64_t cand = ~inverses(c, reach) & c->full & (~0ULL << start);
        if (cand == 0)
            break;
        int e = __builtin_ctzll(cand);
        if (check_depth(len) < 0)
            goto done;
        if (c->abelian) {
            reach |= translate(c, reach, e) | (1ULL << e);
        } else {
            uint64_t gain;
            if (table_append(&dp, c, e, &gain) < 0)
                goto done;
            reach |= gain;
        }
        path[len++] = e;
        start = e;
    }
    PyObject *witness = int_tuple(path, len);
    if (witness != NULL)
        result = Py_BuildValue("iNi", len, witness, len);
done:
    if (!c->abelian)
        PyMem_Free(dp.vals);
    return result;
}

/* ------------------------------------------------------------------------
 * Stand-alone reachability: layered DP over sub-multiset count vectors
 * ------------------------------------------------------------------------ */

typedef struct {
    const Context *ctx;
    int k;
    int elems[MAX_ORDER];
    int counts[MAX_ORDER];
    long long room[MAX_ORDER];  /* counts[0] + ... + counts[j] */
    long long stride[MAX_ORDER];
    int dig[MAX_ORDER];
    uint64_t *vals;
    uint64_t until, result;
} Reach;

/* Fill every state of one layer whose digits above j are already set:
 * digit j takes each value that leaves the digits below it able to hold
 * the remaining `left`.  Returns 1 at the first state meeting `until`. */
static int
fill_layer(Reach *r, int j, long long left, long long idx)
{
    if (j < 0) {
        uint64_t m = 0;
        for (int i = 0; i < r->k; i++)
            if (r->dig[i])
                m |= translate(r->ctx, r->vals[idx - r->stride[i]], r->elems[i]);
        r->vals[idx] = m;
        r->result |= m;
        return (m & r->until) != 0;
    }
    long long below = j > 0 ? r->room[j - 1] : 0;
    for (int d = left > below ? (int)(left - below) : 0; d <= r->counts[j] && d <= left; d++) {
        r->dig[j] = d;
        if (fill_layer(r, j - 1, left - d, idx + d * r->stride[j]))
            return 1;
    }
    return 0;
}

static PyObject *
reachable(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ctx", "elems", "counts", "until_mask",
                             "state_cap", NULL};
    PyObject *ctx_obj, *elems_obj, *counts_obj, *until_obj = NULL;
    long long state_cap = DEFAULT_STATE_CAP;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|OL:reachable", kwlist,
                                     &ctx_obj, &elems_obj, &counts_obj,
                                     &until_obj, &state_cap))
        return NULL;
    Reach r = {.ctx = get_context(ctx_obj)};
    if (r.ctx == NULL)
        return NULL;
    if (until_obj != NULL) {
        r.until = PyLong_AsUnsignedLongLong(until_obj);
        if (r.until == (uint64_t)-1 && PyErr_Occurred())
            return NULL;
    }
    Py_ssize_t k = PySequence_Size(elems_obj);
    if (k < 0)
        return NULL;
    if (k > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError, "at most %d distinct elements", MAX_ORDER);
        return NULL;
    }
    r.k = (int)k;
    if (read_indices(elems_obj, k, r.ctx->n, r.elems, "elems") < 0
            || read_indices(counts_obj, k, INT_MAX, r.counts, "counts") < 0)
        return NULL;

    /* The full table holds prod (c_j + 1) states; refuse it up front. */
    long long states = 1, total = 0;
    for (int j = 0; j < r.k; j++) {
        r.stride[j] = states;
        if (states > state_cap / (r.counts[j] + 1)) {
            PyErr_Format(LimitExceeded,
                         "reachability DP exceeds the state cap %lld", state_cap);
            return NULL;
        }
        states *= r.counts[j] + 1;
        total += r.counts[j];
        r.room[j] = total;
    }
    r.vals = PyMem_New(uint64_t, states);
    if (r.vals == NULL)
        return PyErr_NoMemory();
    r.vals[0] = 1ULL << r.ctx->identity;
    int hit = 0;
    for (long long layer = 1; layer <= total && !hit; layer++)
        hit = fill_layer(&r, r.k - 1, layer, 0);
    PyMem_Free(r.vals);
    return Py_BuildValue("NO", PyLong_FromUnsignedLongLong(r.result),
                         hit ? Py_True : Py_False);
}

/* ------------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"build_context", (PyCFunction)(void (*)(void))build_context,
     METH_VARARGS | METH_KEYWORDS,
     "build_context(n, mul_flat, inv, identity, abelian)\n--\n\n"
     "Translate tables for one group of order <= 64."},
    {"greedy", greedy, METH_O,
     "greedy(ctx)\n--\n\n"
     "Leftmost canonical descent; returns (length, witness, nodes)."},
    {"search", (PyCFunction)(void (*)(void))search, METH_VARARGS | METH_KEYWORDS,
     "search(ctx, mode, target, floor_len, budget, state_cap=100000000)\n--\n\n"
     "Canonical DFS, one branch per root 1 .. n-1; same contract as the pure\n"
     "lane."},
    {"reachable", (PyCFunction)(void (*)(void))reachable,
     METH_VARARGS | METH_KEYWORDS,
     "reachable(ctx, elems, counts, until_mask=0, state_cap=100000000)\n--\n\n"
     "Products of nonempty sub-multisets as (mask, hit).  A state space\n"
     "above state_cap is refused up front with LimitExceeded."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "zerosum._kernel",
    .m_doc = "Compiled search kernel for groups of order <= 64; mirrors "
             "zerosum._pykernel.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *pure = PyImport_ImportModule("zerosum._pykernel");
    if (pure == NULL)
        return NULL;
    LimitExceeded = PyObject_GetAttrString(pure, "LimitExceeded");
    Py_DECREF(pure);
    if (LimitExceeded == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "LANE", "compiled") < 0
            || PyModule_AddIntConstant(m, "MAX_ORDER", MAX_ORDER) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
