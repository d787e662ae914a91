/* Compiled search kernel for groups of order <= 4096 (groups.TABLE_LIMIT).
 *
 * Implements the traversal contract of zerosum._pykernel exactly: the same
 * DFS order, pruning, budgets and node accounting, so every result (node
 * counts included) is identical across lanes.  A bitset is an array of
 * words = (n + 63) / 64 64-bit words; element index i is bit i % 64 of
 * word i / 64.
 *
 * translate(mask, e) = { r*e : r in mask }.  With one word (n <= 64) it is
 * applied byte by byte through per-element tables, and one extra table row
 * maps a set to the set of its inverses, which turns the feasibility test
 * "inv(f) not reachable" into word operations.  Byte tables for more words
 * would take (n + 1) * n/8 * 256 * words * 8 bytes (4.3 GB at n = 1024), so
 * larger groups walk the set bits instead, through the transposed product
 * table rmul[e*n + r] = r*e and the inverse table.  The byte tables stay for
 * one word because the bit walk at every order doubles the roster
 * benchmark's run_s (0.23 -> 0.49 s, 2-vCPU Xeon).  The DFS body is written
 * once over the word count and the compiler specializes it for one word.
 *
 * A path is extended one copy at a time (extend).  On abelian groups the
 * reach set of the path is one bitset; otherwise extend runs the
 * sub-multiset DP, whose table is a dense array indexed in mixed radix:
 * digit j is the count of the j-th distinct element, with stride
 * prod_{i<j} (c_i + 1).  Canonical paths append elements in non-decreasing
 * order, so only the last digit ever grows; appending a copy of e adds one
 * block of states at the end of the array, and undoing it truncates the
 * array again.  Each state holds one bitset, so state caps are counted in
 * words: a cap of N admits N / words states.  Stand-alone reachability
 * appends a multiset's copies in increasing element order through the same
 * extend, so each lane has one sub-multiset DP.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_ORDER 4096
#define MAX_WORDS (MAX_ORDER / 64)
#define DEFAULT_STATE_CAP 100000000LL
#define CONTEXT_NAME "zerosum._kernel.Context"
#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* zerosum._pykernel.LimitExceeded: both lanes raise the same class. */
static PyObject *LimitExceeded;

/* ------------------------------------------------------------------------
 * Context: product tables for one group
 * ------------------------------------------------------------------------ */

typedef struct {
    int n;
    int identity;
    int abelian;
    int words;                  /* 64-bit words per bitset: (n + 63) / 64 */
    int chunks;                 /* bytes per one-word bitset: (n + 7) / 8 */
    uint64_t last;              /* the valid bits of the last word */
    const uint16_t *rmul;       /* rmul[e*n + r] = r*e */
    const uint16_t *inv;        /* inv[r] = r^-1 */
    /* words == 1 only: (n + 1) rows of chunks * 256 words; row e < n
     * translates by e, row n maps a set to the set of its inverses. */
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

/* Adds i to a set of W words; with one word, i < 64 and the word index is
 * known to be 0, so a set held in a register stays there. */
ALWAYS_INLINE void
set_bit(uint64_t *s, int i, int W)
{
    s[W == 1 ? 0 : i >> 6] |= 1ULL << (i & 63);
}

/* dst |= translate(src, e); src and dst must not overlap. */
ALWAYS_INLINE void
translate_or(const Context *c, int W, const uint64_t *src, int e, uint64_t *dst)
{
    if (W == 1) {
        dst[0] |= apply_row(c, src[0], e);
        return;
    }
    const uint16_t *row = c->rmul + (size_t)e * c->n;
    for (int w = 0; w < W; w++)
        for (uint64_t m = src[w]; m; m &= m - 1)
            set_bit(dst, row[w * 64 + __builtin_ctzll(m)], W);
}

/* cand = { f >= start : inv(f) not in reach }, the elements f >= start
 * that keep a multiset with this reach set free. */
ALWAYS_INLINE void
feasible(const Context *c, int W, const uint64_t *reach, int start,
         uint64_t *cand)
{
    if (W == 1) {
        cand[0] = ~apply_row(c, reach[0], c->n) & c->last & (~0ULL << start);
        return;
    }
    memset(cand, 0, W * sizeof *cand);
    for (int w = 0; w < W; w++)
        for (uint64_t m = reach[w]; m; m &= m - 1)
            set_bit(cand, c->inv[w * 64 + __builtin_ctzll(m)], W);
    for (int w = 0; w < W; w++)
        cand[w] = w < start >> 6 ? 0 : ~cand[w];
    cand[W - 1] &= c->last;
    cand[start >> 6] &= ~0ULL << (start & 63);
}

ALWAYS_INLINE int
popcount(const uint64_t *s, int W)
{
    int count = 0;
    for (int w = 0; w < W; w++)
        count += __builtin_popcountll(s[w]);
    return count;
}

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

/* Read a buffer of `count` native int16 values, each in [0, n): value i
 * goes to out[(i % n) * n + i / n] when transpose is set, else to out[i]. */
static int
read_int16(const Py_buffer *buf, Py_ssize_t count, int n, int transpose,
           uint16_t *out, const char *what)
{
    if (buf->len != count * (Py_ssize_t)sizeof(int16_t)) {
        PyErr_Format(PyExc_ValueError, "%s must hold %zd int16 entries",
                     what, count);
        return -1;
    }
    const char *p = buf->buf;
    for (Py_ssize_t i = 0; i < count; i++) {
        int16_t v;
        memcpy(&v, p + i * sizeof v, sizeof v);
        if (v < 0 || v >= n) {
            PyErr_Format(PyExc_ValueError, "%s entry %d out of range", what, v);
            return -1;
        }
        out[transpose ? (i % n) * n + i / n : i] = (uint16_t)v;
    }
    return 0;
}

static PyObject *
build_context(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "mul_flat", "inv", "identity", "abelian", NULL};
    int n, identity, abelian;
    Py_buffer mul, inv;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iy*y*ip:build_context",
                                     kwlist, &n, &mul, &inv, &identity, &abelian))
        return NULL;
    PyObject *capsule = NULL;
    Context *c = NULL;
    if (n < 1 || n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError,
                     "compiled kernel supports orders 1..%d, got %d", MAX_ORDER, n);
        goto done;
    }
    if (identity < 0 || identity >= n) {
        PyErr_SetString(PyExc_ValueError, "identity index out of range");
        goto done;
    }
    int words = (n + 63) / 64, chunks = (n + 7) / 8;
    int rows = words == 1 ? n + 1 : 0;      /* byte tables: one word only */
    size_t row_words = (size_t)chunks * 256;
    c = PyMem_Malloc(sizeof(Context) + rows * row_words * sizeof(uint64_t)
                     + ((size_t)n * n + n) * sizeof(uint16_t));
    if (c == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    uint16_t *rmul = (uint16_t *)(c->tables + rows * row_words);
    uint16_t *inverse = rmul + (size_t)n * n;
    c->n = n;
    c->identity = identity;
    c->abelian = abelian;
    c->words = words;
    c->chunks = chunks;
    c->last = n % 64 ? (1ULL << n % 64) - 1 : ~0ULL;
    c->rmul = rmul;
    c->inv = inverse;
    if (read_int16(&mul, (Py_ssize_t)n * n, n, 1, rmul, "mul_flat") < 0
            || read_int16(&inv, n, n, 0, inverse, "inv") < 0)
        goto done;
    for (int row = 0; row < rows; row++) {
        uint64_t *t = c->tables + row * row_words;
        for (int pos = 0; pos < chunks; pos++, t += 256) {
            t[0] = 0;
            for (int v = 1; v < 256; v++) {
                int low = v & -v;
                int r = pos * 8 + __builtin_ctz(low);
                uint64_t img = 0;
                if (r < n)
                    img = 1ULL << (row < n ? rmul[row * n + r] : inverse[r]);
                t[v] = t[v ^ low] | img;
            }
        }
    }
    capsule = PyCapsule_New(c, CONTEXT_NAME, context_free);
done:
    if (capsule == NULL)
        PyMem_Free(c);
    PyBuffer_Release(&mul);
    PyBuffer_Release(&inv);
    return capsule;
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

/* A nonnegative int of at most n bits as a bitset; wider values and
 * negative ones are refused, never truncated. */
static int
read_mask(PyObject *obj, const Context *c, uint64_t *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_SetString(PyExc_TypeError, "until_mask must be an int");
        return -1;
    }
    if (_PyLong_Sign(obj) < 0 || _PyLong_NumBits(obj) > (size_t)c->n) {
        PyErr_Format(PyExc_ValueError,
                     "until_mask must be a bitset of the %d group elements", c->n);
        return -1;
    }
    unsigned char bytes[MAX_WORDS * 8];
    size_t len = (size_t)c->words * 8;
#if PY_VERSION_HEX >= 0x030D0000
    if (_PyLong_AsByteArray((PyLongObject *)obj, bytes, len, 1, 0, 1) < 0)
#else
    if (_PyLong_AsByteArray((PyLongObject *)obj, bytes, len, 1, 0) < 0)
#endif
        return -1;
    for (int w = 0; w < c->words; w++) {
        out[w] = 0;
        for (int b = 7; b >= 0; b--)
            out[w] = out[w] << 8 | bytes[w * 8 + b];
    }
    return 0;
}

static PyObject *
mask_to_int(const uint64_t *s, int W)
{
    unsigned char bytes[MAX_WORDS * 8];
    for (int w = 0; w < W; w++)
        for (int b = 0; b < 8; b++)
            bytes[w * 8 + b] = (unsigned char)(s[w] >> (8 * b));
    return _PyLong_FromByteArray(bytes, (size_t)W * 8, 1, 0);
}

/* ------------------------------------------------------------------------
 * Dense sub-multiset DP table of the current search path
 * ------------------------------------------------------------------------ */

typedef struct {
    uint64_t *vals;             /* product set of each sub-multiset */
    long long size, cap;        /* live states, allocated states */
    long long state_cap;        /* in words */
    long long max_states;       /* state_cap / words */
    int spt;                    /* distinct elements on the path */
    int support[MAX_ORDER];
    int counts[MAX_ORDER];
    int dig[MAX_ORDER];
    long long stride[MAX_ORDER];
} Table;

/* Back to the empty path, whose only state (the empty product) is {1}. */
static void
table_reset(Table *t, const Context *c)
{
    t->size = 1;
    t->spt = 0;
    memset(t->vals, 0, c->words * sizeof *t->vals);
    set_bit(t->vals, c->identity, c->words);
}

static int
table_init(Table *t, const Context *c, long long state_cap)
{
    t->cap = 1024;
    t->state_cap = state_cap;
    t->max_states = state_cap / c->words;
    t->vals = PyMem_New(uint64_t, t->cap * c->words);
    if (t->vals == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    table_reset(t, c);
    return 0;
}

/* Add one copy of e (>= every support element).  The new states are those
 * whose last digit is the new count; gain becomes the union of their
 * product sets.  Each is the union over its nonzero digits j of
 * translate(parent with digit j lowered, support[j]); parents with the same
 * last digit lie earlier in the new block, so one forward pass fills it. */
ALWAYS_INLINE int
table_append(Table *t, const Context *c, int e, uint64_t *gain, int W)
{
    int pos = t->spt - 1;
    if (pos < 0 || t->support[pos] != e) {
        pos = t->spt++;
        t->support[pos] = e;
        t->counts[pos] = 0;
        t->stride[pos] = t->size;
    }
    long long block = t->stride[pos], base = t->size;
    if (base + block > t->max_states) {
        PyErr_Format(LimitExceeded, "search DP exceeds the state cap %lld",
                     t->state_cap);
        return -1;
    }
    if (base + block > t->cap) {
        long long cap = t->cap;
        while (cap < base + block)
            cap *= 2;
        uint64_t *vals = t->vals;
        if (PyMem_Resize(vals, uint64_t, cap * W) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        t->vals = vals;
        t->cap = cap;
    }
    t->counts[pos]++;

    uint64_t *v = t->vals;
    int *dig = t->dig;
    memset(dig, 0, pos * sizeof *dig);
    memset(gain, 0, W * sizeof *gain);
    for (long long idx = base; idx < base + block; idx++) {
        uint64_t *m = v + idx * W;
        memset(m, 0, W * sizeof *m);
        translate_or(c, W, v + (idx - block) * W, e, m);
        for (int j = 0; j < pos; j++)
            if (dig[j])
                translate_or(c, W, v + (idx - t->stride[j]) * W, t->support[j], m);
        for (int w = 0; w < W; w++)
            gain[w] |= m[w];
        for (int j = 0; j < pos; j++) {
            if (++dig[j] <= t->counts[j])
                break;
            dig[j] = 0;
        }
    }
    t->size = base + block;
    return 0;
}

/* table_append out of line, one copy per word count: the DFS frames stay
 * small and the address of a one-word set held in a register never escapes
 * into them. */
static __attribute__((noinline)) int
table_append1(Table *t, const Context *c, int e, uint64_t *gain)
{
    return table_append(t, c, e, gain, 1);
}

static __attribute__((noinline)) int
table_appendw(Table *t, const Context *c, int e, uint64_t *gain)
{
    return table_append(t, c, e, gain, c->words);
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
    /* Slot d (words each) of reach holds the reach set of the path's first
     * d elements, slot d of cand the feasible children of that path; the
     * DFS recurses up to n - 1 deep, so these live here, not on the stack.
     * Stand-alone reachability uses two slots in turn. */
    uint64_t *reach, *cand;
    PyObject *found;
    Table dp;                   /* non-abelian lane only */
} Search;

static void
search_free(Search *s)
{
    if (s == NULL)
        return;
    Py_XDECREF(s->found);
    PyMem_Free(s->dp.vals);
    PyMem_Free(s->reach);
    PyMem_Free(s);
}

/* A search with `slots` empty reach and cand slots. */
static Search *
search_new(const Context *c, long long state_cap, int slots)
{
    Search *s = PyMem_Malloc(sizeof(Search));
    if (s == NULL)
        return (Search *)PyErr_NoMemory();
    s->ctx = c;
    s->found = NULL;
    s->dp.vals = NULL;
    size_t words = (size_t)slots * c->words;
    s->reach = PyMem_Calloc(2 * words, sizeof(uint64_t));
    if (s->reach == NULL) {
        PyErr_NoMemory();
        search_free(s);
        return NULL;
    }
    s->cand = s->reach + words;
    if (!c->abelian && table_init(&s->dp, c, state_cap) < 0) {
        search_free(s);
        return NULL;
    }
    return s;
}

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
check_depth(const Context *c, int length)
{
    if (length < c->n)
        return 0;
    PyErr_SetString(PyExc_ValueError,
                    "path longer than the group order: the table is not a group");
    return -1;
}

/* child = reach with e appended to the path. */
ALWAYS_INLINE int
extend(Search *s, int e, const uint64_t *reach, uint64_t *child, int W)
{
    const Context *c = s->ctx;
    if (c->abelian) {
        memcpy(child, reach, W * sizeof *child);
        translate_or(c, W, reach, e, child);
        set_bit(child, e, W);
        return 0;
    }
    uint64_t gain1, *gain = W == 1 ? &gain1 : child;
    if ((W == 1 ? table_append1 : table_appendw)(&s->dp, c, e, gain) < 0)
        return -1;
    for (int w = 0; w < W; w++)
        child[w] = reach[w] | gain[w];
    return 0;
}

static int visit1(Search *s, int e, uint64_t reach, int length);
static int visitw(Search *s, int e, int length);

/* e already passed the feasibility test: e != 1 and inv(e) not in reach.
 * One-word sets live in locals, so the compiler keeps them in registers;
 * wider ones live in the arena slot of their depth. */
ALWAYS_INLINE int
visit_body(Search *s, int e, const uint64_t *reach, int length, int W)
{
    const Context *c = s->ctx;
    if (++s->nodes > s->budget)
        return VISIT_ABORT;
    if (check_depth(c, length) < 0)
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
    uint64_t child1, cand1;
    uint64_t *child = W == 1 ? &child1 : s->reach + (size_t)newlen * W;
    uint64_t *cand = W == 1 ? &cand1 : s->cand + (size_t)newlen * W;
    if (extend(s, e, reach, child, W) < 0)
        return VISIT_ERROR;
    int potential = newlen + (c->n - 1 - popcount(child, W));
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
        feasible(c, W, child, e, cand);
        for (int w = 0; w < W && rc == VISIT_OK; w++) {
            for (uint64_t bits = cand[w]; bits && rc == VISIT_OK; bits &= bits - 1) {
                int f = w * 64 + __builtin_ctzll(bits);
                rc = W == 1 ? visit1(s, f, child1, newlen) : visitw(s, f, newlen);
            }
        }
    }
    if (!c->abelian)
        table_undo(&s->dp);
    return rc;
}

static int
visit1(Search *s, int e, uint64_t reach, int length)
{
    return visit_body(s, e, &reach, length, 1);
}

static int
visitw(Search *s, int e, int length)
{
    int W = s->ctx->words;
    return visit_body(s, e, s->reach + (size_t)length * W, length, W);
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

    Search *s = search_new(c, state_cap, c->n + 1);
    if (s == NULL)
        return NULL;
    s->enumerate = strcmp(mode, "max") != 0;
    s->target = target;
    s->budget = budget;
    s->found = PyList_New(0);
    int complete = 1, best_len = floor_len;
    long long total_nodes = 0;
    PyObject *witness = Py_NewRef(Py_None), *result = NULL;
    if (s->found == NULL)
        goto done;

    for (int root = 1; root < c->n; root++) {
        s->nodes = 0;
        s->root_best = floor_len;
        if (!c->abelian)
            table_reset(&s->dp, c);
        int rc = c->words == 1 ? visit1(s, root, 0, 0) : visitw(s, root, 0);
        if (rc == VISIT_ERROR)
            goto done;
        if (rc == VISIT_ABORT)
            complete = 0;
        total_nodes += s->nodes;
        /* root_best above floor_len means a witness was recorded */
        if (s->root_best > best_len) {
            best_len = s->root_best;
            Py_SETREF(witness, int_tuple(s->witness, best_len));
            if (witness == NULL)
                goto done;
        }
    }
    result = Py_BuildValue("{s:O,s:i,s:O,s:O,s:L}", "complete",
                           complete ? Py_True : Py_False, "best_len", best_len,
                           "witness", witness, "found", s->found,
                           "nodes", total_nodes);
done:
    Py_XDECREF(witness);
    search_free(s);
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
    Search *s = search_new(c, DEFAULT_STATE_CAP, c->n + 1);
    if (s == NULL)
        return NULL;
    int W = c->words, len = 0, start = 1;
    PyObject *result = NULL;
    for (;;) {
        feasible(c, W, s->reach + (size_t)len * W, start, s->cand);
        int w = 0;
        while (w < W && s->cand[w] == 0)
            w++;
        if (w == W)
            break;
        int e = w * 64 + __builtin_ctzll(s->cand[w]);
        if (check_depth(c, len) < 0
                || extend(s, e, s->reach + (size_t)len * W,
                          s->reach + (size_t)(len + 1) * W, W) < 0)
            goto done;
        s->path[len++] = e;
        start = e;
    }
    PyObject *witness = int_tuple(s->path, len);
    if (witness != NULL)
        result = Py_BuildValue("iNi", len, witness, len);
done:
    search_free(s);
    return result;
}

/* ------------------------------------------------------------------------
 * Stand-alone reachability: the multiset's copies appended by extend
 * ------------------------------------------------------------------------ */

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
    const Context *c = get_context(ctx_obj);
    if (c == NULL)
        return NULL;
    Py_ssize_t k = PySequence_Size(elems_obj);
    if (k < 0)
        return NULL;
    if (k > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError, "at most %d distinct elements", MAX_ORDER);
        return NULL;
    }
    uint64_t until[MAX_WORDS] = {0};
    if (until_obj != NULL && read_mask(until_obj, c, until) < 0)
        return NULL;
    /* elems[j] and counts[j] side by side; copies[e] totals the counts of
     * element e */
    int *elems = PyMem_New(int, 2 * k + 1);
    long long *copies = PyMem_Calloc(c->n, sizeof *copies);
    Search *s = NULL;
    PyObject *result = NULL;
    if (elems == NULL || copies == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *counts = elems + k;
    if (read_indices(elems_obj, k, c->n, elems, "elems") < 0
            || read_indices(counts_obj, k, INT_MAX, counts, "counts") < 0)
        goto done;

    /* The full table holds prod (c_j + 1) states of one bitset each;
     * refuse it up front (states saturates at max_states + 1). */
    long long max_states = state_cap / c->words, states = 1;
    for (int j = 0; j < k && states <= max_states; j++) {
        long long factor = counts[j] + 1LL;
        states = states > max_states / factor ? max_states + 1 : states * factor;
    }
    if (states > max_states) {
        PyErr_Format(LimitExceeded,
                     "reachability DP exceeds the state cap %lld", state_cap);
        goto done;
    }
    for (int j = 0; j < k; j++)
        copies[elems[j]] += counts[j];
    s = search_new(c, state_cap, 2);
    if (s == NULL)
        goto done;
    /* Canonical order: every copy of e before any larger element.  The
     * path alternates between the two reach slots; slot 0 starts empty. */
    int W = c->words, slot = 0, hit = 0;
    for (int e = 0; e < c->n && !hit; e++) {
        for (long long i = 0; i < copies[e] && !hit; i++, slot ^= 1) {
            uint64_t *reach = s->reach + (size_t)slot * W;
            uint64_t *child = s->reach + (size_t)(slot ^ 1) * W;
            if (extend(s, e, reach, child, W) < 0)
                goto done;
            for (int w = 0; w < W; w++)
                hit |= (child[w] & until[w]) != 0;
        }
    }
    result = Py_BuildValue("NO", mask_to_int(s->reach + (size_t)slot * W, W),
                           hit ? Py_True : Py_False);
done:
    search_free(s);
    PyMem_Free(copies);
    PyMem_Free(elems);
    return result;
}

/* ------------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"build_context", (PyCFunction)(void (*)(void))build_context,
     METH_VARARGS | METH_KEYWORDS,
     "build_context(n, mul_flat, inv, identity, abelian)\n--\n\n"
     "Product tables for one group of order <= 4096; mul_flat (n*n) and inv\n"
     "(n) are C-contiguous buffers of native int16."},
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
     "Products of nonempty sub-multisets as (mask, hit): the copies are\n"
     "appended in increasing element order with the search's own step, which\n"
     "stops after the first append that reaches until_mask.  A state space\n"
     "above state_cap words is refused up front with LimitExceeded."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "zerosum._kernel",
    .m_doc = "Compiled search kernel for groups of order <= 4096; mirrors "
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
