/* Compiled search kernel for groups of order <= 4096 (groups.TABLE_LIMIT).
 *
 * Implements the traversal contract of zerosum._pykernel exactly: the same
 * DFS order, pruning, budgets and node accounting, so every result (node
 * counts included) is identical across lanes.  Both lanes raise
 * zerosum.engine.EngineLimitError, with the same messages, when a DP would
 * exceed its state cap.  This module imports nothing of the package at init
 * and the engine imports the pure kernel only when it picks that lane, so a
 * process on the compiled lane never loads zerosum._pykernel.
 *
 * A bitset is an array of words = (n + 63) / 64 64-bit words; element index
 * i is bit i % 64 of word i / 64.
 *
 * translate(mask, e) = { e*r : r in mask }, row e of the product table.  A
 * group is abelian exactly when its context is built with the (stride,
 * order) pairs of its cyclic factors (radix); the kernel takes a radix to
 * mean an abelian group (the one-bitset extend and the failure memo rely on
 * it), and the engine passes one only when groups.Group.is_abelian, read off
 * the verified generators, holds.  At one word (n <= 64) an abelian
 * translate turns each factor by two masked shifts, with no table: digit d
 * of e moves the bits whose digit is below order - d up by d * stride and
 * wraps the rest down by (order - d) * stride.  build_context checks the
 * turns against every entry of the product table.  Non-abelian one-word
 * groups apply translate byte by byte through per-element tables.  Byte
 * tables for more words would take n * n/8 * 256 * words * 8 bytes (4.3 GB
 * at n = 1024), so larger groups walk the set bits instead, through the
 * product table as it is (mul[e*n + r] = e*r), copied and range-checked.
 * The byte tables stay for non-abelian groups of one word because the bit
 * walk doubles the roster benchmark's run_s (0.23 -> 0.49 s, 2-vCPU Xeon).
 * The DFS is written once over the word count and the compiler specializes
 * it for one word.
 *
 * A node's children are visited in its own loop (expand): enter counts each
 * child, checks the budget, extends the carried set, updates the best length
 * and decides whether to descend, inline, and expand recurses only into the
 * children that descend.  Most nodes are leaves, and a leaf costs no call;
 * the pure lane likewise pushes a frame only when a node descends.  The
 * bound needs one popcount per node, so on x86-64 setup.py builds with
 * -mpopcnt and the module refuses to import on a CPU without POPCNT (the
 * engine then runs the pure lane); without the flag each count is a call
 * into libgcc.
 *
 * The feasibility test of a search, "inv(f) not reachable", needs the
 * inverse of the reach set.  Search and greedy carry that inverse set F
 * instead of the reach set: reversing an ordering and inverting each factor
 * inverts its product, so F is the reach set of the path's inverses,
 * appending e to the path extends F by e^-1, and the feasible children are
 * the complement of F.  Inversion is a bijection, so F and the reach set
 * have one size and the bound reads either.
 *
 * A multiset is extended one copy at a time (extend).  On abelian groups
 * its reach set is one bitset; otherwise extend runs the sub-multiset DP,
 * whose table is a dense array indexed in mixed radix: digit j is the count
 * of the j-th distinct element, with stride prod_{i<j} (c_i + 1).  A state
 * U holds the products of U's orderings, the union over each element u of
 * U of translate(the state U - u, u): every ordering has a first element.
 * Every copy of an element is appended before the next distinct one (a
 * canonical path is non-decreasing, and its inverses arrive in the same
 * runs), so only the last digit ever grows; appending a copy of e adds one
 * block of states at the end of the array, and undoing it truncates the
 * array again.  Each state holds one bitset, so state caps are counted in
 * words: a cap of N admits N / words states.  Every entry point takes the
 * cap from its caller (engine.STATE_LIMIT); the kernel holds no default.
 * Stand-alone reachability appends a multiset's copies in increasing
 * element order through the same extend, so each lane has one sub-multiset
 * DP.  It stops after the first append whose reach set meets until_mask or
 * is the whole group: from then on no append changes the answer, and a
 * multiset of k distinct elements that fills the group early never builds
 * the rest of its 2^k states.  The state cap still applies to the whole
 * multiset, up front.
 *
 * search walks one branch per root (first element), 1 .. n-1 unless the
 * caller names the roots, and it may take a list of automorphisms (maps).
 * Below the root, a child f of a path s_1 <= ... <= s_k is skipped when
 * some listed map fixes every s_i and sends f to a smaller index.
 * read_maps turns each map into two bitsets, the elements it sends
 * down and the ones it fixes, so a node's children are cand &= ~down over
 * the maps that fix its path.  Slot d of the alive arena lists those maps
 * for the path's first d elements; once no map fixes the path, a node costs
 * what it did without maps.  The engine's max-length search and its
 * collection of extremal multisets name the Aut(G)-orbit minima
 * (groups.Group.orbit_roots) and pass the listed automorphism group, or
 * its generators.  The rule keeps the lexicographically least image of
 * every free multiset (zerosum.engine has the proof), so the length and
 * the witness are those of a search with no maps.  The engine closes the
 * collected multisets under the automorphisms; the fixed-length
 * enumeration walks every root with no maps.
 *
 * Mode max on an abelian context also keeps a failure memo: a
 * direct-mapped table of MEMO_SLOTS (4096) entries per search call, at
 * any word count, allocated at its first store (a search that never walks
 * a subtree to the end, as on most cyclic groups, allocates none).  Each
 * entry holds a node's carried set C, its last element, its depth and the
 * root it was written in.  After a descended node's subtree is walked to
 * the end (not on a budget abort or an error) the node overwrites the slot
 * of its C.  A later node of the same root
 * whose slot holds the same C, a last element <= its own and a depth >=
 * its own is counted and updates the best length, but is not descended:
 * below a node of an abelian group, the subtree depends only on C and the
 * last element (zerosum.engine has the proof that length and witness are
 * kept).  The slot of C is h >> 52, where h = 0 and, for each word w of C
 * from the lowest, h = (h ^ w) * 0x9E3779B97F4A7C15 mod 2^64; the pure
 * lane hashes the same way, so node counts agree.  The root stamp keeps
 * each root's node count and budget use independent of the other roots.
 * Modes enum and collect must reach every multiset of a length, and a
 * non-abelian subtree depends on the whole DP table, so they keep no memo.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_ORDER 4096
#define MAX_WORDS (MAX_ORDER / 64)
/* The failure memo of mode max on abelian contexts: MEMO_SLOTS entries,
 * indexed by the top bits of a multiplicative hash. */
#define MEMO_SHIFT 52
#define MEMO_SLOTS (1 << (64 - MEMO_SHIFT))
#define MEMO_MULT 0x9E3779B97F4A7C15ULL
#define CONTEXT_NAME "zerosum._kernel.Context"
#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* setup.py defines the SHA-256 of this file; other builds carry none. */
#ifndef SOURCE_SHA256
#define SOURCE_SHA256 ""
#endif

/* Raise zerosum.engine.EngineLimitError, looked up at the raise rather than
 * at init (the engine is loaded by then: it is what calls the kernel). */
static void
limit_error(const char *what, long long state_cap)
{
    PyObject *engine = PyImport_ImportModule("zerosum.engine");
    if (engine == NULL)
        return;
    PyObject *cls = PyObject_GetAttrString(engine, "EngineLimitError");
    Py_DECREF(engine);
    if (cls == NULL)
        return;
    PyErr_Format(cls, "%s DP exceeds the state cap %lld", what, state_cap);
    Py_DECREF(cls);
}

/* ------------------------------------------------------------------------
 * Context: product tables for one group
 * ------------------------------------------------------------------------ */

/* One cyclic factor's turn in a translate by rotation: the bits in keep move
 * up by lsh, the others wrap down by rsh.  Where the element's digit is 0
 * every bit is kept in place. */
typedef struct {
    uint64_t keep;
    int lsh, rsh;
} Turn;

/* A radix of one word has at most 6 factors > 1: 2^6 = 64. */
#define MAX_FACTORS 6

typedef struct {
    int n;
    int identity;
    int abelian;
    int words;                  /* 64-bit words per bitset: (n + 63) / 64 */
    int chunks;                 /* bytes per one-word bitset: (n + 7) / 8 */
    int factors;                /* cyclic factors of the radix */
    uint64_t last;              /* the valid bits of the last word */
    /* words == 1, abelian: turns[e*factors + i] turns factor i by e */
    const Turn *turns;
    /* words == 1, non-abelian: n rows of chunks * 256 words; row e
     * translates by e */
    const uint64_t *tables;
    const uint16_t *mul;        /* words > 1: mul[e*n + r] = e*r */
    const uint16_t *inv;        /* inv[r] = r^-1 */
    uint64_t data[];            /* turns or tables, then inv and mul */
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

/* translate(mask, e) by two masked shifts per cyclic factor. */
static inline uint64_t
rotate(const Context *c, uint64_t mask, int e)
{
    const Turn *t = c->turns + (size_t)e * c->factors;
    for (int i = 0; i < c->factors; i++, t++)
        mask = (mask & t->keep) << t->lsh | (mask & ~t->keep) >> t->rsh;
    return mask;
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
        dst[0] |= c->turns ? rotate(c, src[0], e) : apply_row(c, src[0], e);
        return;
    }
    const uint16_t *row = c->mul + (size_t)e * c->n;
    for (int w = 0; w < W; w++)
        for (uint64_t m = src[w]; m; m &= m - 1)
            set_bit(dst, row[w * 64 + __builtin_ctzll(m)], W);
}

/* cand = the elements f >= start that keep the path free: those outside
 * the path's inverse set F, `carried`. */
ALWAYS_INLINE void
feasible(const Context *c, int W, const uint64_t *carried, int start,
         uint64_t *cand)
{
    for (int w = 0; w < W; w++)
        cand[w] = ~carried[w];
    for (int w = 0; w < start >> 6; w++)
        cand[w] = 0;
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

/* Read a buffer of `count` native int16 values, each in [0, n), into out[];
 * an entry out of range is reported as the first such in buffer order. */
static int
read_int16(const Py_buffer *buf, Py_ssize_t count, int n, uint16_t *out,
           const char *what)
{
    if (buf->len != count * (Py_ssize_t)sizeof(int16_t)) {
        PyErr_Format(PyExc_ValueError, "%s must hold %zd int16 entries",
                     what, count);
        return -1;
    }
    const char *in = buf->buf;
    /* as unsigned, a negative entry is above every order */
    uint16_t top = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        uint16_t v;
        memcpy(&v, in + i * sizeof v, sizeof v);
        top = v > top ? v : top;
        out[i] = v;
    }
    if (top < n)
        return 0;
    Py_ssize_t i = 0;
    while (out[i] < n)
        i++;
    PyErr_Format(PyExc_ValueError, "%s entry %d out of range", what,
                 (int)(int16_t)out[i]);
    return -1;
}

/* Read a radix of at most MAX_FACTORS (stride, order) pairs, each with
 * stride >= 1, order >= 2 and stride * order <= n; returns their number. */
static int
read_radix(PyObject *obj, int n, int *stride, int *order)
{
    PyObject *fast = PySequence_Fast(obj, "radix must be a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    if (len > MAX_FACTORS) {
        PyErr_Format(PyExc_ValueError, "radix has more than %d factors",
                     MAX_FACTORS);
        len = -1;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *pair = PySequence_Fast(PySequence_Fast_GET_ITEM(fast, i),
                                         "radix entries must be pairs");
        long v[2] = {0, 0};
        if (pair != NULL && PySequence_Fast_GET_SIZE(pair) != 2)
            PyErr_SetString(PyExc_ValueError, "radix entries must be pairs");
        else if (pair != NULL)
            for (int j = 0; j < 2; j++)
                v[j] = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, j));
        Py_XDECREF(pair);
        if (PyErr_Occurred()) {
            len = -1;
            break;
        }
        if (v[0] < 1 || v[1] < 2 || v[0] > n || v[1] > n || v[0] * v[1] > n) {
            PyErr_Format(PyExc_ValueError, "radix entry (%ld, %ld) out of range",
                         v[0], v[1]);
            len = -1;
            break;
        }
        stride[i] = (int)v[0];
        order[i] = (int)v[1];
    }
    Py_DECREF(fast);
    return (int)len;
}

/* The turns of every element, checked against every product of the
 * product table mul: element e has digit d = e / stride % order in each
 * factor, and a translate by it moves the bits of digit below order - d up
 * by d * stride and wraps the others down by (order - d) * stride.  Both
 * shifts are below stride * order <= 64 when d > 0.  The turns commute, so
 * r turned by e must be e*r as well as r*e: a non-abelian table fails. */
static int
fill_turns(Context *c, Turn *turns, const int *stride, const int *order,
           const uint16_t *mul)
{
    int n = c->n;
    for (int e = 0; e < n; e++) {
        for (int i = 0; i < c->factors; i++) {
            Turn *t = turns + (size_t)e * c->factors + i;
            int d = e / stride[i] % order[i];
            t->keep = ~0ULL;
            t->lsh = t->rsh = 0;
            if (d == 0)
                continue;
            t->keep = 0;
            for (int r = 0; r < n; r++)
                if (r / stride[i] % order[i] < order[i] - d)
                    t->keep |= 1ULL << r;
            t->lsh = d * stride[i];
            t->rsh = (order[i] - d) * stride[i];
        }
    }
    for (int e = 0; e < n; e++)
        for (int r = 0; r < n; r++)
            if (rotate(c, 1ULL << r, e) != 1ULL << mul[e * n + r]) {
                PyErr_SetString(PyExc_ValueError,
                                "radix does not match the product table");
                return -1;
            }
    return 0;
}

static PyObject *
build_context(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "mul_flat", "inv", "identity", "radix", NULL};
    int n, identity;
    Py_buffer mul_buf, inv_buf;
    PyObject *radix;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iy*y*iO:build_context",
                                     kwlist, &n, &mul_buf, &inv_buf, &identity,
                                     &radix))
        return NULL;
    PyObject *capsule = NULL;
    Context *c = NULL;
    uint16_t *scratch = NULL;   /* mul of a one-word context, while built */
    if (n < 1 || n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError,
                     "compiled kernel supports orders 1..%d, got %d", MAX_ORDER, n);
        goto done;
    }
    if (identity < 0 || identity >= n) {
        PyErr_SetString(PyExc_ValueError, "identity index out of range");
        goto done;
    }
    /* The radix is read at one word only; wider sets walk their bits. */
    int abelian = radix != Py_None;
    int words = (n + 63) / 64, chunks = (n + 7) / 8;
    int stride[MAX_FACTORS], order[MAX_FACTORS], factors = 0;
    int turning = words == 1 && abelian;
    if (turning && (factors = read_radix(radix, n, stride, order)) < 0)
        goto done;
    int rows = words == 1 && !abelian ? n : 0;
    size_t row_words = (size_t)chunks * 256;
    size_t turn_count = turning ? (size_t)n * factors : 0;
    size_t mul_count = words == 1 ? 0 : (size_t)n * n;
    c = PyMem_Malloc(sizeof(Context) + rows * row_words * sizeof(uint64_t)
                     + turn_count * sizeof(Turn)
                     + (n + mul_count) * sizeof(uint16_t));
    if (words == 1)
        scratch = PyMem_New(uint16_t, (size_t)n * n);
    if (c == NULL || (words == 1 && scratch == NULL)) {
        PyErr_NoMemory();
        goto done;
    }
    uint64_t *tables = c->data;
    Turn *turns = (Turn *)(tables + rows * row_words);
    uint16_t *inverse = (uint16_t *)(turns + turn_count);
    uint16_t *mul = words == 1 ? scratch : inverse + n;
    c->n = n;
    c->identity = identity;
    c->abelian = abelian;
    c->words = words;
    c->chunks = chunks;
    c->factors = factors;
    c->last = n % 64 ? (1ULL << n % 64) - 1 : ~0ULL;
    c->turns = turning ? turns : NULL;
    c->tables = rows ? tables : NULL;
    c->mul = words == 1 ? NULL : mul;
    c->inv = inverse;
    if (read_int16(&mul_buf, (Py_ssize_t)n * n, n, mul, "mul_flat") < 0
            || read_int16(&inv_buf, n, n, inverse, "inv") < 0)
        goto done;
    if (turning && fill_turns(c, turns, stride, order, mul) < 0)
        goto done;
    for (int row = 0; row < rows; row++) {
        uint64_t *t = tables + row * row_words;
        for (int pos = 0; pos < chunks; pos++, t += 256) {
            t[0] = 0;
            for (int v = 1; v < 256; v++) {
                int low = v & -v;
                int r = pos * 8 + __builtin_ctz(low);
                t[v] = t[v ^ low] | (r < n ? 1ULL << mul[row * n + r] : 0);
            }
        }
    }
    capsule = PyCapsule_New(c, CONTEXT_NAME, context_free);
done:
    if (capsule == NULL)
        PyMem_Free(c);
    PyMem_Free(scratch);
    PyBuffer_Release(&mul_buf);
    PyBuffer_Release(&inv_buf);
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

/* Add one copy of e, the last support element or one not yet in the
 * support (every copy of an element arrives before the next).  The new
 * states are those whose last digit is the new count; gain becomes the
 * union of their product sets.  Each is the union over its nonzero digits j
 * of translate(parent with digit j lowered, support[j]); parents with the
 * same last digit lie earlier in the new block, so one forward pass fills
 * it. */
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
        limit_error("search", t->state_cap);
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

enum { VISIT_OK = 0, VISIT_ABORT = 1, VISIT_DESCEND = 2, VISIT_ERROR = -1 };

/* The search modes, named as in the pure lane. */
enum { MODE_MAX, MODE_ENUM, MODE_COLLECT };
static const char *const MODES[] = {"max", "enum", "collect"};

typedef struct {
    const Context *ctx;
    int mode;
    int target;
    long long budget;
    long long nodes;            /* nodes of the current root */
    int best;                   /* max: of the current root; collect: of all */
    int path[MAX_ORDER];
    int witness[MAX_ORDER];
    /* Slot d (words each) of reach holds the set carried for the path's
     * first d elements (the reach set of their inverses), slot d of cand
     * the feasible children of that path; the DFS recurses up to n - 1
     * deep, so these live here, not on the stack.  Stand-alone
     * reachability uses two slots in turn. */
    uint64_t *reach, *cand;
    /* The listed automorphisms that send some element down (read_maps):
     * map k's elements sent to a smaller index at down + k*words and its
     * fixed points at fixed + k*words.  Slot d (nmaps entries) of alive
     * lists the maps that fix the path's first d elements, nalive[d] of
     * them; slot 0 lists every map. */
    int nmaps;
    uint64_t *down, *fixed;
    int *alive;
    int nalive[MAX_ORDER + 1];
    /* The failure memo, kept when memoize is set (mode max on an abelian
     * context): MEMO_SLOTS entries of memo_size(words) bytes (see
     * MemoEntry), allocated at the first store, so NULL until then, and a
     * lookup before it misses. */
    int memoize;
    char *memo;
    int root;                   /* the root being walked */
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
    PyMem_Free(s->down);
    PyMem_Free(s->alive);
    PyMem_Free(s->memo);
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
    s->nmaps = s->nalive[0] = 0;
    s->down = s->fixed = NULL;
    s->alive = NULL;
    s->memoize = 0;
    s->memo = NULL;
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

/* child = the reach set `reach` of a multiset with e appended to it.
 * Search and greedy pass e^-1: they carry the reach set of the path's
 * inverses. */
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

/* One memo slot: a walked node's root, last element and depth (all below
 * MAX_ORDER), then its carried set, in one run of 8 + 8 * words bytes, so a
 * lookup at one word reads a single cache line.  A root of 0 marks an
 * empty slot (roots are >= 1). */
typedef struct {
    uint16_t root, last, depth;
    uint64_t set[];
} MemoEntry;

ALWAYS_INLINE size_t
memo_size(int W)
{
    return sizeof(MemoEntry) + W * sizeof(uint64_t);
}

/* The memo entry of a carried set's slot. */
ALWAYS_INLINE MemoEntry *
memo_entry(const Search *s, const uint64_t *set, int W)
{
    uint64_t h = 0;
    for (int w = 0; w < W; w++)
        h = (h ^ set[w]) * MEMO_MULT;
    return (MemoEntry *)(s->memo + (size_t)(h >> MEMO_SHIFT) * memo_size(W));
}

/* Whether a node of this root that carried `set`, ended in an element
 * <= e and was at least `depth` deep has had its whole subtree walked. */
ALWAYS_INLINE int
memo_covers(const Search *s, const uint64_t *set, int e, int depth, int W)
{
    const MemoEntry *m = memo_entry(s, set, W);
    if (m->root != s->root || m->last > e || m->depth < depth)
        return 0;
    for (int w = 0; w < W; w++)
        if (m->set[w] != set[w])
            return 0;
    return 1;
}

/* Record a node whose whole subtree was walked, over its slot's entry;
 * the first store allocates the memo.  Returns VISIT_OK or VISIT_ERROR. */
ALWAYS_INLINE int
memo_store(Search *s, const uint64_t *set, int e, int depth, int W)
{
    if (s->memo == NULL) {
        s->memo = PyMem_Calloc(MEMO_SLOTS, memo_size(W));
        if (s->memo == NULL) {
            PyErr_NoMemory();
            return VISIT_ERROR;
        }
    }
    MemoEntry *m = memo_entry(s, set, W);
    m->root = (uint16_t)s->root;
    m->last = (uint16_t)e;
    m->depth = (uint16_t)depth;
    memcpy(m->set, set, W * sizeof *set);
    return VISIT_OK;
}

static int expand1(Search *s, int e, uint64_t carried, int length);
static int expandw(Search *s, int e, int length);

/* Append the first len path elements to the found list. */
static int
collect_path(Search *s, int len)
{
    PyObject *t = int_tuple(s->path, len);
    int rc = t == NULL ? -1 : PyList_Append(s->found, t);
    Py_XDECREF(t);
    return rc;
}

/* Visit the node that appends e to a path of `length` elements: e already
 * passed the feasibility test (e != 1 and inv(e) not in the path's reach
 * set), and `carried` is the inverse of that reach set.  Counts the node,
 * writes the carried set of the longer path to child and returns
 * VISIT_DESCEND when its children are to be expanded; otherwise the DP
 * append is undone here. */
ALWAYS_INLINE int
enter(Search *s, int e, const uint64_t *carried, int length, uint64_t *child,
      int W)
{
    const Context *c = s->ctx;
    if (++s->nodes > s->budget)
        return VISIT_ABORT;
    if (check_depth(c, length) < 0)
        return VISIT_ERROR;
    int newlen = length + 1;
    s->path[length] = e;
    if (s->mode == MODE_ENUM && newlen == s->target)
        return collect_path(s, newlen) < 0 ? VISIT_ERROR : VISIT_OK;
    if (extend(s, c->inv[e], carried, child, W) < 0)
        return VISIT_ERROR;
    /* the memo slot is read only if the node descends; fetch it meanwhile */
    if (s->memo)
        __builtin_prefetch(memo_entry(s, child, W));
    /* inversion is a bijection: F and the reach set have one size */
    int potential = newlen + (c->n - 1 - popcount(child, W));
    int descend;
    if (s->mode == MODE_MAX) {
        if (newlen > s->best) {
            s->best = newlen;
            memcpy(s->witness, s->path, newlen * sizeof(int));
        }
        descend = potential > s->best
            && !(s->memo && memo_covers(s, child, e, newlen, W));
    } else if (s->mode == MODE_COLLECT) {
        /* a longer multiset clears the list; ties are kept and explored */
        if (newlen > s->best) {
            s->best = newlen;
            if (PyList_SetSlice(s->found, 0, PY_SSIZE_T_MAX, NULL) < 0)
                return VISIT_ERROR;
        }
        if (newlen == s->best && collect_path(s, newlen) < 0)
            return VISIT_ERROR;
        descend = potential > newlen && potential >= s->best;
    } else {
        descend = potential >= s->target;
    }
    if (descend)
        return VISIT_DESCEND;
    if (!c->abelian)
        table_undo(&s->dp);
    return VISIT_OK;
}

/* Slot depth of alive: the maps of slot depth - 1 that fix f, the path's
 * element at index depth - 1. */
ALWAYS_INLINE void
keep_fixing(Search *s, int f, int depth)
{
    int kept = 0;
    if (s->nalive[depth - 1] > 0) {
        const int *from = s->alive + (size_t)(depth - 1) * s->nmaps;
        int *to = s->alive + (size_t)depth * s->nmaps;
        const uint64_t *fixed = s->fixed + (f >> 6);
        for (int i = 0; i < s->nalive[depth - 1]; i++)
            if (fixed[(size_t)from[i] * s->ctx->words] >> (f & 63) & 1)
                to[kept++] = from[i];
    }
    s->nalive[depth] = kept;
}

/* Enter each child f >= e of a path of `length` elements that ends in e and
 * carries `carried`, in increasing order, and recurse into the children that
 * descend, recording in the memo (when there is one) each child whose
 * subtree was walked to the end; then undo the DP append of e.  A leaf
 * costs no call.  One-word sets live in locals, so the compiler keeps them
 * in registers; wider ones live in the arena slot of their depth. */
ALWAYS_INLINE int
expand(Search *s, int e, const uint64_t *carried, int length, int W)
{
    const Context *c = s->ctx;
    uint64_t child1, cand1;
    uint64_t *child = W == 1 ? &child1 : s->reach + (size_t)(length + 1) * W;
    uint64_t *cand = W == 1 ? &cand1 : s->cand + (size_t)length * W;
    feasible(c, W, carried, e, cand);
    for (int i = 0; i < s->nalive[length]; i++) {
        const uint64_t *down = s->down
            + (size_t)s->alive[(size_t)length * s->nmaps + i] * W;
        for (int w = 0; w < W; w++)
            cand[w] &= ~down[w];
    }
    int rc = VISIT_OK;
    for (int w = 0; w < W && rc == VISIT_OK; w++) {
        for (uint64_t bits = cand[w]; bits && rc == VISIT_OK; bits &= bits - 1) {
            int f = w * 64 + __builtin_ctzll(bits);
            rc = enter(s, f, carried, length, child, W);
            if (rc != VISIT_DESCEND)
                continue;
            keep_fixing(s, f, length + 1);
            rc = W == 1 ? expand1(s, f, child1, length + 1)
                        : expandw(s, f, length + 1);
            if (rc == VISIT_OK && s->memoize)
                rc = memo_store(s, child, f, length + 1, W);
        }
    }
    if (!c->abelian)
        table_undo(&s->dp);
    return rc;
}

static int
expand1(Search *s, int e, uint64_t carried, int length)
{
    return expand(s, e, &carried, length, 1);
}

static int
expandw(Search *s, int e, int length)
{
    int W = s->ctx->words;
    return expand(s, e, s->reach + (size_t)length * W, length, W);
}

/* The branch of one root: the root's node on the empty path, then its
 * subtree.  Slot 0 of the arena is the empty path's set and stays zero. */
static int
visit_root(Search *s, int root)
{
    int W = s->ctx->words, rc;
    if (W == 1) {
        uint64_t empty = 0, child;
        rc = enter(s, root, &empty, 0, &child, 1);
        if (rc != VISIT_DESCEND)
            return rc;
        keep_fixing(s, root, 1);
        return expand1(s, root, child, 1);
    }
    rc = enter(s, root, s->reach, 0, s->reach + W, W);
    if (rc != VISIT_DESCEND)
        return rc;
    keep_fixing(s, root, 1);
    return expandw(s, root, 1);
}

/* The roots of a search into out[] (room for n - 1 entries): 1 .. n-1 when
 * obj is None, else obj's entries, which must be strictly increasing
 * indices in 1 .. n-1.  Returns their number, or -1 with an exception. */
static int
read_roots(PyObject *obj, int n, int *out)
{
    int len = 0;
    if (obj == Py_None) {
        for (int r = 1; r < n; r++)
            out[len++] = r;
        return len;
    }
    PyObject *fast = PySequence_Fast(obj, "roots must be a sequence");
    if (fast == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred())
            len = -1;
        else if (v < 1 || v >= n) {
            PyErr_Format(PyExc_ValueError, "roots entry %ld out of range", v);
            len = -1;
        } else if (len > 0 && v <= out[len - 1]) {
            PyErr_SetString(PyExc_ValueError, "roots must be strictly increasing");
            len = -1;
        }
        if (len < 0)
            break;
        out[len++] = (int)v;
    }
    Py_DECREF(fast);
    return len;
}

/* The maps of obj into s: None, or a buffer of native int16 holding whole
 * maps of n images each, map k at [k*n, (k+1)*n).  Keeps the down and
 * fixed sets of each map that sends some element down (the others never
 * prune) and lists them all in slot 0 of alive. */
static int
read_maps(Search *s, PyObject *obj)
{
    if (obj == Py_None)
        return 0;
    int n = s->ctx->n, W = s->ctx->words, kept = 0, rc = -1;
    Py_buffer buf;
    if (PyObject_GetBuffer(obj, &buf, PyBUF_SIMPLE) < 0)
        return -1;
    if (buf.len % (2 * (Py_ssize_t)n)) {
        PyErr_Format(PyExc_ValueError,
                     "maps must hold a multiple of %d int16 entries", n);
        goto done;
    }
    size_t m = (size_t)buf.len / (2 * (size_t)n);
    s->down = PyMem_New(uint64_t, 2 * m * W);
    if (s->down == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s->fixed = s->down + m * W;
    const char *p = buf.buf;
    for (size_t k = 0; k < m; k++) {
        uint64_t *down = s->down + (size_t)kept * W;
        uint64_t *fixed = s->fixed + (size_t)kept * W;
        memset(down, 0, W * sizeof *down);
        memset(fixed, 0, W * sizeof *fixed);
        int moves = 0;
        for (int a = 0; a < n; a++, p += sizeof(int16_t)) {
            int16_t b;
            memcpy(&b, p, sizeof b);
            if (b < 0 || b >= n) {
                PyErr_Format(PyExc_ValueError, "maps entry %d out of range", b);
                goto done;
            }
            if (b < a) {
                set_bit(down, a, W);
                moves = 1;
            } else if (b == a) {
                set_bit(fixed, a, W);
            }
        }
        kept += moves;
    }
    s->alive = PyMem_New(int, (size_t)kept * (n + 1));
    if (s->alive == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int k = 0; k < kept; k++)
        s->alive[k] = k;
    s->nmaps = s->nalive[0] = kept;
    rc = 0;
done:
    PyBuffer_Release(&buf);
    return rc;
}

/* Canonical DFS, one branch per root (first element) 1 .. n-1, or per entry
 * of roots.  Each root has its own node budget.  In mode max each root
 * prunes against max(floor_len, its own best) and reads only its own memo
 * entries, never other roots', so each root's node count and budget use
 * depend on that root alone; in mode collect the best length, from
 * floor_len up, is shared by all roots.  See the pure lane for the modes. */
static PyObject *
search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ctx", "mode", "target", "floor_len", "budget",
                             "state_cap", "roots", "maps", NULL};
    PyObject *ctx_obj, *budget_obj, *roots_obj = Py_None, *maps_obj = Py_None;
    const char *mode;
    int target, floor_len;
    long long state_cap;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OsiiOL|OO:search", kwlist,
                                     &ctx_obj, &mode, &target, &floor_len,
                                     &budget_obj, &state_cap, &roots_obj,
                                     &maps_obj))
        return NULL;
    const Context *c = get_context(ctx_obj);
    if (c == NULL)
        return NULL;
    int mode_id = 0, nmodes = (int)(sizeof MODES / sizeof *MODES);
    while (mode_id < nmodes && strcmp(mode, MODES[mode_id]) != 0)
        mode_id++;
    if (mode_id == nmodes) {
        PyErr_Format(PyExc_ValueError, "unknown search mode '%s'", mode);
        return NULL;
    }
    int overflow;
    long long budget = PyLong_AsLongLongAndOverflow(budget_obj, &overflow);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    int *roots = PyMem_New(int, c->n);
    if (roots == NULL)
        return PyErr_NoMemory();
    int nroots = read_roots(roots_obj, c->n, roots);
    Search *s = nroots < 0 ? NULL : search_new(c, state_cap, c->n + 1);
    if (s == NULL) {
        PyMem_Free(roots);
        return NULL;
    }
    s->mode = mode_id;
    s->target = target;
    s->budget = budget;
    s->best = floor_len;
    s->found = PyList_New(0);
    int complete = 1, best_len = floor_len;
    long long total_nodes = 0;
    PyObject *witness = Py_NewRef(Py_None), *result = NULL;
    if (s->found == NULL || read_maps(s, maps_obj) < 0)
        goto done;
    s->memoize = s->mode == MODE_MAX && c->abelian;

    for (int i = 0; i < nroots; i++) {
        int root = roots[i];
        s->root = root;
        s->nodes = 0;
        if (s->mode != MODE_COLLECT)
            s->best = floor_len;
        if (!c->abelian)
            table_reset(&s->dp, c);
        int rc = visit_root(s, root);
        if (rc == VISIT_ERROR)
            goto done;
        if (rc == VISIT_ABORT)
            complete = 0;
        total_nodes += s->nodes;
        /* in mode max, best above floor_len means a witness was recorded */
        if (s->mode == MODE_COLLECT) {
            best_len = s->best;
        } else if (s->best > best_len) {
            best_len = s->best;
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
    PyMem_Free(roots);
    return result;
}

/* Leftmost canonical descent: always append the least feasible element.
 * Returns (length, witness tuple, nodes); see the pure lane. */
static PyObject *
greedy(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ctx", "state_cap", NULL};
    PyObject *ctx_obj;
    long long state_cap;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OL:greedy", kwlist,
                                     &ctx_obj, &state_cap))
        return NULL;
    const Context *c = get_context(ctx_obj);
    if (c == NULL)
        return NULL;
    Search *s = search_new(c, state_cap, c->n + 1);
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
                || extend(s, c->inv[e], s->reach + (size_t)len * W,
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
    PyObject *ctx_obj, *elems_obj, *counts_obj, *until_obj;
    long long state_cap;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOL:reachable", kwlist,
                                     &ctx_obj, &elems_obj, &counts_obj,
                                     &until_obj, &state_cap))
        return NULL;
    const Context *c = get_context(ctx_obj);
    if (c == NULL)
        return NULL;
    Py_ssize_t k = PySequence_Size(elems_obj);
    if (k < 0)
        return NULL;
    uint64_t until[MAX_WORDS];
    if (read_mask(until_obj, c, until) < 0)
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
    for (Py_ssize_t j = 0; j < k && states <= max_states; j++) {
        long long factor = counts[j] + 1LL;
        states = states > max_states / factor ? max_states + 1 : states * factor;
    }
    if (states > max_states) {
        limit_error("reachability", state_cap);
        goto done;
    }
    for (Py_ssize_t j = 0; j < k; j++)
        copies[elems[j]] += counts[j];
    s = search_new(c, state_cap, 2);
    if (s == NULL)
        goto done;
    /* Canonical order: every copy of e before any larger element.  The
     * path alternates between the two reach slots; slot 0 starts empty.
     * Once the reach set is the whole group no append can change it or the
     * hit flag, so the loop stops there as it does on a hit. */
    int W = c->words, slot = 0, hit = 0, full = 0;
    for (int e = 0; e < c->n && !hit && !full; e++) {
        for (long long i = 0; i < copies[e] && !hit && !full; i++, slot ^= 1) {
            uint64_t *reach = s->reach + (size_t)slot * W;
            uint64_t *child = s->reach + (size_t)(slot ^ 1) * W;
            if (extend(s, e, reach, child, W) < 0)
                goto done;
            for (int w = 0; w < W; w++)
                hit |= (child[w] & until[w]) != 0;
            full = popcount(child, W) == c->n;
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
     "build_context(n, mul_flat, inv, identity, radix)\n--\n\n"
     "Product tables for one group of order <= 4096; mul_flat (n*n) and inv\n"
     "(n) are C-contiguous buffers of native int16.  radix is None for a\n"
     "non-abelian group and the (stride, order) pairs of the cyclic factors\n"
     "of an abelian one: at order <= 64 translate then turns each factor by\n"
     "two masked shifts, checked against every product (ValueError on a\n"
     "mismatch), with no byte tables.  Larger orders read only whether it is\n"
     "None."},
    {"greedy", (PyCFunction)(void (*)(void))greedy, METH_VARARGS | METH_KEYWORDS,
     "greedy(ctx, state_cap)\n--\n\n"
     "Leftmost canonical descent; returns (length, witness, nodes)."},
    {"search", (PyCFunction)(void (*)(void))search, METH_VARARGS | METH_KEYWORDS,
     "search(ctx, mode, target, floor_len, budget, state_cap, roots=None,\n"
     "       maps=None)\n"
     "--\n\n"
     "Canonical DFS in mode 'max', 'enum' or 'collect', one branch per root\n"
     "1 .. n-1, or per entry of roots (strictly increasing indices in\n"
     "1 .. n-1; the engine passes the Aut(G)-orbit minima to 'max' and\n"
     "'collect').  maps, a buffer of native int16 holding whole maps of n\n"
     "images, lists automorphisms: a child that a map fixing the path sends\n"
     "to a smaller index is skipped.  Mode 'max' on an abelian context keeps\n"
     "a failure memo of 4096 walked subtrees.  Same contract as the pure\n"
     "lane."},
    {"reachable", (PyCFunction)(void (*)(void))reachable,
     METH_VARARGS | METH_KEYWORDS,
     "reachable(ctx, elems, counts, until_mask, state_cap)\n--\n\n"
     "Products of nonempty sub-multisets as (mask, hit): the copies are\n"
     "appended in increasing element order with the search's own step, which\n"
     "stops after the first append that reaches until_mask or fills the\n"
     "whole group (the full mask is then exact).  A state space above\n"
     "state_cap words is refused up front with zerosum.engine.EngineLimitError."},
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
#if defined(__x86_64__) && defined(__POPCNT__)
    if (!__builtin_cpu_supports("popcnt")) {
        PyErr_SetString(PyExc_ImportError,
                        "zerosum._kernel was built with -mpopcnt and this CPU "
                        "has no POPCNT instruction");
        return NULL;
    }
#endif
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "LANE", "compiled") < 0
            || PyModule_AddStringConstant(m, "SOURCE_SHA256", SOURCE_SHA256) < 0
            || PyModule_AddIntConstant(m, "MAX_ORDER", MAX_ORDER) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
