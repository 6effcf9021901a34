/* Compiled two-core replay loop for the Fig. 11 defense evaluation.
 *
 * One exported function, replay(), runs the whole interleaved loop of
 * repro.workloads.runner._replay_python over state copied out of a
 * System: L1/L2/LLC lookup and fill with inclusive back-invalidation,
 * LRU and SRRIP replacement, the IP-stride and streamer prefetchers with
 * the in-flight prefetch-fill FIFO, and the memory controller's bank
 * state machine under the open, closed (CRP) and constant-time (CTD)
 * policies.  Every step mirrors the Python code it replaces, in the same
 * order, so the two paths are bit-identical; native.py copies the state
 * in and back out and decides when the kernel may run at all.
 *
 * Build: cc -O2 -shared -fPIC replay.c -o replay.so (native.py does this).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One cache level.  Slot s*ways+w is way w of set s; tags[slot] is the
 * line number held there, -1 for an invalid way. */
typedef struct {
    int64_t sets, ways, line_bytes;
    int64_t lru;          /* 1: LRU (repl = last-use stamps), 0: SRRIP */
    int64_t max_rrpv, insert_rrpv;
    int64_t stamp;        /* LRU clock */
    int64_t stats[6];     /* hits misses fills evictions writebacks invalidations */
    int64_t *tags, *dirty, *repl;
} Cache;

/* A prefetcher table as an insertion-ordered list of rows (oldest first),
 * the order Python's dict keeps: a touched entry moves to the end and
 * trimming drops the front. */
typedef struct {
    int64_t n, capacity, degree, line_bytes, region_bytes;
    int64_t *rows;        /* IP-stride: pc addr stride confidence;
                             streamer: region line direction */
} Table;

/* A RefStream's columns, read in place: reference i touches addr[i]
 * from pc[i] (a write when writes[i]) after compute cycles of work. */
typedef struct {
    int64_t n, compute;
    int64_t *addr, *pc;
    uint8_t *writes;
} Stream;

enum { CACHE_HITS, CACHE_MISSES, CACHE_FILLS, CACHE_EVICTIONS,
       CACHE_WRITEBACKS, CACHE_INVALIDATIONS };
enum { H_DEMAND, H_PREFETCHES, H_CLFLUSHES, H_NT, H_NT_BYPASSES,
       H_MEM_WRITEBACKS, H_LATE_STALLS };
/* Bank rows: open_row (-1 = precharged), busy_until, last_activation,
 * row_opened_at, then BankStats hits empties conflicts activations
 * rowclones. */
enum { B_OPEN, B_BUSY, B_LAST_ACT, B_OPENED_AT, B_HITS, B_EMPTIES,
       B_CONFLICTS, B_ACTIVATIONS, B_ROWCLONES, BANK_WIDTH };
/* Controller RequestorStats rows (core c at 2c, its "-pf" name at 2c+1):
 * reads writes activates rowclones hits conflicts, then an order field. */
enum { C_READS, C_WRITES, C_ACTIVATES, C_ROWCLONES, C_HITS, C_CONFLICTS,
       C_ORDER, CREQ_WIDTH };
/* Hierarchy RequestorCacheStats rows, one per core: accesses llc_misses
 * clflushes nt_accesses first_seen last_seen, then an order field. */
enum { R_ACCESSES, R_MISSES, R_CLFLUSHES, R_NT, R_FIRST, R_LAST, R_ORDER,
       HREQ_WIDTH };
/* Order fields: -1 = the entry existed before the run, -2 = absent;
 * the kernel writes the creation sequence number when it creates one, so
 * the caller can insert new dict entries in the order Python would. */
#define ORDER_ABSENT (-2)

enum { MAP_ROW, MAP_LINE, MAP_XOR };

/* CacheHierarchy._run_prefetchers keeps at most this many in-flight fills. */
#define INFLIGHT_LIMIT 512

typedef struct {
    int64_t ncores, nstreams;
    Cache *l1, *l2, *llc;              /* l1/l2: ncores each */
    int64_t l1_latency, l2_latency, llc_latency, line_bytes, capacity;
    int64_t hstats[7];
    int64_t *hreq;                     /* ncores x HREQ_WIDTH */
    int64_t prefetch;                  /* prefetchers enabled */
    Table *ip, *streamer;              /* ncores each */
    /* In-flight fills in dict order, in and out; the arrays have room for
     * max(inflight_n, INFLIGHT_LIMIT) + 1 rows. */
    int64_t inflight_n;
    int64_t *inflight_keys, *inflight_vals;
    /* Memory controller and DRAM. */
    int64_t queue_cycles, locked_until, close_after, constant_time;
    int64_t mapping, row_bytes, num_banks, dram_line_bytes, lines_per_row;
    int64_t hit_cycles, empty_cycles, conflict_cycles, rp_cycles;
    int64_t timeout_cycles;
    int64_t *banks;                    /* num_banks x BANK_WIDTH */
    int64_t *creq;                     /* 2*ncores x CREQ_WIDTH */
    Stream *streams;                   /* nstreams */
    /* Results. */
    int64_t cycles, instructions, refs, llc_misses;
} Machine;

/* x / d and x % d for x >= 0: a shift and a mask when d is a power of
 * two (every geometry in the paper's configurations), sparing a 64-bit
 * division on each of the several lookups per reference. */
static inline int64_t quot(int64_t x, int64_t d)
{
    return (d & (d - 1)) ? x / d : x >> __builtin_ctzll((uint64_t)d);
}

static inline int64_t rem(int64_t x, int64_t d)
{
    return (d & (d - 1)) ? x % d : x & (d - 1);
}

/* ------------------------------------------------------------------ */
/* In-flight prefetch fills: an insertion-ordered map line -> finish.   */
/* Entries live in an append-only log (FIFO order; an update keeps the */
/* entry's position, as a dict assignment does); an open-addressing    */
/* index finds them by line without scanning the FIFO.                 */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *key, *val;
    uint8_t *live;
    int64_t head, tail, cap, count;
    int64_t *index;                    /* log position + 1; 0 = empty */
    uint64_t mask;
} Fifo;

static uint64_t fifo_home(const Fifo *f, int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (h ^ (h >> 31)) & f->mask;
}

/* Index slot holding key, or the empty slot where it would go. */
static uint64_t fifo_slot(const Fifo *f, int64_t key)
{
    uint64_t p = fifo_home(f, key);
    while (f->index[p] && f->key[f->index[p] - 1] != key)
        p = (p + 1) & f->mask;
    return p;
}

/* Linear-probing deletion by backward shift: no tombstones. */
static void fifo_unindex(Fifo *f, uint64_t p)
{
    uint64_t j = p;
    f->index[p] = 0;
    for (;;) {
        j = (j + 1) & f->mask;
        if (!f->index[j])
            return;
        uint64_t home = fifo_home(f, f->key[f->index[j] - 1]);
        /* Move j's entry into the hole unless its home lies cyclically
         * in (p, j]. */
        int stays = (p <= j) ? (p < home && home <= j)
                             : (p < home || home <= j);
        if (!stays) {
            f->index[p] = f->index[j];
            f->index[j] = 0;
            p = j;
        }
    }
}

static void fifo_reindex(Fifo *f)
{
    memset(f->index, 0, (f->mask + 1) * sizeof(int64_t));
    for (int64_t i = f->head; i < f->tail; i++)
        if (f->live[i])
            f->index[fifo_slot(f, f->key[i])] = i + 1;
}

static int fifo_init(Fifo *f, int64_t n)
{
    uint64_t size = 64;
    f->cap = 4 * (n + INFLIGHT_LIMIT + 1);
    while (size < 2 * (uint64_t)(n + INFLIGHT_LIMIT + 1))
        size <<= 1;
    f->mask = size - 1;
    f->key = malloc(f->cap * sizeof(int64_t));
    f->val = malloc(f->cap * sizeof(int64_t));
    f->live = malloc(f->cap);
    f->index = calloc(size, sizeof(int64_t));
    f->head = f->tail = f->count = 0;
    return f->key && f->val && f->live && f->index;
}

static void fifo_free(Fifo *f)
{
    free(f->key);
    free(f->val);
    free(f->live);
    free(f->index);
}

static void fifo_set(Fifo *f, int64_t key, int64_t val)
{
    uint64_t p = fifo_slot(f, key);
    if (f->index[p]) {
        f->val[f->index[p] - 1] = val;
        return;
    }
    if (f->tail == f->cap) {
        /* Compact live entries to the front, keeping their order. */
        int64_t out = 0;
        for (int64_t i = f->head; i < f->tail; i++) {
            if (!f->live[i])
                continue;
            f->key[out] = f->key[i];
            f->val[out] = f->val[i];
            f->live[out] = 1;
            out++;
        }
        f->head = 0;
        f->tail = out;
        fifo_reindex(f);
        p = fifo_slot(f, key);
    }
    f->key[f->tail] = key;
    f->val[f->tail] = val;
    f->live[f->tail] = 1;
    f->index[p] = ++f->tail;
    f->count++;
}

/* Remove key; returns 1 and its value in *val if it was present. */
static int fifo_pop(Fifo *f, int64_t key, int64_t *val)
{
    uint64_t p = fifo_slot(f, key);
    if (!f->index[p])
        return 0;
    int64_t pos = f->index[p] - 1;
    *val = f->val[pos];
    f->live[pos] = 0;
    f->count--;
    fifo_unindex(f, p);
    return 1;
}

static void fifo_pop_oldest(Fifo *f)
{
    int64_t val;
    while (!f->live[f->head])
        f->head++;
    fifo_pop(f, f->key[f->head], &val);
}

/* ------------------------------------------------------------------ */
/* Cache (repro.cache.cache.Cache)                                      */
/* ------------------------------------------------------------------ */

static int64_t cache_find(const Cache *c, int64_t line)
{
    int64_t base = rem(line, c->sets) * c->ways;
    for (int64_t s = base; s < base + c->ways; s++)
        if (c->tags[s] == line)
            return s;
    return -1;
}

/* Replacement update for a hit, or a fill of a resident line. */
static void cache_touch(Cache *c, int64_t slot)
{
    if (c->lru)
        c->repl[slot] = ++c->stamp;
    else
        c->repl[slot] = 0;
}

/* Cache.access: 1 on hit. */
static int cache_access(Cache *c, int64_t addr, int is_write)
{
    int64_t slot = cache_find(c, quot(addr, c->line_bytes));
    if (slot < 0) {
        c->stats[CACHE_MISSES]++;
        return 0;
    }
    cache_touch(c, slot);
    if (is_write)
        c->dirty[slot] = 1;
    c->stats[CACHE_HITS]++;
    return 1;
}

/* LRUPolicy.victim / SRRIPPolicy.victim over a full set. */
static int64_t cache_victim(Cache *c, int64_t base)
{
    int64_t *r = c->repl + base;
    int64_t ways = c->ways, best = 0;
    if (c->lru) {
        for (int64_t w = 1; w < ways; w++)
            if (r[w] < r[best])
                best = w;
        return base + best;
    }
    for (int64_t w = 0; w < ways; w++)
        if (r[w] == c->max_rrpv)
            return base + w;
    /* No way at max: age every way by the distance to the nearest one. */
    int64_t top = r[0];
    for (int64_t w = 1; w < ways; w++)
        if (r[w] > top)
            top = r[w];
    for (int64_t w = 0; w < ways; w++)
        r[w] += c->max_rrpv - top;
    while (r[best] != c->max_rrpv)
        best++;
    return base + best;
}

/* Cache.fill: returns 1 and the evicted line's byte address and dirty
 * bit when a valid line was pushed out. */
static int cache_fill(Cache *c, int64_t addr, int dirty,
                      int64_t *ev_addr, int *ev_dirty)
{
    int64_t line = quot(addr, c->line_bytes);
    int64_t slot = cache_find(c, line);
    int evicted = 0;
    if (slot >= 0) {
        cache_touch(c, slot);
        if (dirty)
            c->dirty[slot] = 1;
        return 0;
    }
    int64_t base = rem(line, c->sets) * c->ways;
    for (int64_t s = base; s < base + c->ways; s++) {
        if (c->tags[s] == -1) {
            slot = s;
            break;
        }
    }
    if (slot < 0) {
        slot = cache_victim(c, base);
        *ev_addr = c->tags[slot] * c->line_bytes;
        *ev_dirty = (int)c->dirty[slot];
        evicted = 1;
        c->stats[CACHE_EVICTIONS]++;
        if (*ev_dirty)
            c->stats[CACHE_WRITEBACKS]++;
    }
    c->tags[slot] = line;
    c->dirty[slot] = dirty;
    if (c->lru)
        c->repl[slot] = ++c->stamp;
    else
        c->repl[slot] = c->insert_rrpv;
    c->stats[CACHE_FILLS]++;
    return evicted;
}

/* Cache.fill with the evicted line discarded. */
static void cache_fill_drop(Cache *c, int64_t addr, int dirty)
{
    int64_t ev_addr;
    int ev_dirty;
    cache_fill(c, addr, dirty, &ev_addr, &ev_dirty);
}

/* Cache.invalidate: -1 if absent, else the line's dirty bit. */
static int cache_invalidate(Cache *c, int64_t addr)
{
    int64_t slot = cache_find(c, quot(addr, c->line_bytes));
    if (slot < 0)
        return -1;
    int dirty = (int)c->dirty[slot];
    c->dirty[slot] = 0;
    c->tags[slot] = -1;
    c->stats[CACHE_INVALIDATIONS]++;
    return dirty;
}

/* ------------------------------------------------------------------ */
/* Memory controller (MemoryController._access_core, Bank.access_raw)   */
/* ------------------------------------------------------------------ */

static void decode(const Machine *m, int64_t addr, int64_t *bank,
                   int64_t *row)
{
    if (m->mapping == MAP_LINE) {
        int64_t line = quot(addr, m->dram_line_bytes);
        *bank = rem(line, m->num_banks);
        *row = quot(quot(line, m->num_banks), m->lines_per_row);
        return;
    }
    int64_t rest = quot(addr, m->row_bytes);
    *row = quot(rest, m->num_banks);
    *bank = rem(rest, m->num_banks);
    if (m->mapping == MAP_XOR)
        *bank ^= *row & (m->num_banks - 1);
}

enum { KIND_HIT, KIND_EMPTY, KIND_CONFLICT };

/* One DRAM read or write; returns its finish time.  requestor indexes
 * m->creq (2*core, or 2*core+1 for the core's prefetches). */
static int64_t dram_access(Machine *m, int64_t *seq, int64_t addr,
                           int64_t issued, int64_t requestor, int is_write)
{
    int64_t bank_index, row;
    decode(m, addr, &bank_index, &row);
    int64_t start = issued + m->queue_cycles;
    if (start < m->locked_until)
        start = m->locked_until;
    int64_t *b = m->banks + bank_index * BANK_WIDTH;
    int64_t service = start >= b[B_BUSY] ? start : b[B_BUSY];
    int64_t current = b[B_OPEN];
    if (current >= 0 && m->timeout_cycles > 0
            && service - b[B_LAST_ACT] > m->timeout_cycles)
        current = -1;
    int kind;
    int64_t latency;
    if (current == row) {
        kind = KIND_HIT;
        latency = m->hit_cycles;
        b[B_HITS]++;
    } else if (current < 0) {
        kind = KIND_EMPTY;
        latency = m->empty_cycles;
        b[B_EMPTIES]++;
        b[B_ACTIVATIONS]++;
        b[B_OPENED_AT] = service;
    } else {
        kind = KIND_CONFLICT;
        latency = m->conflict_cycles;
        b[B_CONFLICTS]++;
        b[B_ACTIVATIONS]++;
        b[B_OPENED_AT] = service + m->rp_cycles;
    }
    int64_t finish = service + latency;
    b[B_LAST_ACT] = finish;
    if (m->close_after) {
        b[B_OPEN] = -1;
        b[B_BUSY] = finish + m->rp_cycles;
    } else {
        b[B_OPEN] = row;
        b[B_BUSY] = finish;
    }
    if (m->constant_time) {
        /* CTD: worst-case latency, and the bank stays busy for it. */
        finish = service + m->conflict_cycles;
        if (b[B_BUSY] < finish)
            b[B_BUSY] = finish;
    }
    int64_t *s = m->creq + requestor * CREQ_WIDTH;
    if (s[C_ORDER] == ORDER_ABSENT)
        s[C_ORDER] = (*seq)++;
    s[is_write ? C_WRITES : C_READS]++;
    if (kind == KIND_HIT)
        s[C_HITS]++;
    else if (kind == KIND_CONFLICT)
        s[C_CONFLICTS]++;
    return finish;
}

/* ------------------------------------------------------------------ */
/* Cache hierarchy (repro.cache.hierarchy.CacheHierarchy)               */
/* ------------------------------------------------------------------ */

typedef struct {
    Machine *m;
    Fifo inflight;
    int64_t creq_seq, hreq_seq;
    int64_t *candidates;
} Run;

/* _handle_llc_eviction: back-invalidate every L1 then every L2; write a
 * dirty line back to DRAM off the critical path. */
static void llc_evicted(Run *r, int64_t addr, int dirty, int64_t time,
                        int64_t core)
{
    Machine *m = r->m;
    for (int64_t i = 0; i < m->ncores; i++)
        if (cache_invalidate(&m->l1[i], addr) == 1)
            dirty = 1;
    for (int64_t i = 0; i < m->ncores; i++)
        if (cache_invalidate(&m->l2[i], addr) == 1)
            dirty = 1;
    if (dirty) {
        dram_access(m, &r->creq_seq, addr, time, 2 * core, 1);
        m->hstats[H_MEM_WRITEBACKS]++;
    }
}

/* _fill_l1.  Known modelling gap, kept for bit-identity with the Python
 * path: the dirty L1 victim is written into L2, and whatever that fill
 * evicts from L2 is dropped -- L2 does not include L1, so a dirty L2
 * victim loses its write-back here (ROADMAP item 4). */
static void fill_l1(Machine *m, int64_t core, int64_t addr, int is_write)
{
    int64_t ev_addr;
    int ev_dirty;
    if (cache_fill(&m->l1[core], addr, is_write, &ev_addr, &ev_dirty)
            && ev_dirty)
        cache_fill_drop(&m->l2[core], ev_addr, 1);
}

/* _fill_upper (LLC hit): L2 then L1; a dirty L2 victim goes to the LLC. */
static void fill_upper(Machine *m, int64_t core, int64_t addr, int is_write)
{
    int64_t ev_addr;
    int ev_dirty;
    if (cache_fill(&m->l2[core], addr, 0, &ev_addr, &ev_dirty) && ev_dirty)
        cache_fill_drop(m->llc, ev_addr, 1);
    fill_l1(m, core, addr, is_write);
}

/* _fill_all (memory access): LLC, then L2, then L1. */
static void fill_all(Run *r, int64_t core, int64_t addr, int is_write,
                     int64_t time)
{
    Machine *m = r->m;
    int64_t ev_addr;
    int ev_dirty;
    if (cache_fill(m->llc, addr, 0, &ev_addr, &ev_dirty))
        llc_evicted(r, ev_addr, ev_dirty, time, core);
    fill_upper(m, core, addr, is_write);
}

/* Insertion-ordered table helpers: index of key in column 0, or -1.
 * Keys are unique; the scan starts at the newest row, where a stream's
 * key usually is. */
static int64_t table_find(const Table *t, int64_t width, int64_t key)
{
    for (int64_t i = t->n - 1; i >= 0; i--)
        if (t->rows[i * width] == key)
            return i;
    return -1;
}

static void table_remove(Table *t, int64_t width, int64_t i)
{
    memmove(t->rows + i * width, t->rows + (i + 1) * width,
            (t->n - i - 1) * width * sizeof(int64_t));
    t->n--;
}

static int64_t *table_append(Table *t, int64_t width)
{
    return t->rows + (t->n++) * width;
}

/* A brand-new key is the only way a table grows, so trim only then. */
static void table_trim(Table *t, int64_t width)
{
    while (t->n > t->capacity)
        table_remove(t, width, 0);
}

/* IPStridePrefetcher.observe; writes candidates to out, returns how
 * many.  Negative candidates are left in: the caller's range check
 * skips them, exactly as Python's filter would have dropped them. */
static int64_t ip_observe(Table *t, int64_t pc, int64_t addr, int64_t *out)
{
    int64_t i = table_find(t, 4, pc);
    if (i < 0) {
        int64_t *row = table_append(t, 4);
        row[0] = pc;
        row[1] = addr;
        row[2] = 0;
        row[3] = 0;
        table_trim(t, 4);
        return 0;
    }
    int64_t last_addr = t->rows[i * 4 + 1];
    int64_t last_stride = t->rows[i * 4 + 2];
    int64_t confidence = t->rows[i * 4 + 3];
    table_remove(t, 4, i);
    int64_t stride = addr - last_addr;
    if (stride != 0 && stride == last_stride)
        confidence = confidence + 1 < 3 ? confidence + 1 : 3;
    else if (stride != 0)
        confidence = 0;
    int64_t *row = table_append(t, 4);
    row[0] = pc;
    row[1] = addr;
    row[2] = stride != 0 ? stride : last_stride;
    row[3] = confidence;
    if (confidence < 1 || stride == 0)
        return 0;
    for (int64_t k = 0; k < t->degree; k++)
        out[k] = addr + stride * (k + 1);
    return t->degree;
}

/* StreamerPrefetcher.observe (same conventions as ip_observe). */
static int64_t streamer_observe(Table *t, int64_t addr, int64_t *out)
{
    int64_t region = quot(addr, t->region_bytes);
    int64_t line = quot(addr, t->line_bytes);
    int64_t i = table_find(t, 3, region);
    int64_t n = 0;
    if (i < 0) {
        int64_t *row = table_append(t, 3);
        row[0] = region;
        row[1] = line;
        row[2] = 0;
        table_trim(t, 3);
        return 0;
    }
    int64_t last_line = t->rows[i * 3 + 1];
    int64_t direction = t->rows[i * 3 + 2];
    table_remove(t, 3, i);
    int64_t step = line - last_line;
    if (step != 0) {
        int64_t next = step > 0 ? 1 : -1;
        if (direction == next)
            for (; n < t->degree; n++)
                out[n] = (line + next * (n + 1)) * t->line_bytes;
        direction = next;
    }
    int64_t *row = table_append(t, 3);
    row[0] = region;
    row[1] = line;
    row[2] = direction;
    return n;
}

/* _run_prefetchers. */
static void run_prefetchers(Run *r, int64_t core, int64_t pc, int64_t addr,
                            int64_t time)
{
    Machine *m = r->m;
    if (!m->prefetch)
        return;
    int64_t *cand = r->candidates;
    int64_t n = ip_observe(&m->ip[core], pc, addr, cand);
    n += streamer_observe(&m->streamer[core], addr, cand + n);
    for (int64_t k = 0; k < n; k++) {
        int64_t pa = cand[k];
        if (pa < 0 || pa >= m->capacity)
            continue;
        int64_t line_addr = pa - rem(pa, m->line_bytes);
        if (cache_find(m->llc, quot(line_addr, m->llc->line_bytes)) >= 0)
            continue;
        fifo_set(&r->inflight, line_addr,
                 dram_access(m, &r->creq_seq, line_addr, time,
                             2 * core + 1, 0));
        while (r->inflight.count > INFLIGHT_LIMIT)
            fifo_pop_oldest(&r->inflight);
        int64_t ev_addr;
        int ev_dirty;
        if (cache_fill(m->llc, line_addr, 0, &ev_addr, &ev_dirty))
            llc_evicted(r, ev_addr, ev_dirty, time, core);
        /* As in Python, a dirty L2 victim of a prefetch fill is dropped. */
        cache_fill_drop(&m->l2[core], line_addr, 0);
        m->hstats[H_PREFETCHES]++;
    }
}

/* CacheHierarchy.access; returns the finish time, sets *level. */
static int64_t hierarchy_access(Run *r, int64_t core, int64_t addr,
                                int64_t issued, int is_write, int64_t pc,
                                int *level)
{
    Machine *m = r->m;
    int64_t stall = 0, completion;
    m->hstats[H_DEMAND]++;
    if (r->inflight.count
            && fifo_pop(&r->inflight, addr - rem(addr, m->line_bytes),
                        &completion)) {
        m->hstats[H_LATE_STALLS]++;
        stall = completion - issued > 0 ? completion - issued : 0;
    }
    int64_t latency = stall + m->l1_latency;
    if (cache_access(&m->l1[core], addr, is_write)) {
        *level = 1;
    } else {
        latency += m->l2_latency;
        if (cache_access(&m->l2[core], addr, 0)) {
            fill_l1(m, core, addr, is_write);
            *level = 2;
        } else {
            latency += m->llc_latency;
            if (cache_access(m->llc, addr, 0)) {
                fill_upper(m, core, addr, is_write);
                *level = 3;
            } else {
                int64_t finish = dram_access(m, &r->creq_seq, addr,
                                             issued + latency, 2 * core,
                                             is_write);
                latency = finish - issued;
                fill_all(r, core, addr, is_write, finish);
                *level = 0;
            }
        }
    }
    /* HierarchyStats.observe */
    int64_t *s = m->hreq + core * HREQ_WIDTH;
    if (s[R_ORDER] == ORDER_ABSENT)
        s[R_ORDER] = r->hreq_seq++;
    if (s[R_ACCESSES] == 0 && s[R_CLFLUSHES] == 0)
        s[R_FIRST] = issued;
    if (issued > s[R_LAST])
        s[R_LAST] = issued;
    s[R_ACCESSES]++;
    if (*level == 0)
        s[R_MISSES]++;
    run_prefetchers(r, core, pc, addr, issued + latency);
    return issued + latency;
}

/* ------------------------------------------------------------------ */
/* The replay loop (runner._replay_python)                              */
/* ------------------------------------------------------------------ */

/* Compute gaps are bounded so every clock stays far inside int64
 * (RefStream enforces the same bound, kernels.MAX_COMPUTE). */
#define MAX_COMPUTE (INT64_C(1) << 32)

/* 1 if every address lies in [0, capacity) and every compute gap is
 * bounded; the Python path raises on a bad address, so the kernel must
 * not run such a stream at all. */
static int streams_in_range(const Machine *m)
{
    for (int64_t c = 0; c < m->nstreams; c++) {
        const Stream *s = &m->streams[c];
        if (s->compute < 0 || s->compute >= MAX_COMPUTE)
            return 0;
        for (int64_t i = 0; i < s->n; i++)
            if (s->addr[i] < 0 || s->addr[i] >= m->capacity)
                return 0;
    }
    return 1;
}

/* Returns 0 on success; 1 if a stream is out of range, -1 if memory ran
 * out -- both before anything changed. */
int replay(Machine *m)
{
    if (!streams_in_range(m))
        return 1;
    Run r = {.m = m};
    int64_t max_degree = 0;
    for (int64_t c = 0; m->prefetch && c < m->ncores; c++)
        if (m->ip[c].degree + m->streamer[c].degree > max_degree)
            max_degree = m->ip[c].degree + m->streamer[c].degree;
    int64_t *cursor = calloc(m->nstreams + 1, sizeof(int64_t));
    int64_t *times = calloc(m->nstreams + 1, sizeof(int64_t));
    r.candidates = malloc((max_degree + 1) * sizeof(int64_t));
    int ok = cursor && times && r.candidates
        && fifo_init(&r.inflight, m->inflight_n);
    if (!ok) {
        free(cursor);
        free(times);
        free(r.candidates);
        fifo_free(&r.inflight);
        return -1;
    }
    for (int64_t i = 0; i < m->inflight_n; i++)
        fifo_set(&r.inflight, m->inflight_keys[i], m->inflight_vals[i]);
    int64_t instructions = 0, refs = 0, misses = 0;
    for (;;) {
        /* The runnable core with the lowest time; ties go to the lower
         * core (min() over the ascending active list). */
        int64_t core = -1;
        for (int64_t c = 0; c < m->nstreams; c++)
            if (cursor[c] < m->streams[c].n
                    && (core < 0 || times[c] < times[core]))
                core = c;
        if (core < 0)
            break;
        Stream *s = &m->streams[core];
        int64_t i = cursor[core]++;
        int level;
        times[core] = hierarchy_access(&r, core, s->addr[i],
                                       times[core] + s->compute,
                                       s->writes[i], s->pc[i], &level);
        instructions += 1 + s->compute;
        refs++;
        if (level == 0)
            misses++;
    }
    int64_t cycles = m->nstreams ? times[0] : 0;
    for (int64_t c = 1; c < m->nstreams; c++)
        if (times[c] > cycles)
            cycles = times[c];
    m->cycles = cycles;
    m->instructions = instructions;
    m->refs = refs;
    m->llc_misses = misses;
    /* Hand the in-flight fills back in FIFO order. */
    int64_t out = 0;
    for (int64_t i = r.inflight.head; i < r.inflight.tail; i++) {
        if (!r.inflight.live[i])
            continue;
        m->inflight_keys[out] = r.inflight.key[i];
        m->inflight_vals[out] = r.inflight.val[i];
        out++;
    }
    m->inflight_n = out;
    free(cursor);
    free(times);
    free(r.candidates);
    fifo_free(&r.inflight);
    return 0;
}
