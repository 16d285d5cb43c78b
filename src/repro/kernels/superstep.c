/* The step loop of repro.sampling.batched._run_block as one C function.
 *
 * The NumPy block is the oracle: every result here must equal it bit for
 * bit (DESIGN.md §16, "Native super-step").  That fixes the arithmetic:
 *
 *   - dE is the term-by-term sum NumPy performs on the (z, ends, rows) key
 *     array of kernels.ops._repaint_delta: start from the first term, then
 *     add k-major, end-minor; a shared i-j bond reads the null key; a flip
 *     adds field[new] - field[old] last; then energies[r] + dE.
 *   - the bin lookup mirrors sampling.binning.StackedGrids.index_rows.
 *   - a swap row-step draws its pair from its team's own NumPy bit
 *     generator (bitgen_t) at the step that resolves it, as SwapBlock.resolve
 *     does: every local row draws i then j, in row order; the rows whose
 *     pair fails draw again, in row order, for up to MAX_TRIES passes.  A
 *     draw is draw_below, NumPy's bounded draw, so both blocks consume the
 *     same values and leave the generator in the same state.
 *   - the commit is Wang-Landau's: rows of a window in order, each seeing
 *     every earlier deposit.  A team with a beta array is canonical instead:
 *     row r accepts on ln u < -beta[r] * dE, and nothing is binned.
 *   - a pooled row-step (pick >= 0) takes candidate i: its energy, dE =
 *     E_i - E, and log q_cur - log q_i added to log alpha last.
 *   - log q_cur of a row that holds none for the candidate's component is
 *     made_log_q below, whose arithmetic both blocks share: the NumPy block
 *     scores through repro_made_log_q whenever this library is loaded.
 *
 * A row reads and writes only its own configuration and its window's ln g,
 * so resolve (and scoring) -> dE -> bin -> commit -> scatter run row by row
 * here where the oracle runs them phase by phase.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off (never -ffast-math or
 * -march=native: no fused multiply-add, no reassociation).  No Python
 * headers; repro.kernels.superstep fills the structs below through ctypes
 * after validating every index these loops read (sites, species, shifts,
 * bins) and every generator it hands over, so nothing here is
 * bounds-checked again.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {                 /* numpy/random/bitgen.h: bitgen_t */
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} Bitgen;

typedef struct {                 /* kernels.tables.PairTables (read-only) */
    int64_t n_sites, n_species, z, null_key;
    const int32_t *cat_table_T;  /* (z, n_sites) neighbour sites */
    const int16_t *shell_offsets;/* (z,) species-key offset per column */
    const double *diff_flat;     /* (S * S * (null_key + 1),) */
    const int32_t *pair_row;     /* (S,) diff_flat offset of old species */
    const int32_t *pair_col;     /* (S,) ... plus that of the new one */
    const double *field;         /* (S,) on-site energies, or NULL */
} Tables;

typedef struct {                 /* sampling.binning.StackedGrids */
    int64_t is_levels, n_marks;
    double tol;
    const double *marks;         /* (n_marks,) common edges or levels */
    const int64_t *table;        /* (n_windows, n_marks + 1) flat bins */
} Grids;

typedef struct {                 /* nn.models.made.MADE, unconditioned */
    int64_t n_layers;            /* Dense layers: the hidden ones, then the output */
    const int64_t *widths;       /* (n_layers + 1,) input, hidden..., output */
    const double *weights;       /* masked (in, out) weights, layer after layer */
    const double *biases;        /* (out,) biases, layer after layer */
    const int64_t *counts;       /* (n_species,) the fixed composition; NULL: free */
    int64_t *left;               /* (n_species,) scratch */
    double *scratch;             /* (sum of widths[1:],) activations, layer after layer */
} Made;

typedef struct {                 /* one walker team: an energy window, or canonical */
    int64_t rows, bin_offset, table_base;
    double e_max, ln_f;
    int8_t *configs;             /* (rows, n_sites) */
    double *energies;            /* (rows,) */
    int64_t *bins;               /* (rows,) window-local */
    double *ln_g;                /* (width,) */
    int64_t *histogram;          /* (width,) */
    uint8_t *visited;            /* (width,) */
    int64_t *slot_accepted;      /* (rows,) */
    const int64_t *field0;       /* pairs (n, rows, 2) sites; flip (n, rows) sites */
    const int64_t *field1;       /* flip (n, rows) shifts */
    const double *ln_u;          /* (n, rows) log-uniform acceptance noise */
    int64_t *move;               /* (rows, 2) this step's moves */
    Bitgen *rng;                 /* swap kinds: the team's generator; else NULL */
    const double *beta;          /* (rows,) inverse temperatures; NULL: Wang-Landau.
                                    A canonical team has no window: bins, ln_g,
                                    histogram, visited and the Grids are unused. */
    /* A pooled team (proposals.base.PooledBlock); pick NULL: none. */
    const int64_t *pick;         /* (n, rows) candidate index, -1: the local move */
    const int8_t *cand_configs;  /* (m, n_sites) */
    const double *cand_energy;   /* (m,) */
    const double *cand_log_q;    /* (m,) */
    const int64_t *cand_slot;    /* (m,) pooled component */
    const Made *made;            /* (components,) the pooled models, by slot */
    double *log_q;               /* (rows,) log q of the current configuration ... */
    int64_t *held;               /* (rows,) ... under this component; -1: none */
    int64_t accepted, out_of_grid, scored;   /* outputs, added to */
} Team;

enum { SWAP = 0, SWAP_DISTINCT = 1, FLIP = 2, GLOBAL = 3 /* candidates only */,
       PAIRS = 4 /* pre-drawn pairs */ };

/* SwapBlock's bound on the passes of its rejection loop
 * (proposals.local._MAX_DISTINCT_TRIES). */
#define MAX_TRIES 256

/* One integer in [0, n), 1 <= n < 2^32, as Generator.integers(n) draws it
 * (NumPy's random_bounded_uint64_fill): n = 1 draws nothing, else Lemire's
 * method on next_uint32, rejecting a draw whose low word is below
 * 2^32 mod n. */
static int64_t draw_below(Bitgen *g, uint32_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)g->next_uint32(g->state) * n;
    uint32_t leftover = (uint32_t)m;
    if (leftover < n) {
        const uint32_t threshold = (UINT32_MAX - (n - 1)) % n;
        while (leftover < threshold) {
            m = (uint64_t)g->next_uint32(g->state) * n;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* count draws below n into out: the self-test's view of draw_below. */
void repro_draw_below(Bitgen *g, int64_t n, int64_t count, int64_t *out)
{
    for (int64_t k = 0; k < count; k++)
        out[k] = draw_below(g, (uint32_t)n);
}

/* log q of one configuration under an unconditioned MADE, in one fixed
 * order: the first layer is the bias plus the weight row of each site's
 * species, added in site order (as MADE.sample decodes); each deeper layer
 * starts from its bias and adds k-major, skipping zero activations; then a
 * log-softmax per site over the species the composition still allows, the
 * sites summed in order.  A row off the composition has log q = -inf. */
static double made_log_q(const Made *m, int64_t n_sites, int64_t n_species,
                         const int8_t *cfg)
{
    const double *w = m->weights, *b = m->biases;
    double *h = m->scratch;
    int64_t width = m->widths[1];
    memcpy(h, b, (size_t)width * sizeof(double));
    for (int64_t i = 0; i < n_sites; i++) {
        const double *row = w + (i * n_species + cfg[i]) * width;
        for (int64_t j = 0; j < width; j++)
            h[j] += row[j];
    }
    w += m->widths[0] * width;
    b += width;
    for (int64_t layer = 1; layer < m->n_layers; layer++) {
        const int64_t in = width;
        double *out = h + in;
        width = m->widths[layer + 1];
        memcpy(out, b, (size_t)width * sizeof(double));
        for (int64_t k = 0; k < in; k++) {
            const double a = h[k] > 0.0 ? h[k] : 0.0;   /* ReLU */
            if (a == 0.0)
                continue;
            const double *row = w + k * width;
            for (int64_t j = 0; j < width; j++)
                out[j] += a * row[j];
        }
        w += in * width;
        b += width;
        h = out;
    }
    if (m->counts)
        memcpy(m->left, m->counts, (size_t)n_species * sizeof(int64_t));
    double total = 0.0;
    for (int64_t i = 0; i < n_sites; i++) {
        const double *logits = h + i * n_species;
        const int x = cfg[i];
        if (m->counts && m->left[x] <= 0)
            return -INFINITY;
        double top = -INFINITY, sum = 0.0;
        for (int64_t s = 0; s < n_species; s++)
            if (!m->counts || m->left[s] > 0)
                top = logits[s] > top ? logits[s] : top;
        for (int64_t s = 0; s < n_species; s++)
            if (!m->counts || m->left[s] > 0)
                sum += exp(logits[s] - top);
        total += (logits[x] - top) - log(sum);
        if (m->counts)
            m->left[x]--;
    }
    return total;
}

/* log q of `rows` configurations (rows, n_sites) under m, into out: the
 * NumPy block's scorer while this library is loaded. */
void repro_made_log_q(const Made *m, int64_t n_sites, int64_t n_species,
                      const int8_t *configs, int64_t rows, double *out)
{
    for (int64_t r = 0; r < rows; r++)
        out[r] = made_log_q(m, n_sites, n_species, configs + r * n_sites);
}

static int is_local(const Team *tm, int64_t step, int64_t r)
{
    return !tm->pick || tm->pick[step * tm->rows + r] < 0;
}

static int fails(const int8_t *cfg, int64_t kind, const int64_t *move)
{
    return kind == SWAP_DISTINCT ? cfg[move[0]] == cfg[move[1]] : move[0] == move[1];
}

/* A pair for every local row of a swap team: the bounded rejection loop,
 * run pass-major on the team's generator.  Pass 0 draws every local row;
 * each later pass draws again the rows whose pair fails; after MAX_TRIES
 * passes a row keeps its last pair. */
static void draw_pairs(const Tables *t, Team *tm, int64_t kind, int64_t step)
{
    const int64_t N = t->n_sites;
    const uint32_t n = (uint32_t)N;
    for (int pass = 0; pass < MAX_TRIES; pass++) {
        int failing = 0;
        for (int64_t r = 0; r < tm->rows; r++) {
            const int8_t *cfg = tm->configs + r * N;
            int64_t *move = tm->move + 2 * r;
            if (!is_local(tm, step, r) || (pass && !fails(cfg, kind, move)))
                continue;
            move[0] = draw_below(tm->rng, n);
            move[1] = draw_below(tm->rng, n);
            failing |= fails(cfg, kind, move);
        }
        if (!failing)
            return;
    }
}

/* Fill tm->move for one step, scoring each row whose candidate meets it
 * holding no log q for its component. */
static void resolve(const Tables *t, Team *tm, int64_t kind, int64_t step)
{
    const int64_t N = t->n_sites;
    for (int64_t r = 0; r < tm->rows; r++) {
        const int8_t *cfg = tm->configs + r * N;
        int64_t *move = tm->move + 2 * r;
        const int64_t at = step * tm->rows + r;
        if (!is_local(tm, step, r)) {
            const int64_t slot = tm->cand_slot[tm->pick[at]];
            move[0] = move[1] = 0;
            if (tm->held[r] != slot) {
                tm->log_q[r] = made_log_q(&tm->made[slot], N, t->n_species, cfg);
                tm->held[r] = slot;
                tm->scored++;
            }
        } else if (kind == FLIP) {
            const int64_t site = tm->field0[at];
            move[0] = site;
            move[1] = (cfg[site] + tm->field1[at]) % t->n_species;
        } else if (kind == PAIRS) {
            move[0] = tm->field0[2 * at];
            move[1] = tm->field0[2 * at + 1];
        }
    }
    if (kind == SWAP || kind == SWAP_DISTINCT)
        draw_pairs(t, tm, kind, step);
}

static double delta_swap(const Tables *t, const int8_t *cfg, int64_t i, int64_t j)
{
    const int64_t N = t->n_sites, null_key = t->null_key;
    const int a = cfg[i], b = cfg[j];
    const int64_t pair_i = t->pair_row[a] + t->pair_col[b];
    const int64_t pair_j = t->pair_row[b] + t->pair_col[a];
    double delta = 0.0;
    for (int64_t k = 0; k < t->z; k++) {
        const int64_t ni = t->cat_table_T[k * N + i], nj = t->cat_table_T[k * N + j];
        const int64_t key_i = ni == j ? null_key : cfg[ni] + t->shell_offsets[k];
        const int64_t key_j = nj == i ? null_key : cfg[nj] + t->shell_offsets[k];
        const double term = t->diff_flat[key_i + pair_i];
        delta = k ? delta + term : term;
        delta += t->diff_flat[key_j + pair_j];
    }
    return delta;
}

static double delta_flip(const Tables *t, const int8_t *cfg, int64_t site, int64_t new_species)
{
    const int64_t N = t->n_sites;
    const int old = cfg[site];
    const int64_t pair = t->pair_row[old] + t->pair_col[new_species];
    double delta = 0.0;
    for (int64_t k = 0; k < t->z; k++) {
        const int64_t key = cfg[t->cat_table_T[k * N + site]] + t->shell_offsets[k];
        const double term = t->diff_flat[key + pair];
        delta = k ? delta + term : term;
    }
    if (t->field)
        delta += t->field[new_species] - t->field[old];
    return delta;
}

/* Window-local bin of energy e, -1 outside the window, -2 when two levels
 * both claim e (the oracle's table take raises there). */
static int64_t lookup(const Grids *g, const Team *tm, double e)
{
    const double *marks = g->marks;
    const int64_t n = g->n_marks;
    int64_t lo = 0, hi = n, column;
    if (g->is_levels) {
        while (lo < hi) {                      /* lo = #levels < e */
            const int64_t mid = (lo + hi) / 2;
            if (marks[mid] < e) lo = mid + 1; else hi = mid;
        }
        /* neighbours in the +-inf padded level array: padded[lo] < e <= padded[lo + 1] */
        const int hit_below = (lo > 0 ? fabs(marks[lo - 1] - e) : INFINITY) <= g->tol;
        const int hit_above = (lo < n ? fabs(marks[lo] - e) : INFINITY) <= g->tol;
        if (hit_below && hit_above)
            return -2;
        column = hit_below ? lo : hit_above ? lo + 1 : 0;
    } else {
        while (lo < hi) {                      /* lo = #edges <= e */
            const int64_t mid = (lo + hi) / 2;
            if (marks[mid] <= e) lo = mid + 1; else hi = mid;
        }
        column = e != e ? n : lo;              /* searchsorted sorts NaN last */
    }
    const int64_t flat = g->table[tm->table_base + column];
    if (flat < 0 || (!g->is_levels && e > tm->e_max))
        return -1;
    return flat - tm->bin_offset;
}

/* Take row r's move to energy e: candidate i when i >= 0, else the
 * local move (m0, m1). */
static void accept(const Tables *t, Team *tm, int64_t kind, int64_t r, int8_t *cfg,
                   int64_t i, int64_t m0, int64_t m1, double e)
{
    tm->energies[r] = e;
    tm->slot_accepted[r]++;
    tm->accepted++;
    if (tm->pick)
        tm->held[r] = i >= 0 ? tm->cand_slot[i] : -1;
    if (i >= 0) {
        memcpy(cfg, tm->cand_configs + i * t->n_sites, (size_t)t->n_sites);
        tm->log_q[r] = tm->cand_log_q[i];
    } else if (kind == FLIP) {
        cfg[m0] = (int8_t)m1;
    } else {
        const int8_t a = cfg[m0], b = cfg[m1];
        cfg[m0] = b;
        cfg[m1] = a;
    }
}

/* Run n super-steps.  Returns 0, or -1 on the level-grid clash described
 * above.  g may be NULL when every team is canonical. */
int64_t repro_superstep(const Tables *t, const Grids *g, Team *teams,
                        int64_t n_teams, int64_t kind, int64_t n)
{
    const int64_t N = t->n_sites;
    for (int64_t step = 0; step < n; step++) {
        for (int64_t w = 0; w < n_teams; w++)
            resolve(t, &teams[w], kind, step);
        for (int64_t w = 0; w < n_teams; w++) {
            Team *tm = &teams[w];
            const double *ln_u = tm->ln_u + step * tm->rows;
            double *ln_g = tm->ln_g;
            for (int64_t r = 0; r < tm->rows; r++) {
                int8_t *cfg = tm->configs + r * N;
                const int64_t m0 = tm->move[2 * r], m1 = tm->move[2 * r + 1];
                const int64_t i = tm->pick ? tm->pick[step * tm->rows + r] : -1;
                double delta, energy, dq = 0.0;
                if (i >= 0) {                  /* a pooled candidate */
                    energy = tm->cand_energy[i];
                    delta = energy - tm->energies[r];
                    dq = tm->log_q[r] - tm->cand_log_q[i];
                } else {
                    delta = kind == FLIP ? delta_flip(t, cfg, m0, m1)
                                         : delta_swap(t, cfg, m0, m1);
                    energy = tm->energies[r] + delta;
                }
                if (tm->beta) {                /* canonical: MetropolisSampler's rule */
                    double log_alpha = -tm->beta[r] * delta;
                    if (i >= 0)
                        log_alpha += dq;
                    if (log_alpha >= 0.0 || ln_u[r] < log_alpha)
                        accept(t, tm, kind, r, cfg, i, m0, m1, energy);
                    continue;
                }
                const int64_t nb = lookup(g, tm, energy);
                int64_t cur = tm->bins[r];
                if (nb == -2)
                    return -1;
                if (nb < 0) {
                    tm->out_of_grid++;
                } else {
                    double log_alpha = ln_g[cur] - ln_g[nb];
                    if (i >= 0)
                        log_alpha += dq;
                    if (log_alpha >= 0.0 || ln_u[r] < log_alpha) {
                        tm->bins[r] = cur = nb;
                        accept(t, tm, kind, r, cfg, i, m0, m1, energy);
                    }
                }
                /* Update the (possibly unchanged) current bin - mandatory for WL. */
                ln_g[cur] += tm->ln_f;
                tm->histogram[cur]++;
                tm->visited[cur] = 1;
            }
        }
    }
    return 0;
}
