/* Compiled inner loop of the array scheduler (engine="kernel").
 *
 * A statement-for-statement translation of _schedule_array
 * (scheduling.py) plus SlotRouter (routing.py) into C, built as a
 * shared object by _kernel.py at first use.  Bitwise identity with the
 * array engine is a hard contract: every floating-point expression
 * below performs the same IEEE binary64 operations in the same order as
 * its Python counterpart (the build disables FP contraction so no FMA
 * changes a rounding), heap tie-breaks compare (reach, node) exactly
 * like the Python (reach, node, box) tuples, and the channel slots are
 * the same per-channel min-heaps of slot-free times.
 *
 * The interface is one function, leqa_schedule(), taking the compiled
 * op arrays and returning finish times, final locations and the
 * aggregate statistics; the trace-recording path stays in Python.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef long long i64;

/* ---- per-channel slot heaps (min-heap of slot-free times) ---------- */

static void slot_push(double *h, i64 *n, double v) {
    i64 i = (*n)++;
    h[i] = v;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (h[p] <= h[i])
            break;
        double tmp = h[p];
        h[p] = h[i];
        h[i] = tmp;
        i = p;
    }
}

static void slot_replace(double *h, i64 n, double v) {
    h[0] = v;
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1;
        i64 r = l + 1;
        i64 m = i;
        if (l < n && h[l] < h[m])
            m = l;
        if (r < n && h[r] < h[m])
            m = r;
        if (m == i)
            break;
        double tmp = h[m];
        h[m] = h[i];
        h[i] = tmp;
        i = m;
    }
}

/* ---- Dijkstra frontier heap: keys (reach, node), box rides along --- */

typedef struct {
    double key;
    i64 node;
    i64 box;
} HeapEnt;

static int ent_lt(HeapEnt a, HeapEnt b) {
    return a.key < b.key || (a.key == b.key && a.node < b.node);
}

typedef struct {
    i64 width, height, capacity;
    double t_move;
    i64 mode_xy; /* 0 = maze, 1 = xy */
    i64 vbase;
    double *slot_data;  /* num_channels * capacity */
    i64 *slot_len;      /* num_channels */
    double *block_until; /* num_channels; -inf until at capacity */
    i64 total_moves, total_hops;
    double total_wait;
    /* search scratch, sized once for the full grid */
    double *best;
    i64 *parent_node;
    i64 *parent_box;
    HeapEnt *heap;
    i64 heap_cap;
    i64 *channels; /* path channel ids, worst case box_size */
} Ctx;

static int heap_push(Ctx *c, i64 *n, HeapEnt e) {
    if (*n == c->heap_cap) {
        i64 cap = c->heap_cap * 2;
        HeapEnt *grown = (HeapEnt *)realloc(c->heap, cap * sizeof(HeapEnt));
        if (!grown)
            return 1;
        c->heap = grown;
        c->heap_cap = cap;
    }
    HeapEnt *h = c->heap;
    i64 i = (*n)++;
    h[i] = e;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (!ent_lt(h[i], h[p]))
            break;
        HeapEnt tmp = h[p];
        h[p] = h[i];
        h[i] = tmp;
        i = p;
    }
    return 0;
}

static HeapEnt heap_pop(Ctx *c, i64 *n) {
    HeapEnt *h = c->heap;
    HeapEnt top = h[0];
    h[0] = h[--(*n)];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1;
        i64 r = l + 1;
        i64 m = i;
        if (l < *n && ent_lt(h[l], h[m]))
            m = l;
        if (r < *n && ent_lt(h[r], h[m]))
            m = r;
        if (m == i)
            break;
        HeapEnt tmp = h[m];
        h[m] = h[i];
        h[i] = tmp;
        i = m;
    }
    return top;
}

/* ---- reservation core (SlotRouter._traverse / _reserve_path) ------- */

static double traverse(Ctx *c, i64 channel, double arrival) {
    double *slots = c->slot_data + channel * c->capacity;
    i64 n = c->slot_len[channel];
    double start;
    if (n < c->capacity) {
        start = arrival;
        slot_push(slots, &n, start + c->t_move);
        c->slot_len[channel] = n;
        if (n == c->capacity)
            c->block_until[channel] = slots[0];
    } else {
        double earliest_free = slots[0];
        if (arrival >= earliest_free) {
            start = arrival;
        } else {
            start = earliest_free;
            c->total_wait += start - arrival;
        }
        slot_replace(slots, n, start + c->t_move);
        c->block_until[channel] = slots[0];
    }
    return start + c->t_move;
}

static double reserve_path(Ctx *c, const i64 *channels, i64 hops,
                           double departure) {
    double time = departure;
    for (i64 i = 0; i < hops; i++)
        time = traverse(c, channels[i], time);
    return time;
}

/* ---- path construction (SlotRouter._staircase / _xy_channels) ------ */

static i64 staircase(Ctx *c, i64 source, i64 target, i64 *out) {
    i64 height = c->height;
    i64 vbase = c->vbase;
    i64 sx = source / height;
    i64 sy = source - sx * height;
    i64 tx = target / height;
    i64 ty = target - tx * height;
    i64 n = 0;
    if (tx > sx) {
        i64 column = vbase + sx * height;
        if (ty > sy)
            for (i64 ch = column + sy; ch < column + ty; ch++)
                out[n++] = ch;
        else
            for (i64 ch = column + sy - 1; ch > column + ty - 1; ch--)
                out[n++] = ch;
        for (i64 ch = sx * height + ty; ch < tx * height + ty; ch += height)
            out[n++] = ch;
    } else {
        for (i64 ch = (sx - 1) * height + sy; ch > (tx - 1) * height + sy;
             ch -= height)
            out[n++] = ch;
        i64 column = vbase + tx * height;
        if (ty > sy)
            for (i64 ch = column + sy; ch < column + ty; ch++)
                out[n++] = ch;
        else
            for (i64 ch = column + sy - 1; ch > column + ty - 1; ch--)
                out[n++] = ch;
    }
    return n;
}

static i64 xy_channels(Ctx *c, i64 source, i64 target, i64 *out) {
    i64 height = c->height;
    i64 vbase = c->vbase;
    i64 sx = source / height;
    i64 sy = source - sx * height;
    i64 tx = target / height;
    i64 ty = target - tx * height;
    i64 n = 0;
    if (tx > sx)
        for (i64 ch = sx * height + sy; ch < tx * height + sy; ch += height)
            out[n++] = ch;
    else
        for (i64 ch = (sx - 1) * height + sy; ch > (tx - 1) * height + sy;
             ch -= height)
            out[n++] = ch;
    i64 column = vbase + tx * height;
    if (ty > sy)
        for (i64 ch = column + sy; ch < column + ty; ch++)
            out[n++] = ch;
    else
        for (i64 ch = column + sy - 1; ch > column + ty - 1; ch--)
            out[n++] = ch;
    return n;
}

#define DETOUR_MARGIN 2

/* Time-dependent Dijkstra in the padded box (SlotRouter._dijkstra).
 * Fills c->channels with the chosen path's channel ids; returns the hop
 * count, or -1 on allocation failure / unreachable target. */
static i64 dijkstra(Ctx *c, i64 source, i64 target, double departure) {
    i64 height = c->height;
    double t_move = c->t_move;
    i64 capacity = c->capacity;
    i64 vbase = c->vbase;
    i64 sx = source / height;
    i64 sy = source - sx * height;
    i64 tx = target / height;
    i64 ty = target - tx * height;
    i64 lo_x = sx < tx ? sx : tx;
    i64 hi_x = sx > tx ? sx : tx;
    i64 lo_y = sy < ty ? sy : ty;
    i64 hi_y = sy > ty ? sy : ty;
    lo_x = lo_x - DETOUR_MARGIN > 0 ? lo_x - DETOUR_MARGIN : 0;
    hi_x = hi_x + DETOUR_MARGIN < c->width - 1 ? hi_x + DETOUR_MARGIN
                                               : c->width - 1;
    lo_y = lo_y - DETOUR_MARGIN > 0 ? lo_y - DETOUR_MARGIN : 0;
    hi_y = hi_y + DETOUR_MARGIN < height - 1 ? hi_y + DETOUR_MARGIN
                                             : height - 1;
    i64 box_h = hi_y - lo_y + 1;
    i64 box_size = (hi_x - lo_x + 1) * box_h;
    i64 max_bx = box_size - box_h;
    double inf = HUGE_VAL;
    double *best = c->best;
    i64 *parent_node = c->parent_node;
    i64 *parent_box = c->parent_box;
    for (i64 i = 0; i < box_size; i++) {
        best[i] = inf;
        parent_node[i] = -1;
        parent_box[i] = -1;
    }
    i64 source_box = (sx - lo_x) * box_h + (sy - lo_y);
    i64 target_box = (tx - lo_x) * box_h + (ty - lo_y);
    best[source_box] = departure;
    i64 heap_n = 0;
    HeapEnt first = {departure, source, source_box};
    if (heap_push(c, &heap_n, first))
        return -1;
    while (heap_n) {
        HeapEnt top = heap_pop(c, &heap_n);
        double arrival = top.key;
        i64 here = top.node;
        i64 here_box = top.box;
        if (here == target)
            break;
        if (arrival > best[here_box])
            continue; /* stale heap entry */
        i64 by = here_box % box_h;
        /* neighbours west, east, north, south (SlotRouter's order) */
        if (here_box >= box_h) {
            i64 nxt = here - height;
            i64 nxt_box = here_box - box_h;
            i64 ch = nxt;
            double reach;
            if (c->slot_len[ch] < capacity) {
                reach = arrival + t_move;
            } else {
                double free = c->slot_data[ch * capacity];
                reach = (arrival >= free ? arrival : free) + t_move;
            }
            if (reach < best[nxt_box]) {
                best[nxt_box] = reach;
                parent_node[nxt_box] = here;
                parent_box[nxt_box] = here_box;
                HeapEnt e = {reach, nxt, nxt_box};
                if (heap_push(c, &heap_n, e))
                    return -1;
            }
        }
        if (here_box < max_bx) {
            i64 nxt = here + height;
            i64 nxt_box = here_box + box_h;
            i64 ch = here;
            double reach;
            if (c->slot_len[ch] < capacity) {
                reach = arrival + t_move;
            } else {
                double free = c->slot_data[ch * capacity];
                reach = (arrival >= free ? arrival : free) + t_move;
            }
            if (reach < best[nxt_box]) {
                best[nxt_box] = reach;
                parent_node[nxt_box] = here;
                parent_box[nxt_box] = here_box;
                HeapEnt e = {reach, nxt, nxt_box};
                if (heap_push(c, &heap_n, e))
                    return -1;
            }
        }
        if (by > 0) {
            i64 nxt = here - 1;
            i64 nxt_box = here_box - 1;
            i64 ch = vbase + nxt;
            double reach;
            if (c->slot_len[ch] < capacity) {
                reach = arrival + t_move;
            } else {
                double free = c->slot_data[ch * capacity];
                reach = (arrival >= free ? arrival : free) + t_move;
            }
            if (reach < best[nxt_box]) {
                best[nxt_box] = reach;
                parent_node[nxt_box] = here;
                parent_box[nxt_box] = here_box;
                HeapEnt e = {reach, nxt, nxt_box};
                if (heap_push(c, &heap_n, e))
                    return -1;
            }
        }
        if (by < box_h - 1) {
            i64 nxt = here + 1;
            i64 nxt_box = here_box + 1;
            i64 ch = vbase + here;
            double reach;
            if (c->slot_len[ch] < capacity) {
                reach = arrival + t_move;
            } else {
                double free = c->slot_data[ch * capacity];
                reach = (arrival >= free ? arrival : free) + t_move;
            }
            if (reach < best[nxt_box]) {
                best[nxt_box] = reach;
                parent_node[nxt_box] = here;
                parent_box[nxt_box] = here_box;
                HeapEnt e = {reach, nxt, nxt_box};
                if (heap_push(c, &heap_n, e))
                    return -1;
            }
        }
    }
    if (parent_node[target_box] < 0 && target != source)
        return -1; /* grid is connected; defensive */
    i64 hops = 0;
    i64 node = target;
    i64 box = target_box;
    while (node != source) {
        i64 prev = parent_node[box];
        i64 delta = node - prev;
        if (delta == height)
            c->channels[hops++] = prev;
        else if (delta == -height)
            c->channels[hops++] = node;
        else if (delta == 1)
            c->channels[hops++] = vbase + prev;
        else
            c->channels[hops++] = vbase + node;
        box = parent_box[box];
        node = prev;
    }
    /* reverse in place */
    for (i64 i = 0, j = hops - 1; i < j; i++, j--) {
        i64 tmp = c->channels[i];
        c->channels[i] = c->channels[j];
        c->channels[j] = tmp;
    }
    return hops;
}

/* ---- one journey (SlotRouter.move) --------------------------------- */

static int do_move(Ctx *c, i64 source, i64 target, double departure,
                   double *out_arrival, i64 *out_hops, double *out_wait) {
    if (source == target) {
        *out_arrival = departure;
        *out_hops = 0;
        *out_wait = 0.0;
        return 0;
    }
    double t_move = c->t_move;
    i64 capacity = c->capacity;
    i64 hops;
    if (!c->mode_xy) {
        double *block_until = c->block_until;
        i64 height = c->height;
        i64 delta = target - source;
        i64 channel = -1;
        if (delta == height)
            channel = source;
        else if (delta == -height)
            channel = target;
        else if (delta == 1 && source % height != height - 1)
            channel = c->vbase + source;
        else if (delta == -1 && target % height != height - 1)
            channel = c->vbase + target;
        if (channel >= 0) {
            if (block_until[channel] <= departure) {
                double arrival = departure + t_move;
                double *slots = c->slot_data + channel * capacity;
                i64 n = c->slot_len[channel];
                if (n < capacity) {
                    slot_push(slots, &n, arrival);
                    c->slot_len[channel] = n;
                    if (n == capacity)
                        block_until[channel] = slots[0];
                } else {
                    slot_replace(slots, n, arrival);
                    block_until[channel] = slots[0];
                }
                c->total_moves += 1;
                c->total_hops += 1;
                double wait = (arrival - departure) - t_move;
                *out_arrival = arrival;
                *out_hops = 1;
                *out_wait = wait > 0.0 ? wait : 0.0;
                return 0;
            }
            hops = dijkstra(c, source, target, departure);
            if (hops < 0)
                return 1;
            double arrival = reserve_path(c, c->channels, hops, departure);
            double wait = (arrival - departure) - (double)hops * t_move;
            c->total_moves += 1;
            c->total_hops += hops;
            *out_arrival = arrival;
            *out_hops = hops;
            *out_wait = wait > 0.0 ? wait : 0.0;
            return 0;
        }
        hops = staircase(c, source, target, c->channels);
        /* probe the staircase at its own (clean) arrival times */
        double time = departure;
        i64 blocked = 0;
        for (i64 i = 0; i < hops; i++) {
            if (block_until[c->channels[i]] > time) {
                blocked = 1;
                break;
            }
            time += t_move;
        }
        if (blocked) {
            hops = dijkstra(c, source, target, departure);
            if (hops < 0)
                return 1;
        } else {
            /* clear staircase: reserve inline, no wait handling needed */
            time = departure;
            for (i64 i = 0; i < hops; i++) {
                i64 ch = c->channels[i];
                double *slots = c->slot_data + ch * capacity;
                i64 n = c->slot_len[ch];
                if (n < capacity) {
                    slot_push(slots, &n, time + t_move);
                    c->slot_len[ch] = n;
                    if (n == capacity)
                        block_until[ch] = slots[0];
                } else {
                    slot_replace(slots, n, time + t_move);
                    block_until[ch] = slots[0];
                }
                time += t_move;
            }
            c->total_moves += 1;
            c->total_hops += hops;
            double wait = (time - departure) - (double)hops * t_move;
            *out_arrival = time;
            *out_hops = hops;
            *out_wait = wait > 0.0 ? wait : 0.0;
            return 0;
        }
    } else {
        hops = xy_channels(c, source, target, c->channels);
    }
    double arrival = reserve_path(c, c->channels, hops, departure);
    double wait = (arrival - departure) - (double)hops * t_move;
    c->total_moves += 1;
    c->total_hops += hops;
    *out_arrival = arrival;
    *out_hops = hops;
    *out_wait = wait > 0.0 ? wait : 0.0;
    return 0;
}

/* ---- the scheduling loop (_schedule_array) ------------------------- */

/* Returns 0 on success, 1 on allocation failure (including a slot table
 * too large to address), 2 on a router error (unreachable target —
 * impossible on a connected grid, defensive). */
int leqa_schedule(i64 num_ops, i64 num_qubits, const i64 *op_q0,
                  const i64 *op_q1, const double *op_delay,
                  const i64 *visit_order, i64 width, i64 height,
                  i64 capacity, double t_move, i64 mode_xy, i64 *qloc,
                  double *finish_times, i64 *stats_i, double *stats_d) {
    i64 num_nodes = width * height;
    i64 vbase = (width - 1) * height;
    i64 num_channels = vbase + num_nodes;
    /* The slot table holds num_channels * capacity doubles; a capacity
     * that makes that product overflow must fail before any allocation. */
    if (capacity > (i64)(SIZE_MAX / sizeof(double)) / num_channels)
        return 1;
    Ctx ctx;
    ctx.width = width;
    ctx.height = height;
    ctx.capacity = capacity;
    ctx.t_move = t_move;
    ctx.mode_xy = mode_xy;
    ctx.vbase = vbase;
    ctx.total_moves = 0;
    ctx.total_hops = 0;
    ctx.total_wait = 0.0;
    ctx.slot_data =
        (double *)malloc((size_t)(num_channels * capacity) * sizeof(double));
    ctx.slot_len = (i64 *)calloc((size_t)num_channels, sizeof(i64));
    ctx.block_until =
        (double *)malloc((size_t)num_channels * sizeof(double));
    ctx.best = (double *)malloc((size_t)num_nodes * sizeof(double));
    ctx.parent_node = (i64 *)malloc((size_t)num_nodes * sizeof(i64));
    ctx.parent_box = (i64 *)malloc((size_t)num_nodes * sizeof(i64));
    ctx.heap_cap = 256;
    ctx.heap = (HeapEnt *)malloc((size_t)ctx.heap_cap * sizeof(HeapEnt));
    ctx.channels = (i64 *)malloc((size_t)(num_nodes + 1) * sizeof(i64));
    double *qready = (double *)calloc((size_t)(num_qubits > 0 ? num_qubits : 1),
                                      sizeof(double));
    double *ulb_free = (double *)calloc((size_t)num_nodes, sizeof(double));
    int status = 0;
    if (!ctx.slot_data || !ctx.slot_len || !ctx.block_until || !ctx.best ||
        !ctx.parent_node || !ctx.parent_box || !ctx.heap || !ctx.channels ||
        !qready || !ulb_free) {
        status = 1;
        goto done;
    }
    for (i64 i = 0; i < num_channels; i++)
        ctx.block_until[i] = -HUGE_VAL;

    i64 relocations = 0;
    i64 cnot_count = 0;
    i64 one_qubit_count = 0;
    i64 max_x = width - 1;
    i64 max_y = height - 1;

    for (i64 visit = 0; visit < num_ops; visit++) {
        i64 op_index = visit_order[visit];
        i64 partner = op_q1[op_index];
        double base_delay = op_delay[op_index];
        double finish;
        if (partner >= 0) {
            cnot_count += 1;
            i64 control = op_q0[op_index];
            i64 loc_c = qloc[control];
            i64 loc_t = qloc[partner];
            double ready_c = qready[control];
            double ready_t = qready[partner];
            i64 cx = loc_c / height;
            i64 cy = loc_c - cx * height;
            i64 tx = loc_t / height;
            i64 ty = loc_t - tx * height;
            i64 mx, my;
            if (loc_c == loc_t) {
                mx = cx;
                my = cy;
            } else {
                i64 dx = tx - cx;
                i64 dy = ty - cy;
                i64 adx = dx >= 0 ? dx : -dx;
                i64 ady = dy >= 0 ? dy : -dy;
                i64 m = (adx + ady + 1) / 2;
                if (m <= adx) {
                    mx = dx >= 0 ? cx + m : cx - m;
                    my = cy;
                } else {
                    i64 rem = m - adx;
                    mx = tx;
                    my = dy >= 0 ? cy + rem : cy - rem;
                }
            }
            i64 best_node = -1;
            double best_est = HUGE_VAL;
            i64 cand_x[5] = {mx, mx - 1, mx + 1, mx, mx};
            i64 cand_y[5] = {my, my, my, my - 1, my + 1};
            for (int k = 0; k < 5; k++) {
                i64 nx = cand_x[k];
                i64 ny = cand_y[k];
                if (nx < 0 || nx > max_x || ny < 0 || ny > max_y)
                    continue;
                i64 cand = nx * height + ny;
                double est =
                    ready_c +
                    t_move * (double)((nx >= cx ? nx - cx : cx - nx) +
                                      (ny >= cy ? ny - cy : cy - ny));
                double other =
                    ready_t +
                    t_move * (double)((nx >= tx ? nx - tx : tx - nx) +
                                      (ny >= ty ? ny - ty : ty - ny));
                if (other > est)
                    est = other;
                double free = ulb_free[cand];
                if (free > est)
                    est = free;
                if (est < best_est || (est == best_est && cand < best_node)) {
                    best_est = est;
                    best_node = cand;
                }
            }
            i64 meeting = best_node;
            double arr_c, arr_t, wait_c, wait_t;
            i64 hops_c, hops_t;
            if (do_move(&ctx, loc_c, meeting, ready_c, &arr_c, &hops_c,
                        &wait_c)) {
                status = 2;
                goto done;
            }
            if (do_move(&ctx, loc_t, meeting, ready_t, &arr_t, &hops_t,
                        &wait_t)) {
                status = 2;
                goto done;
            }
            double start = arr_c;
            if (arr_t > start)
                start = arr_t;
            double free = ulb_free[meeting];
            if (free > start)
                start = free;
            finish = start + base_delay;
            qloc[control] = meeting;
            qloc[partner] = meeting;
            qready[control] = finish;
            qready[partner] = finish;
            ulb_free[meeting] = finish;
        } else {
            one_qubit_count += 1;
            i64 qubit = op_q0[op_index];
            i64 home = qloc[qubit];
            double ready = qready[qubit];
            double home_free = ulb_free[home];
            double start_here = home_free > ready ? home_free : ready;
            if (home_free > ready) {
                double best_start = start_here;
                i64 best_loc = home;
                i64 hx = home / height;
                i64 hy = home - hx * height;
                double ready_hop = ready + t_move;
                if (hx > 0) {
                    double candidate = ulb_free[home - height];
                    if (candidate < ready_hop)
                        candidate = ready_hop;
                    if (candidate < best_start) {
                        best_start = candidate;
                        best_loc = home - height;
                    }
                }
                if (hx < max_x) {
                    double candidate = ulb_free[home + height];
                    if (candidate < ready_hop)
                        candidate = ready_hop;
                    if (candidate < best_start) {
                        best_start = candidate;
                        best_loc = home + height;
                    }
                }
                if (hy > 0) {
                    double candidate = ulb_free[home - 1];
                    if (candidate < ready_hop)
                        candidate = ready_hop;
                    if (candidate < best_start) {
                        best_start = candidate;
                        best_loc = home - 1;
                    }
                }
                if (hy < max_y) {
                    double candidate = ulb_free[home + 1];
                    if (candidate < ready_hop)
                        candidate = ready_hop;
                    if (candidate < best_start) {
                        best_start = candidate;
                        best_loc = home + 1;
                    }
                }
                if (best_loc != home) {
                    double arrival, hop_wait;
                    i64 hop_hops;
                    if (do_move(&ctx, home, best_loc, ready, &arrival,
                                &hop_hops, &hop_wait)) {
                        status = 2;
                        goto done;
                    }
                    double free = ulb_free[best_loc];
                    start_here = arrival >= free ? arrival : free;
                    relocations += 1;
                    qloc[qubit] = best_loc;
                    home = best_loc;
                }
            }
            finish = start_here + base_delay;
            qready[qubit] = finish;
            ulb_free[home] = finish;
        }
        finish_times[op_index] = finish;
    }

    stats_i[0] = ctx.total_moves;
    stats_i[1] = ctx.total_hops;
    stats_i[2] = relocations;
    stats_i[3] = cnot_count;
    stats_i[4] = one_qubit_count;
    stats_d[0] = ctx.total_wait;

done:
    free(ctx.slot_data);
    free(ctx.slot_len);
    free(ctx.block_until);
    free(ctx.best);
    free(ctx.parent_node);
    free(ctx.parent_box);
    free(ctx.heap);
    free(ctx.channels);
    free(qready);
    free(ulb_free);
    return status;
}
