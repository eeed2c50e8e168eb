/* The walker's step loop: the rule `sim._run_walker`'s docstring states, one row at a time.
 *
 * Plain C over the caller's arrays, loaded by `sim` with ctypes.  Node i's period p of row r
 * starts at offsets[i] + p * slots on the row's clock; its draw is draws[(r * periods + p) * n + i]
 * (clipped here at `slots`) and its elapsed slots, from the period start to its transmission
 * start or -1 where it expires, go to the same index of `elapsed`.  adjacency is the row-major
 * (n, n) sensing graph: node i senses node j transmitting iff adjacency[i * n + j].
 */
#include <stdint.h>
#include <stdlib.h>

static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Walk `rows` independent rows; returns 0, or -1 when the workspace cannot be allocated. */
int walk_rows(int64_t rows, int64_t periods, int64_t n, const int32_t *draws, const int64_t *offsets,
              const uint8_t *adjacency, int64_t slots, int64_t occupancy, int32_t *elapsed)
{
    /* per node: its packet's period, that period's end, resume = max(busy until, settled time)
     * and start = resume + the counter left at resume; the nodes with packets left, live[0:m];
     * the nodes starting at the step's time, sent[0:k] */
    int64_t *work = malloc((size_t)(6 * n + 1) * sizeof *work);
    if (!work)
        return -1;
    int64_t *packet = work, *end = work + n, *resume = work + 2 * n, *start = work + 3 * n;
    int64_t *live = work + 4 * n, *sent = work + 5 * n;
    for (int64_t x = 0; x < rows * periods * n; x++)
        elapsed[x] = -1;
    for (int64_t r = 0; r < rows; r++, draws += periods * n, elapsed += periods * n) {
        int64_t m = n;
        for (int64_t i = 0; i < n; i++) {
            live[i] = i;
            packet[i] = 0;
            resume[i] = offsets[i];
            end[i] = offsets[i] + slots;
            start[i] = resume[i] + min64(draws[i], slots);
        }
        for (;;) {
            /* a sent packet, or one that can no longer start before its period end, gives way to
             * the node's next, whose counter runs down from max(resume, period end); a node
             * whose packets have run out leaves the row.  Meanwhile find the earliest start t. */
            int64_t t = INT64_MAX, k = 0;
            for (int64_t x = 0; x < m; x++) {
                int64_t i = live[x];
                while (start[i] >= end[i] && ++packet[i] < periods) {
                    resume[i] = max64(resume[i], end[i]);
                    start[i] = resume[i] + min64(draws[packet[i] * n + i], slots);
                    end[i] += slots;
                }
                if (packet[i] == periods) {
                    live[x--] = live[--m];
                    continue;
                }
                if (start[i] < t) {
                    t = start[i];
                    k = 0;
                }
                if (start[i] == t)
                    sent[k++] = i;
            }
            if (!m)
                break;
            for (int64_t s = 0; s < k; s++) {
                int64_t j = sent[s];
                elapsed[packet[j] * n + j] = (int32_t)(t - end[j] + slots);
            }
            /* every counter is settled to t; a listener's resume rises to the latest end it
             * hears, min(t + occupancy, the starter's period end), and its start by as much */
            for (int64_t x = 0; x < m; x++) {
                int64_t i = live[x], settled = max64(resume[i], t), raised = settled;
                for (int64_t s = 0; s < k; s++) {
                    int64_t j = sent[s];
                    if (adjacency[i * n + j])
                        raised = max64(raised, min64(t + occupancy, end[j]));
                }
                start[i] += raised - settled;
                resume[i] = raised;
            }
            for (int64_t s = 0; s < k; s++)
                start[sent[s]] = INT64_MAX; /* sent: gives way to the node's next packet */
        }
    }
    free(work);
    return 0;
}
