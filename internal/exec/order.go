package exec

import (
	"slices"

	"powerdrill/internal/value"
)

// orderKey is one resolved ORDER BY term: an output column and its
// direction.
type orderKey struct {
	col  int
	desc bool
}

// orderRows returns the positions of rows in output order: sorted by keys,
// ties kept in input order, cut to limit (negative: no limit). It returns
// exactly what a stable sort followed by truncation would, but a LIMIT k
// below len(rows) keeps only a bounded max-heap of the k best rows, so the
// root pays O(n log k) for a top-k instead of sorting every group.
func orderRows(rows [][]value.Value, keys []orderKey, limit int) []int {
	n := len(rows)
	if limit < 0 || limit > n {
		limit = n
	}
	// Input position breaks ties, which makes the order total: any correct
	// sort or selection under it yields the stable order.
	cmp := func(a, b int) int {
		for _, k := range keys {
			if c := rows[a][k.col].Compare(rows[b][k.col]); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return a - b
	}
	// The first limit positions, then (with rows to spare) a max-heap of
	// the best limit rows seen so far, its root the worst of them.
	pos := make([]int, limit)
	for i := range pos {
		pos[i] = i
	}
	if limit == n || limit == 0 {
		slices.SortFunc(pos, cmp)
		return pos
	}
	down := func(p int) {
		for {
			c := 2*p + 1
			if c >= limit {
				return
			}
			if c+1 < limit && cmp(pos[c+1], pos[c]) > 0 {
				c++
			}
			if cmp(pos[p], pos[c]) >= 0 {
				return
			}
			pos[p], pos[c] = pos[c], pos[p]
			p = c
		}
	}
	for p := limit/2 - 1; p >= 0; p-- {
		down(p)
	}
	for i := limit; i < n; i++ {
		if cmp(i, pos[0]) < 0 {
			pos[0] = i
			down(0)
		}
	}
	slices.SortFunc(pos, cmp)
	return pos
}

// applyOrder returns rows in output order, cut to limit. Without keys it
// only truncates, in place.
func applyOrder(rows [][]value.Value, keys []orderKey, limit int) [][]value.Value {
	if len(keys) == 0 || rows == nil {
		if limit >= 0 && limit < len(rows) {
			return rows[:limit]
		}
		return rows
	}
	pos := orderRows(rows, keys, limit)
	out := make([][]value.Value, len(pos))
	for i, p := range pos {
		out[i] = rows[p]
	}
	return out
}
