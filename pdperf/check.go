package main

// Answer checking. A reference answer is computed without the query's
// LIMIT, so it holds every group in order. A served answer is correct when
// its order-key sequence equals the reference's first rows exactly and
// every row equals, value for value (floats bit for bit), the reference
// row with the same group key. The engine does not order groups that tie
// on the ORDER BY key, so which of several tied groups fill the last
// places is not fixed; this check accepts any of them and nothing else.

import (
	"fmt"
	"math"
	"strings"

	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

type refAnswer struct {
	columns []string
	// rows are the groups, in order, that a correct answer may hold: the
	// first limit rows and any that tie with the last of them.
	rows     [][]value.Value
	orderIdx int // column of the first ORDER BY key; -1 if none
	limit    int // -1 if none
	byKey    map[string][]value.Value
}

// unlimited parses q and drops its LIMIT.
func unlimited(q string) (*sql.SelectStmt, int, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, 0, err
	}
	limit := stmt.Limit
	stmt.Limit = -1
	return stmt, limit, nil
}

func newRefAnswer(stmt *sql.SelectStmt, limit int, full *exec.Result) *refAnswer {
	r := &refAnswer{columns: full.Columns, rows: full.Rows, orderIdx: -1, limit: limit, byKey: map[string][]value.Value{}}
	if len(stmt.OrderBy) > 0 {
		name := stmt.OrderBy[0].Expr.String()
		for i, item := range stmt.Items {
			if item.Alias == name || item.Expr.String() == name {
				r.orderIdx = i
			}
		}
	}
	if limit >= 0 && len(r.rows) > limit && r.orderIdx >= 0 {
		n := limit
		for limit > 0 && n < len(r.rows) && sameValue(r.rows[n][r.orderIdx], r.rows[limit-1][r.orderIdx]) {
			n++
		}
		r.rows = append([][]value.Value(nil), r.rows[:n]...) // drop the rest
	}
	for _, row := range r.rows {
		r.byKey[r.key(row)] = row
	}
	return r
}

// key renders a row's group key: every column but the order key.
func (r *refAnswer) key(row []value.Value) string {
	var b strings.Builder
	for i, v := range row {
		if i == r.orderIdx {
			continue
		}
		fmt.Fprintf(&b, "%d:%s\x1f", v.Kind(), v.String())
	}
	return b.String()
}

func (r *refAnswer) matches(a *exec.Result) bool {
	if len(a.Columns) != len(r.columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != r.columns[i] {
			return false
		}
	}
	want := len(r.rows)
	if r.limit >= 0 && want > r.limit {
		want = r.limit
	}
	if len(a.Rows) != want {
		return false
	}
	seen := map[string]bool{}
	for i, row := range a.Rows {
		k := r.key(row)
		ref, ok := r.byKey[k]
		if !ok || seen[k] || !sameRow(row, ref) {
			return false
		}
		seen[k] = true
		if r.orderIdx >= 0 && !sameValue(row[r.orderIdx], r.rows[i][r.orderIdx]) {
			return false
		}
		if r.orderIdx < 0 && !sameRow(row, r.rows[i]) {
			return false
		}
	}
	return true
}

func sameRow(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat64 {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}
