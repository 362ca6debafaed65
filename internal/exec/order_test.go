package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// stableOrder is the reference ORDER BY/LIMIT: a stable sort of a copy of
// rows, then truncation.
func stableOrder(rows [][]value.Value, keys []orderKey, limit int) [][]value.Value {
	out := append(rows[:0:0], rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range keys {
			if c := out[a][k.col].Compare(out[b][k.col]); c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// orderCases are the ORDER BY shapes the property tests sweep: one and two
// keys, mixed directions.
var orderCases = [][]orderKey{
	{{1, true}},
	{{1, false}},
	{{1, true}, {2, false}},
	{{2, false}, {1, true}},
	{{1, false}, {0, true}},
}

// limitsFor is every LIMIT worth checking against n rows: none, 0, 1, a
// random cut, n-1, n and beyond.
func limitsFor(rng *rand.Rand, n int) []int {
	ls := []int{-1, 0, 1, n, n + 3}
	if n > 1 {
		ls = append(ls, n-1, 1+rng.Intn(n-1))
	}
	return ls
}

// TestOrderRowsMatchesStableSort checks the bounded heap and the full sort
// against sort.SliceStable plus truncation on rows with heavy ties.
func TestOrderRowsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{
				value.Int64(int64(i)), // identity: ties must keep input order
				value.Int64(int64(rng.Intn(4))),
				value.String(fmt.Sprintf("s%d", rng.Intn(3))),
			}
		}
		for _, keys := range orderCases {
			for _, limit := range limitsFor(rng, n) {
				want := stableOrder(rows, keys, limit)
				got := applyOrder(rows, keys, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d keys %v limit %d:\n got  %v\n want %v", trial, keys, limit, got, want)
				}
			}
		}
	}
}

// TestFinalizePartialTopK checks the root's ORDER BY/LIMIT against the
// reference applied to the unordered finalized rows.
func TestFinalizePartialTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := `SELECT k, COUNT(*) AS c, SUM(v) AS s FROM data GROUP BY k`
	unordered := mustParseStmt(t, base+`;`)
	orders := map[string][]orderKey{
		`c DESC`:        {{1, true}},
		`c ASC, s DESC`: {{1, false}, {2, true}},
		`s DESC, k ASC`: {{2, true}, {0, false}},
	}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(200)
		p := &Partial{Columns: []string{"k", "c", "s"}}
		for i := 0; i < n; i++ {
			p.Groups = append(p.Groups, PartialGroup{
				Keys: []value.Value{value.String(fmt.Sprintf("k%03d", rng.Intn(1000)))},
				Cells: []PartialCell{
					{Count: int64(rng.Intn(3))},
					{SumI: int64(rng.Intn(3)), SumIsInt: true},
				},
			})
		}
		all, err := FinalizePartial(unordered, p)
		if err != nil {
			t.Fatal(err)
		}
		for order, keys := range orders {
			for _, limit := range limitsFor(rng, n) {
				q := base + ` ORDER BY ` + order
				if limit >= 0 {
					q += fmt.Sprintf(` LIMIT %d`, limit)
				}
				got, err := FinalizePartial(mustParseStmt(t, q+`;`), p)
				if err != nil {
					t.Fatal(err)
				}
				if want := stableOrder(all.Rows, keys, limit); !reflect.DeepEqual(got.Rows, want) {
					t.Fatalf("%s (%d groups):\n got  %v\n want %v", q, n, got.Rows, want)
				}
			}
		}
	}
}

// tiedTable has many groups whose aggregates take only a few values.
func tiedTable(rows int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]string, rows)
	vs := make([]int64, rows)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%03d", rng.Intn(rows/3))
		vs[i] = int64(rng.Intn(3))
	}
	tbl := table.New("data")
	tbl.AddStringColumn("k", ks)
	tbl.AddInt64Column("v", vs)
	return tbl
}

// TestEngineTopKMatchesStableSort drives the engine's two ORDER BY/LIMIT
// paths: deferred group keys (ORDER BY aggregates only, no HAVING) and
// orderAndLimit after HAVING.
func TestEngineTopKMatchesStableSort(t *testing.T) {
	e := buildEngine(t, tiedTable(900, 8), colstore.Options{MaxChunkRows: 128}, Options{})
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		base, order string
		keys        []orderKey
	}{
		{`SELECT k, COUNT(*) AS c, SUM(v) AS s FROM data GROUP BY k`, `c DESC`, []orderKey{{1, true}}},
		{`SELECT k, COUNT(*) AS c, SUM(v) AS s FROM data GROUP BY k`, `c ASC, s DESC`, []orderKey{{1, false}, {2, true}}},
		{`SELECT k, COUNT(*) AS c, SUM(v) AS s FROM data GROUP BY k HAVING c >= 2`, `s DESC`, []orderKey{{2, true}}},
		{`SELECT k, COUNT(*) AS c, SUM(v) AS s FROM data GROUP BY k HAVING s > 0`, `c DESC, k ASC`, []orderKey{{1, true}, {0, false}}},
	} {
		all, err := e.Query(tc.base + `;`)
		if err != nil {
			t.Fatal(err)
		}
		n := len(all.Rows)
		if n < 50 {
			t.Fatalf("%s: only %d groups", tc.base, n)
		}
		for _, limit := range limitsFor(rng, n) {
			q := tc.base + ` ORDER BY ` + tc.order
			if limit >= 0 {
				q += fmt.Sprintf(` LIMIT %d`, limit)
			}
			got, err := e.Query(q + `;`)
			if err != nil {
				t.Fatal(err)
			}
			if want := stableOrder(all.Rows, tc.keys, limit); !reflect.DeepEqual(got.Rows, want) {
				t.Fatalf("%s:\n got  %v\n want %v", q, got.Rows, want)
			}
		}
	}
}
