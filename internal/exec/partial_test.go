package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

func countPartial(keys ...[]value.Value) *Partial {
	p := &Partial{Columns: []string{"a", "b", "c"}}
	for _, k := range keys {
		p.Groups = append(p.Groups, PartialGroup{Keys: k, Cells: []PartialCell{{Count: 1}}})
	}
	return p
}

// TestMergePartialsKeysDoNotCollide merges two distinct two-column keys
// that a separator-joined rendering would spell alike.
func TestMergePartialsKeysDoNotCollide(t *testing.T) {
	dst := countPartial([]value.Value{value.String("a\x1f\x01b"), value.String("c")})
	src := countPartial([]value.Value{value.String("a"), value.String("b\x1f\x01c")})
	if err := MergePartials(dst, src); err != nil {
		t.Fatal(err)
	}
	if len(dst.Groups) != 2 {
		t.Fatalf("merged into %d groups, want 2: %+v", len(dst.Groups), dst.Groups)
	}
	for _, g := range dst.Groups {
		if g.Cells[0].Count != 1 {
			t.Fatalf("group %v counted %d, want 1", g.Keys, g.Cells[0].Count)
		}
	}
}

// TestMergePartialsManyMatchesPairwise folds several children in one call
// and checks the result equals folding them one call at a time — groups a
// later child shares with an earlier one must find the index entry the
// earlier one added.
func TestMergePartialsManyMatchesPairwise(t *testing.T) {
	gen := func(seed int64) []*Partial {
		r := rand.New(rand.NewSource(seed))
		var ps []*Partial
		for i := 0; i < 5; i++ {
			p := &Partial{Columns: []string{"k", "n", "c"}, Stats: QueryStats{RowsTotal: 10, ChunksScanned: i}}
			for _, j := range r.Perm(40)[:r.Intn(40)] {
				p.Groups = append(p.Groups, PartialGroup{
					Keys:  []value.Value{value.String(fmt.Sprintf("g%d", j%13)), value.Int64(int64(j % 3))},
					Cells: []PartialCell{{Count: int64(j), SumF: float64(j), SumFParts: []float64{float64(j)}}},
				})
			}
			ps = append(ps, p)
		}
		return ps
	}
	for seed := int64(0); seed < 50; seed++ {
		one, pair := gen(seed), gen(seed)
		if err := MergePartials(one[0], one[1:]...); err != nil {
			t.Fatal(err)
		}
		for _, p := range pair[1:] {
			if err := MergePartials(pair[0], p); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(one[0], pair[0]) {
			t.Fatalf("seed %d: one call and pairwise calls differ", seed)
		}
	}
}

// TestQueryStatsAddCoversEveryField fills every QueryStats field and
// checks add carries all of them, so a merge never drops a new counter.
func TestQueryStatsAddCoversEveryField(t *testing.T) {
	var qs QueryStats
	v := reflect.ValueOf(&qs).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1 + i))
	}
	var sum QueryStats
	sum.add(qs)
	if sum != qs {
		t.Fatalf("add dropped counters:\n in  %+v\n out %+v", qs, sum)
	}
}

// BenchmarkPartialRootPath is the work above the leaves for one grouped
// query: 4 leaf partials of ~4k string-keyed groups (6.7k distinct in
// all) with a COUNT and a float SUM are encoded, decoded, merged 4 ways
// and finalized with LIMIT 10.
func BenchmarkPartialRootPath(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	leaves := make([]*Partial, 4)
	for i := range leaves {
		p := &Partial{Columns: []string{"table_name", "c", "s"}}
		for _, k := range rng.Perm(6700)[:4000] {
			n := int64(1 + rng.Intn(50))
			f := rng.Float64() * 1000
			p.Groups = append(p.Groups, PartialGroup{
				Keys:  []value.Value{value.String(fmt.Sprintf("/bigtable/table_%05d", k))},
				Cells: []PartialCell{{Count: n}, {Count: n, SumF: f, SumFParts: []float64{f}}},
			})
		}
		leaves[i] = p
	}
	stmt, err := sql.Parse(`SELECT table_name, COUNT(*) AS c, SUM(latency) AS s FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10;`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := make([]*Partial, len(leaves))
		for j, p := range leaves {
			if parts[j], err = DecodePartial(EncodePartial(p)); err != nil {
				b.Fatal(err)
			}
		}
		if err := MergePartials(parts[0], parts[1:]...); err != nil {
			b.Fatal(err)
		}
		if res, err := FinalizePartial(stmt, parts[0]); err != nil || len(res.Rows) != 10 {
			b.Fatalf("finalize: %d rows, %v", len(res.Rows), err)
		}
	}
}
