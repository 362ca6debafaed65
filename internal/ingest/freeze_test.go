package ingest

import (
	"math"
	"math/rand"
	"testing"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/workload"
)

// prefixQueries cover every way a snapshot merges its units: plain and
// grouped aggregates (partials) and a row scan with ORDER BY/LIMIT.
var prefixQueries = []string{
	`SELECT COUNT(*) AS cnt, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM data;`,
	`SELECT c, COUNT(*) AS cnt, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM data GROUP BY c ORDER BY c;`,
	`SELECT v, c FROM data WHERE c = "c2" ORDER BY v DESC LIMIT 9;`,
	`SELECT v, c FROM data ORDER BY v LIMIT 5;`,
}

// checkAgainstImport asserts snap answers every prefix query exactly as a
// single colstore.FromTable import of the first n rows of the stream does.
func checkAgainstImport(t *testing.T, snap *Snapshot, n int) {
	t.Helper()
	if snap.NumRows() != int64(n) {
		t.Fatalf("snapshot covers %d rows, want %d", snap.NumRows(), n)
	}
	cs, err := colstore.FromTable(rowsTable(0, n), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	ref := exec.New(cs, exec.Options{})
	for _, q := range prefixQueries {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Query(q)
		if err != nil {
			t.Fatalf("prefix %d: %s: %v", n, q, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("prefix %d: %s: %d rows, want %d", n, q, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				g, w := got.Rows[i][j], want.Rows[i][j]
				if g.Kind() != w.Kind() || !g.Equal(w) {
					t.Fatalf("prefix %d: %s: row %d col %d = %v, want %v", n, q, i, j, g, w)
				}
			}
		}
	}
}

// TestFrozenRunsPrefixExact appends random-size batches and checks a
// snapshot after every batch against a one-shot import of exactly that
// prefix — across seals, and for older cuts completed after a newer
// snapshot already froze further (the straddle path).
func TestFrozenRunsPrefixExact(t *testing.T) {
	const baseRows, sealRows, appended = 300, 700, 1800
	dir, base, eng := newBase(t, baseRows)
	w, err := Attach(dir, base, eng, Opts{SealRows: sealRows, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(1))
	n, straddles := baseRows, 0
	for n < baseRows+appended {
		batch := 1 + rng.Intn(60)
		if err := w.Append(rowsTable(n, batch)); err != nil {
			t.Fatal(err)
		}
		n += batch
		if rng.Intn(3) > 0 {
			snap, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstImport(t, snap, n)
			snap.Release()
			continue
		}
		// An older cut loses the race: a newer snapshot freezes more rows
		// before the older one freezes its own.
		old, oldRows := w.cut(), n
		batch = 1 + rng.Intn(60)
		if err := w.Append(rowsTable(n, batch)); err != nil {
			t.Fatal(err)
		}
		n += batch
		newer, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		before := w.Stats().FreezeRows
		snap, err := w.snapshotAt(old)
		if err != nil {
			t.Fatal(err)
		}
		if w.Stats().FreezeRows > before {
			straddles++
		}
		checkAgainstImport(t, snap, oldRows)
		checkAgainstImport(t, newer, n)
		snap.Release()
		newer.Release()
	}
	if st := w.Stats(); st.Seals < 2 {
		t.Fatalf("want the stream to cross at least two seals, got %+v", st)
	}
	if straddles == 0 {
		t.Fatal("no older cut straddled a cached run")
	}
}

// TestFreezeAmplificationBounded: a snapshot after every small batch
// keeps the buffer at O(log n) runs and imports each row O(log n) times.
func TestFreezeAmplificationBounded(t *testing.T) {
	const rows, batch = 10_000, 10
	dir, base, eng := newBase(t, 0)
	w, err := Attach(dir, base, eng, Opts{SealRows: 2 * rows, CompactMinSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	maxUnits := int(math.Ceil(math.Log2(rows))) + 1
	for n := 0; n < rows; n += batch {
		if err := w.Append(rowsTable(n, batch)); err != nil {
			t.Fatal(err)
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Release()
		if st := w.Stats(); st.MemUnits > maxUnits {
			t.Fatalf("%d rows: %d frozen runs, want ≤ %d", n+batch, st.MemUnits, maxUnits)
		}
	}
	st := w.Stats()
	bound := int64(rows * (math.Log2(rows/batch) + 2))
	if st.MemRows != rows || st.FreezeRows > bound {
		t.Fatalf("mem rows %d, freeze rows %d, want %d and ≤ %d", st.MemRows, st.FreezeRows, rows, bound)
	}
	t.Logf("%d rows in %d-row batches: %d runs, %d rows imported (%.1f per row)",
		rows, batch, st.MemUnits, st.FreezeRows, float64(st.FreezeRows)/rows)
}

// BenchmarkQueryAfterAppend measures the first query after an append: each
// iteration appends 10 rows, takes a snapshot (freezing the new rows) and
// runs one drill-down query on it.
func BenchmarkQueryAfterAppend(b *testing.B) {
	const baseRows, batch = 20_000, 10
	full := workload.QueryLogs(workload.LogsSpec{Rows: baseRows + 50_000, Seed: 7})
	opts := colstore.Options{PartitionFields: []string{"country", "table_name"}, MaxChunkRows: 5000, OptimizeElements: true}
	dir := b.TempDir()
	built, err := colstore.FromTable(full.Select(rowSpan(0, baseRows)), opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := colstore.Save(built, dir, "zippy"); err != nil {
		b.Fatal(err)
	}
	lazy, _, err := colstore.OpenLazy(dir, memmgr.New(0, ""))
	if err != nil {
		b.Fatal(err)
	}
	defer lazy.Close()
	w, err := Attach(dir, lazy, exec.New(lazy, exec.Options{}), Opts{FsyncPolicy: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var queries []string
	for _, c := range workload.DrillDownSession(full, workload.SessionSpec{Seed: 7, Clicks: 3}) {
		queries = append(queries, c.Queries...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := baseRows + (i*batch)%(full.NumRows()-baseRows-batch)
		if err := w.Append(full.Select(rowSpan(lo, lo+batch))); err != nil {
			b.Fatal(err)
		}
		snap, err := w.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
		snap.Release()
	}
}

// rowSpan lists the row indices [lo, hi).
func rowSpan(lo, hi int) []int {
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	return rows
}
