package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"powerdrill/internal/cluster"
	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/workload"
)

// tinyConfig is a workload at a size that runs in about a second.
func tinyConfig(t *testing.T, wl string, trace bool) config {
	cfg := config{
		workload: wl, seed: 3, seconds: 0.3, trace: trace, dir: t.TempDir(),
		rows: 12_000, clicks: 48, setups: 1, maxChunk: 1000, appendRows: 50, appendRate: 40,
	}
	defaultSizes(&cfg)
	return cfg
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func byName(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units, the metrics that apply to it alone, and no failures.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := readSpec(t)
	extra := map[string][]string{
		"click-warm":   {"click_p50_ms", "failed_frac"},
		"click-cold":   {"click_p50_ms", "failed_frac", "disk_bytes_per_row"},
		"ingest-mixed": {"click_p50_ms", "failed_frac", "disk_bytes_per_row", "append_rows_per_s", "append_p50_ms", "append_p95_ms"},
	}
	for wl, run := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := run(tinyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", wl, trace, out.failed, out.attempted)
			}
			want, got := spec.EndToEnd, out.e2e
			if trace {
				want, got = spec.PerLayer, out.layer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl, trace, len(got), len(want))
			}
			have := byName(got)
			for _, w := range want {
				m, ok := have[w.Name]
				if !ok || m.Unit != w.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl, trace, w.Name, m, ok, w.Unit)
				}
			}
			if !trace {
				for _, m := range out.e2e {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.Name, m.Value)
					}
				}
			}
			ex := byName(out.extra)
			for _, name := range extra[wl] {
				if _, ok := ex[name]; !ok {
					t.Errorf("%s: missing %s", wl, name)
				}
			}
			if ex["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac = %v", wl, ex["failed_frac"].Value)
			}
		}
	}
}

// TestTracedSpans checks that a traced run's spans form per-query trees:
// every child shares its parent's query id and no self time is negative,
// and that the layers each workload should exercise show up.
func TestTracedSpans(t *testing.T) {
	for wl, names := range map[string][]string{
		"click-warm":   {spanQuery, spanParse, spanCall, spanMixer, spanLeaf},
		"click-cold":   {spanQuery, spanParse, spanMixer, spanLeaf},
		"ingest-mixed": {spanQuery, spanParse, spanSnapshot, spanRun, spanAppend},
	} {
		out, err := workloads[wl](tinyConfig(t, wl, true))
		if err != nil {
			t.Fatal(err)
		}
		spans := out.tr.snapshotSpans()
		st := newSpanTree(spans)
		seen := map[string]int{}
		for _, s := range spans {
			seen[s.Name]++
			if s.Parent != 0 {
				p, ok := st.byID[s.Parent]
				if !ok {
					t.Fatalf("%s: span %d (%s) has unknown parent %d", wl, s.ID, s.Name, s.Parent)
				}
				if p.QID != s.QID {
					t.Fatalf("%s: span %s in query %d under a span of query %d", wl, s.Name, s.QID, p.QID)
				}
			}
			if self := st.selfTime(s); self < 0 || s.End < s.Start {
				t.Fatalf("%s: span %s self time %v", wl, s.Name, self)
			}
		}
		for _, n := range names {
			if seen[n] == 0 {
				t.Errorf("%s: no %s spans (saw %v)", wl, n, seen)
			}
		}
		layer := byName(out.layer)
		switch wl {
		case "click-warm":
			if layer["cluster.rpc_ms"].Value <= 0 || layer["colstore.cold_chunk_loads"].Value != 0 {
				t.Errorf("click-warm: rpc_ms %v, cold_chunk_loads %v", layer["cluster.rpc_ms"].Value, layer["colstore.cold_chunk_loads"].Value)
			}
		case "click-cold":
			if layer["cluster.rpc_ms"].Value != 0 || layer["colstore.cold_chunk_loads"].Value <= 0 {
				t.Errorf("click-cold: rpc_ms %v, cold_chunk_loads %v", layer["cluster.rpc_ms"].Value, layer["colstore.cold_chunk_loads"].Value)
			}
		case "ingest-mixed":
			if layer["ingest.snapshot_ms"].Value <= 0 || layer["ingest.seals"].Value <= 0 {
				t.Errorf("ingest-mixed: snapshot_ms %v, seals %v", layer["ingest.snapshot_ms"].Value, layer["ingest.seals"].Value)
			}
		}
	}
}

// countsTwice runs a click workload twice on one seed with one client and
// reports every count that differs between the runs.
func countsTwice(t *testing.T, wl string) {
	counts := []string{
		"exec.skipped_frac", "exec.cached_frac", "exec.scanned_frac", "exec.cells_scanned",
		"cluster.partial_bytes", "colstore.cold_chunk_loads", "colstore.disk_mb_read",
	}
	var runs []map[string]metric
	for i := 0; i < 2; i++ {
		cfg := tinyConfig(t, wl, true)
		cfg.clients = 1
		out, err := workloads[wl](cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, byName(out.layer))
	}
	for _, name := range counts {
		if a, b := runs[0][name].Value, runs[1][name].Value; a != b {
			t.Errorf("%s: %s = %v then %v", wl, name, a, b)
		}
	}
}

// TestCountsRepeatWarm: with one client, click-warm's per-layer counts are
// the same on two runs of one seed.
func TestCountsRepeatWarm(t *testing.T) { countsTwice(t, "click-warm") }

// TestCountsRepeatCold: the same for click-cold. This fails at the commit
// that adds the benchmark: colstore.PinSet.Release drops a query's pins in
// map order, so the order entries reach the memory manager's eviction
// queue — and with it which later loads are cold — changes from run to
// run. Releasing in a fixed order makes the counts repeat.
func TestCountsRepeatCold(t *testing.T) { countsTwice(t, "click-cold") }

// TestTracedNodeCountsRows: the decorator forwards cluster.RowCounter, so
// the dispatcher's Stat round sees through it.
func TestTracedNodeCountsRows(t *testing.T) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: 3000, Seed: 1})
	st, err := colstore.FromTable(tbl, colstore.Options{MaxChunkRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var node cluster.Leaf = &tracedNode{inner: cluster.NewLocalLeaf("leaf", exec.New(st, exec.Options{})), t: newTracer()}
	rc, ok := node.(cluster.RowCounter)
	if !ok {
		t.Fatal("tracedNode does not implement cluster.RowCounter")
	}
	n, err := rc.NumRows(context.Background())
	if err != nil || n != 3000 {
		t.Fatalf("NumRows = %d, %v; want 3000", n, err)
	}
}
