package main

// click-warm and click-cold: the paper's mouse click — a drill-down
// session of ~20 group-by queries per click — against a two-level serving
// tree (coordinator → one mixer → 4 leaves). click-warm serves fully
// resident shards over loopback RPC with the result cache on; click-cold
// serves shards saved as zippy v5 and opened lazily under one shared
// memory budget of a quarter of their resident bytes, in process, with the
// result cache off.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"powerdrill/internal/cluster"
	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
	"powerdrill/internal/workload"
)

const (
	numShards       = 4
	resultCacheSize = 256 << 20 // holds every chunk result of a session: no evictions
	sessionSeedSalt = 7919      // click-cold's session seed differs from click-warm's
)

func storeOptions(cfg config) colstore.Options {
	return colstore.Options{
		PartitionFields:  []string{"country", "table_name"},
		MaxChunkRows:     cfg.maxChunk,
		OptimizeElements: true,
	}
}

// tree is one assembled serving tree and what it needs to be read and torn
// down.
type tree struct {
	root    *cluster.Cluster
	mixer   *cluster.Mixer
	engines []*exec.Engine
	stores  []*colstore.Store // the served stores
	built   []*colstore.Store // click-cold: the in-memory imports, for the reference
	mgr     *memmgr.Manager
	dirs    []string

	listeners []net.Listener
	clients   []*cluster.RemoteLeaf
	serving   sync.WaitGroup
}

func (t *tree) close() {
	for _, l := range t.listeners {
		l.Close()
	}
	for _, c := range t.clients {
		c.Close()
	}
	t.serving.Wait()
	for _, s := range t.stores {
		s.Close()
	}
}

// serve serves node on a fresh loopback port, wrapped as the server side
// of a traced RPC edge, and returns its address.
func (t *tree) serve(node cluster.Leaf, spanName string, tr *tracer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	t.listeners = append(t.listeners, ln)
	traced := &tracedNode{inner: node, t: tr, name: spanName, side: rpcServer, addr: addr}
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = cluster.ServeNode(ln, traced) // returns when the listener closes
	}()
	return addr, nil
}

// dial returns a traced client stub for the node served at addr.
func (t *tree) dial(addr string, tr *tracer) cluster.Leaf {
	c := cluster.NewRemoteLeaf(addr)
	t.clients = append(t.clients, c)
	return &tracedNode{inner: c, t: tr, name: spanCall, side: rpcClient, addr: addr}
}

// treeOptions: one replica per child, so every sub-query has one answer
// and no hedges; no deadline.
var treeOptions = cluster.Options{Replicas: 1}

// leafOptions are the leaf engines' options: one admission gate for every
// leaf in the process, as cluster.OpenShards sets up.
func leafOptions() exec.Options { return exec.Options{Gate: exec.NewGate(0)} }

// setupWarm imports the shards fully resident and starts 4 leaf servers
// and a mixer server on loopback, with the coordinator as their client.
func setupWarm(shards []*table.Table, cfg config, tr *tracer) (*tree, error) {
	t := &tree{}
	eopts := leafOptions()
	eopts.ResultCacheBytes = resultCacheSize
	var children [][]cluster.Leaf
	for i, sh := range shards {
		st, err := colstore.FromTable(sh, storeOptions(cfg))
		if err != nil {
			t.close()
			return nil, err
		}
		eng := exec.New(st, eopts)
		t.stores = append(t.stores, st)
		t.engines = append(t.engines, eng)
		// What cluster.Serve does, with the leaf wrapped for tracing.
		addr, err := t.serve(cluster.NewLocalLeaf(fmt.Sprintf("leaf%d", i), eng), spanLeaf, tr)
		if err != nil {
			t.close()
			return nil, err
		}
		children = append(children, []cluster.Leaf{t.dial(addr, tr)})
	}
	t.mixer = cluster.NewMixer("mixer", children, treeOptions)
	maddr, err := t.serve(t.mixer, spanMixer, tr)
	if err != nil {
		t.close()
		return nil, err
	}
	t.root = cluster.FromLeaves([][]cluster.Leaf{{t.dial(maddr, tr)}}, treeOptions)
	return t, nil
}

// setupCold imports the shards, saves them as zippy, and opens them lazily
// under one memory manager budgeted at a quarter of their resident bytes;
// the tree runs in process.
func setupCold(shards []*table.Table, cfg config, tr *tracer, dir string) (*tree, error) {
	t := &tree{}
	var resident int64
	for i, sh := range shards {
		st, err := colstore.FromTable(sh, storeOptions(cfg))
		if err != nil {
			return nil, err
		}
		m, err := st.MemoryFor(st.Columns()...)
		if err != nil {
			return nil, err
		}
		resident += m.Total()
		d := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := colstore.Save(st, d, "zippy"); err != nil {
			return nil, err
		}
		t.built = append(t.built, st)
		t.dirs = append(t.dirs, d)
	}
	t.mgr = memmgr.New(resident/4, "")
	// With one client, the leaves take turns in a fixed order, so they
	// reach the shared budget in the same order on every run (see
	// config.serial).
	var serial *turnstile
	if cfg.serial() {
		serial = newTurnstile(numShards)
	}
	eopts := leafOptions()
	var children [][]cluster.Leaf
	for i, d := range t.dirs {
		st, _, err := colstore.OpenLazy(d, t.mgr)
		if err != nil {
			t.close()
			return nil, err
		}
		eng := exec.New(st, eopts)
		t.stores = append(t.stores, st)
		t.engines = append(t.engines, eng)
		leaf := &tracedNode{inner: cluster.NewLocalLeaf(fmt.Sprintf("leaf%d", i), eng), t: tr, name: spanLeaf, side: inProcess, serial: serial, index: i}
		children = append(children, []cluster.Leaf{leaf})
	}
	t.mixer = cluster.NewMixer("mixer", children, treeOptions)
	mixer := &tracedNode{inner: t.mixer, t: tr, name: spanMixer, side: inProcess}
	t.root = cluster.FromLeaves([][]cluster.Leaf{{mixer}}, treeOptions)
	return t, nil
}

// setupTimes runs setup n times, discarding each result but the last, and
// returns the last and the median set-up time. Each set-up starts after a
// collection, so none pays for the garbage of the one before.
func setupTimes[T any](n int, setup func(i int) (T, error), discard func(T) error) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := discard(last); err != nil {
				return last, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		v, err := setup(i)
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(times, 0.5), nil
}

// discardTree closes a tree and removes its store files.
func discardTree(t *tree) error {
	t.close()
	for _, d := range t.dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// distinctQueries lists each query text of a session once.
func distinctQueries(clicks []workload.Click) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range clicks {
		for _, q := range c.Queries {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// referenceAnswers answers every query from the shard stores directly:
// fresh engines with no result cache, no memory budget and no tree,
// their partials merged in shard order.
func referenceAnswers(stores []*colstore.Store, queries []string) (map[string]*refAnswer, error) {
	var engines []*exec.Engine
	for _, st := range stores {
		engines = append(engines, exec.New(st, exec.Options{}))
	}
	ref := map[string]*refAnswer{}
	for _, q := range queries {
		stmt, limit, err := unlimited(q)
		if err != nil {
			return nil, err
		}
		var merged *exec.Partial
		for _, e := range engines {
			p, err := e.RunPartial(stmt)
			if err != nil {
				return nil, fmt.Errorf("reference %q: %w", q, err)
			}
			if merged == nil {
				merged = p
			} else if err := exec.MergePartials(merged, p); err != nil {
				return nil, err
			}
		}
		res, err := exec.FinalizePartial(stmt, merged)
		if err != nil {
			return nil, err
		}
		ref[q] = newRefAnswer(stmt, limit, res)
	}
	return ref, nil
}

// treeCounters reads the cumulative counters of every layer the click
// tree exercises.
func treeCounters(t *tree) func() map[string]float64 {
	return func() map[string]float64 {
		c := map[string]float64{}
		for _, e := range t.engines {
			if cs, ok := e.CacheStats(); ok {
				c["cache.hits"] += float64(cs.Hits)
				c["cache.misses"] += float64(cs.Misses)
			}
		}
		for _, s := range t.stores {
			if io, ok := s.IOStats(); ok {
				c["io.decompress_ns"] += float64(io.DecompressNanos)
			}
		}
		if t.mgr != nil {
			ms := t.mgr.Stats()
			c["mem.hits"] = float64(ms.Hits)
			c["mem.cold_loads"] = float64(ms.ColdLoads)
			c["mem.evictions"] = float64(ms.Evictions)
			c["mem.evicted_bytes"] = float64(ms.EvictedBytes)
		}
		// Answers used: one per child of every node per query, less the
		// ones a degraded answer missed.
		rs, xs := t.root.Stats(), t.mixer.Stats()
		c["cluster.subqueries"] = float64(rs.SubQueries + xs.SubQueries)
		c["cluster.answers"] = float64(rs.Queries-rs.ShardsMissing) + float64(xs.Queries*numShards-xs.ShardsMissing)
		return c
	}
}

// residentBytes is the column bytes the tree's engines hold.
func (t *tree) residentBytes() (int64, error) {
	if t.mgr != nil {
		total := t.mgr.Stats().ResidentBytes
		for _, s := range t.stores {
			total += s.UnevictableVirtualBytes()
		}
		return total, nil
	}
	var total int64
	for _, s := range t.stores {
		m, err := s.MemoryFor(s.Columns()...)
		if err != nil {
			return 0, err
		}
		total += m.Total()
	}
	return total, nil
}

func runClickWarm(cfg config) (*outcome, error) { return runClick(cfg, false) }
func runClickCold(cfg config) (*outcome, error) { return runClick(cfg, true) }

func runClick(cfg config, cold bool) (*outcome, error) {
	tbl := workload.QueryLogs(workload.LogsSpec{Rows: cfg.rows, Seed: cfg.seed})
	sessionSeed := cfg.seed
	if cold {
		sessionSeed += sessionSeedSalt
	}
	clicks := workload.DrillDownSession(tbl, workload.SessionSpec{Seed: sessionSeed, Clicks: cfg.clicks, QueriesPerClick: 20})
	shards := tbl.Shard(numShards)
	tr := newTracer()

	t, setupS, err := setupTimes(cfg.setups, func(i int) (*tree, error) {
		if cold {
			return setupCold(shards, cfg, tr, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)))
		}
		return setupWarm(shards, cfg, tr)
	}, discardTree)
	if err != nil {
		return nil, err
	}
	defer t.close()

	refStores := t.stores
	if cold {
		refStores = t.built
	}
	ref, err := referenceAnswers(refStores, distinctQueries(clicks))
	if err != nil {
		return nil, err
	}
	t.built = nil

	d := &clickDriver{
		cfg: cfg, tr: tr, clicks: clicks,
		query: func(ctx context.Context, q string) (answer, time.Duration) {
			start := time.Now()
			r, err := t.root.QueryContext(ctx, q)
			return answer{res: r, err: err}, time.Since(start)
		},
		check: func(q string, r *exec.Result) bool {
			want, ok := ref[q]
			return ok && r.Coverage == 1 && want.matches(r)
		},
		counters: treeCounters(t),
	}
	res, err := d.run()
	if err != nil {
		return nil, err
	}
	resident, err := t.residentBytes()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: res.attempted, failed: res.failed, tr: tr,
		info: map[string]any{
			"clicks_measured": res.clicksDone, "session_clicks": len(clicks), "shards": numShards,
			"click_samples": len(res.clickMS), "query_samples": len(res.queryMS),
		},
	}
	gated, reported := clickMetrics(res)
	out.e2e = append([]metric{{"setup_s", setupS, "s"}}, gated...)
	out.e2e = append(out.e2e, metric{"resident_mb", float64(resident) / 1e6, "MB"})
	out.extra = append(reported, metric{"failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio"})
	if cold {
		var disk int64
		for _, dir := range t.dirs {
			b, err := dirBytes(dir)
			if err != nil {
				return nil, err
			}
			disk += b
		}
		out.extra = append(out.extra, metric{"disk_bytes_per_row", float64(disk) / float64(cfg.rows), "B/row"})
		out.info["memory_budget_mb"] = float64(t.mgr.Stats().BudgetBytes) / 1e6
	}
	if cfg.trace {
		out.layer = append(spanMetrics(res, tr.snapshotSpans()), idleIngestMetrics()...)
		out.layer = append(out.layer, overheadMetric(res))
	}
	return out, nil
}

// idleIngestMetrics are the ingest layer's metrics on a workload that does
// not append.
func idleIngestMetrics() []metric {
	var out []metric
	for _, m := range []struct{ name, unit string }{
		{"ingest.snapshot_ms", "ms"}, {"ingest.snapshot_run_ms", "ms"},
		{"ingest.segments_mean", "count"}, {"ingest.mem_rows_mean", "count"},
		{"ingest.append_ms", "ms"}, {"ingest.gen_lag_ms", "ms"},
		{"ingest.seals", "count"}, {"ingest.compactions", "count"},
	} {
		out = append(out, metric{m.name, 0, m.unit})
	}
	return out
}
