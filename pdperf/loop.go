package main

// The closed-loop click driver shared by every workload's reader: one user
// clicks through a drill-down session, and the next click starts when the
// previous one ends. A click's queries run with at most cfg.clients calls
// in flight.

import (
	"context"
	"sync"
	"time"

	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
	"powerdrill/internal/workload"
)

// blockClicks is the length of one drill cycle in workload.DrillDownSession
// (reset, +country, +user, +table_name). A traced run alternates whole
// cycles between traced and untraced, so both halves see the session's mix
// of unrestricted and narrow clicks.
const blockClicks = 4

// slices is how many equal time slices the measured loop is cut into. The
// gated latency and throughput metrics are the median over slices of each
// slice's figure, so a burst of host contention that slows one or two
// slices does not move them.
const slices = 5

// countClicks is the window the per-layer counts cover: the traced clicks
// among the first countClicks clicks. With one client the counts over a
// fixed window repeat exactly for a seed; a traced run always covers it.
const countClicks = 40

type clickDriver struct {
	cfg    config
	tr     *tracer
	clicks []workload.Click
	// query runs one query and returns the answer and its latency.
	query func(ctx context.Context, q string) (answer, time.Duration)
	// check reports whether an answer is correct.
	check func(q string, r *exec.Result) bool
	// counters reads cumulative engine counters; the loop sums their
	// growth over the traced clicks of the count window.
	counters func() map[string]float64
	// keepGoing, when set, extends the run past the deadline (ingest-mixed
	// reads until the appender is done).
	keepGoing func() bool
}

// loopResult is what the click loop measured.
type loopResult struct {
	clickMS, queryMS  []float64 // untraced clicks and queries
	tracedQueryMS     []float64
	attempted, failed int
	clicksDone        int
	perSlice          [slices]sliceSums // untraced clicks, by start time

	// Over the traced clicks of the count window: summed query stats,
	// counter growth, and the highest span id issued (spans with a query
	// id up to it belong to those clicks).
	windowStats    exec.QueryStats
	windowCounters map[string]float64
	windowMaxID    int64
	wireBytes      []float64 // count window only
	encUS, decUS   []float64 // every traced click
}

// sliceSums accumulates one time slice's untraced clicks.
type sliceSums struct {
	clicks, queries int
	clickMS         float64
	queryMS         float64
	cells           int64
	wall            time.Duration
}

func (d *clickDriver) run() (*loopResult, error) {
	res := &loopResult{windowCounters: map[string]float64{}}
	start := time.Now()
	length := time.Duration(d.cfg.seconds * float64(time.Second))
	deadline := start.Add(length)
	n := len(d.clicks)
	for k := 0; ; k++ {
		over := !time.Now().Before(deadline) && (d.keepGoing == nil || !d.keepGoing())
		if over && (!d.cfg.trace || (k >= countClicks && k%(2*blockClicks) == 0)) {
			break
		}
		traced := d.cfg.trace && (k/blockClicks)%2 == 0
		inWindow := traced && k < countClicks
		var before map[string]float64
		if inWindow && d.counters != nil {
			before = d.counters()
		}
		if d.tr != nil {
			d.tr.on.Store(traced)
		}
		click := d.clicks[k%n]
		slice := &res.perSlice[min(slices-1, int(int64(slices)*int64(time.Since(start))/int64(max(length, 1))))]
		lats, answers, wall := d.runClick(click, traced)
		if d.tr != nil {
			d.tr.on.Store(false)
		}
		res.clicksDone++
		if !traced {
			res.clickMS = append(res.clickMS, ms(wall))
			slice.clicks++
			slice.clickMS += ms(wall)
			slice.wall += wall
		}
		for i, q := range click.Queries {
			res.attempted++
			a := answers[i]
			ok := a.err == nil && a.res != nil && d.check(q, a.res)
			if a.after != nil && a.after() != nil {
				ok = false
			}
			if !ok {
				res.failed++
				continue
			}
			if traced {
				res.tracedQueryMS = append(res.tracedQueryMS, ms(lats[i]))
			} else {
				res.queryMS = append(res.queryMS, ms(lats[i]))
				slice.queries++
				slice.queryMS += ms(lats[i])
				slice.cells += a.res.Stats.CellsCovered
			}
			if inWindow {
				addStats(&res.windowStats, a.res.Stats)
			}
		}
		if inWindow && d.counters != nil {
			for name, v := range d.counters() {
				res.windowCounters[name] += v - before[name]
			}
		}
		if traced {
			b, enc, dec, err := wireTimes(d.tr.takeShipped())
			if err != nil {
				return nil, err
			}
			res.encUS = append(res.encUS, enc...)
			res.decUS = append(res.decUS, dec...)
			if inWindow {
				res.wireBytes = append(res.wireBytes, b...)
			}
		}
		if inWindow {
			res.windowMaxID = d.tr.ids.Load()
		}
	}
	return res, nil
}

type answer struct {
	res *exec.Result
	err error
	// after, when set, runs once the click's wall time is taken: checks
	// that need state the query holds, and the release of that state.
	after func() error
}

// runClick issues a click's queries with at most cfg.clients in flight and
// returns per-query latencies, the answers and the click's wall time.
func (d *clickDriver) runClick(click workload.Click, traced bool) ([]time.Duration, []answer, time.Duration) {
	lats := make([]time.Duration, len(click.Queries))
	answers := make([]answer, len(click.Queries))
	sem := make(chan struct{}, d.cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range click.Queries {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, q string) {
			defer func() { <-sem; wg.Done() }()
			ctx := context.Background()
			if traced {
				qid := d.tr.newID()
				// The engine parses inside each node; this times one such
				// parse of the same text, before the query starts.
				d.tr.timed(spanRef{qid: qid}, spanParse, func(spanRef) { _, _ = sql.Parse(q) })
				ctx = withSpan(ctx, spanRef{qid: qid, id: qid})
				st := d.tr.now()
				answers[i], lats[i] = d.query(ctx, q)
				d.tr.record(span{ID: qid, QID: qid, Name: spanQuery, Start: st, End: d.tr.now()})
				return
			}
			answers[i], lats[i] = d.query(ctx, q)
		}(i, q)
	}
	wg.Wait()
	return lats, answers, time.Since(start)
}

// addStats sums the per-query counters the per-layer metrics read.
func addStats(dst *exec.QueryStats, s exec.QueryStats) {
	dst.ChunksTotal += s.ChunksTotal
	dst.ChunksSkipped += s.ChunksSkipped
	dst.ChunksCached += s.ChunksCached
	dst.ChunksScanned += s.ChunksScanned
	dst.CellsCovered += s.CellsCovered
	dst.CellsScanned += s.CellsScanned
	dst.ColdChunkLoads += s.ColdChunkLoads
	dst.DiskBytesRead += s.DiskBytesRead
	dst.ReadRuns += s.ReadRuns
	dst.ChecksumVerified += s.ChecksumVerified
}

// clickMetrics returns the reader's end-to-end metrics: the gated ones
// (BENCHMARK.json end_to_end) and the percentiles, which are reported but
// not gated — a click's latency depends on how narrow its restriction is,
// and the median and p90 fall between those classes, so across seeds they
// spread wider than any bound the benchmark may set (see README.md).
func clickMetrics(r *loopResult) (gated, reported []metric) {
	var clickMS, queryMS, cellsPerS []float64
	for _, s := range r.perSlice {
		if s.clicks == 0 || s.queries == 0 {
			continue
		}
		clickMS = append(clickMS, s.clickMS/float64(s.clicks))
		queryMS = append(queryMS, s.queryMS/float64(s.queries))
		cellsPerS = append(cellsPerS, float64(s.cells)/s.wall.Seconds())
	}
	gated = []metric{
		{"click_mean_ms", quantile(clickMS, 0.5), "ms"},
		{"query_mean_ms", quantile(queryMS, 0.5), "ms"},
		{"cells_per_s", quantile(cellsPerS, 0.5), "cells/s"},
	}
	reported = []metric{
		{"click_p50_ms", quantile(r.clickMS, 0.5), "ms"},
		{"click_p90_ms", quantile(r.clickMS, 0.9), "ms"},
		{"query_p50_ms", quantile(r.queryMS, 0.5), "ms"},
		{"query_p90_ms", quantile(r.queryMS, 0.9), "ms"},
	}
	return gated, reported
}

// spanMetrics computes the per-layer metrics that come from spans and from
// the count window's query stats, common to every workload.
func spanMetrics(r *loopResult, spans []span) []metric {
	st := newSpanTree(spans)
	var parseUS, leafMS, rootSelf, mixerSelf, waitMS, rpcMS []float64
	var leafBusy time.Duration
	for _, s := range spans {
		switch s.Name {
		case spanParse:
			parseUS = append(parseUS, float64(s.dur())/1e3)
		case spanLeaf:
			leafMS = append(leafMS, ms(s.dur()))
			if s.QID <= r.windowMaxID {
				leafBusy += s.dur()
			}
		case spanQuery:
			// Only a serving tree's root: an ingest query has no cluster
			// children.
			if kids := st.children[s.ID]; len(kids) > 0 && (kids[0].Name == spanCall || kids[0].Name == spanMixer) {
				rootSelf = append(rootSelf, ms(st.selfTime(s)))
			}
		case spanMixer:
			mixerSelf = append(mixerSelf, ms(st.selfTime(s)))
		}
		p, ok := st.byID[s.Parent]
		if !ok {
			continue
		}
		switch {
		case p.Name == spanCall:
			// The server side of an RPC edge: what the wire added.
			rpcMS = append(rpcMS, ms(p.dur()-s.dur()))
		case s.Name == spanCall || s.Name == spanMixer || s.Name == spanLeaf:
			// A node dispatching to a child: how long until the child ran.
			waitMS = append(waitMS, ms(time.Duration(s.Start-p.Start)))
		}
	}
	qs := r.windowStats
	chunks := float64(qs.ChunksTotal)
	c := r.windowCounters
	return []metric{
		{"sql.parse_us", quantile(parseUS, 0.5), "us"},
		{"exec.leaf_ms", quantile(leafMS, 0.5), "ms"},
		{"exec.leaf_busy_s", leafBusy.Seconds(), "s"},
		{"exec.cache_hit_rate", ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"]), "ratio"},
		{"exec.skipped_frac", ratio(float64(qs.ChunksSkipped), chunks), "ratio"},
		{"exec.cached_frac", ratio(float64(qs.ChunksCached), chunks), "ratio"},
		{"exec.scanned_frac", ratio(float64(qs.ChunksScanned), chunks), "ratio"},
		{"exec.cells_scanned", float64(qs.CellsScanned), "count"},
		{"cluster.root_self_ms", quantile(rootSelf, 0.5), "ms"},
		{"cluster.mixer_self_ms", quantile(mixerSelf, 0.5), "ms"},
		{"cluster.wait_ms", quantile(waitMS, 0.5), "ms"},
		{"cluster.rpc_ms", quantile(rpcMS, 0.5), "ms"},
		{"cluster.partial_bytes", mean(r.wireBytes), "B"},
		{"cluster.encode_us", quantile(r.encUS, 0.5), "us"},
		{"cluster.decode_us", quantile(r.decUS, 0.5), "us"},
		{"cluster.subqueries_per_answer", ratio(c["cluster.subqueries"], c["cluster.answers"]), "ratio"},
		{"colstore.cold_chunk_loads", float64(qs.ColdChunkLoads), "count"},
		{"colstore.disk_mb_read", float64(qs.DiskBytesRead) / 1e6, "MB"},
		{"colstore.read_runs", float64(qs.ReadRuns), "count"},
		{"colstore.checksum_verified", float64(qs.ChecksumVerified), "count"},
		{"colstore.decompress_s", c["io.decompress_ns"] / 1e9, "s"},
		{"memmgr.hit_rate", ratio(c["mem.hits"], c["mem.hits"]+c["mem.cold_loads"]), "ratio"},
		{"memmgr.evictions", c["mem.evictions"], "count"},
		{"memmgr.evicted_mb", c["mem.evicted_bytes"] / 1e6, "MB"},
	}
}

// overheadMetric compares traced and untraced query medians of one run.
func overheadMetric(r *loopResult) metric {
	un := quantile(r.queryMS, 0.5)
	return metric{"trace.overhead_frac", ratio(quantile(r.tracedQueryMS, 0.5)-un, un), "ratio"}
}
