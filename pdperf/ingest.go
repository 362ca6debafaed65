package main

// ingest-mixed: writes beside reads. A store saved to disk and reopened
// with its append path attached takes fixed-size batches from an
// open-loop appender on a fixed schedule, while one closed-loop reader
// runs the drill-down session on snapshots. The seal size is the engine's
// default (the store's chunk size), so the write-buffer freeze each
// snapshot pays shows as users see it.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/ingest"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/sql"
	"powerdrill/internal/table"
	"powerdrill/internal/workload"
)

const countQuery = `SELECT COUNT(*) AS c FROM data;`

// ingestStore is a store opened from disk with its append path attached —
// what powerdrill.Open and the first Store.Append assemble, built from the
// same calls so the benchmark can time Writer.Snapshot and Snapshot.Run
// apart.
type ingestStore struct {
	dir  string
	base *colstore.Store
	mgr  *memmgr.Manager
	w    *ingest.Writer
}

func (s *ingestStore) close() error {
	err := s.w.Close()
	if cerr := s.base.Close(); err == nil {
		err = cerr
	}
	return err
}

func setupIngest(base *table.Table, cfg config, dir string) (*ingestStore, error) {
	built, err := colstore.FromTable(base, storeOptions(cfg))
	if err != nil {
		return nil, err
	}
	if err := colstore.Save(built, dir, "zippy"); err != nil {
		return nil, err
	}
	mgr := memmgr.New(0, "")
	lazy, _, err := colstore.OpenLazy(dir, mgr)
	if err != nil {
		return nil, err
	}
	w, err := ingest.Attach(dir, lazy, exec.New(lazy, exec.Options{}), ingest.Opts{FsyncPolicy: ingest.FsyncInterval})
	if err != nil {
		lazy.Close()
		return nil, err
	}
	return &ingestStore{dir: dir, base: lazy, mgr: mgr, w: w}, nil
}

// appendLog is what the open-loop appender measured.
type appendLog struct {
	lats, lags []float64 // ms: ack − due, send − due
	rows       int64
	wall       time.Duration // first due time → last ack
	attempted  int
	failed     int
	err        error
}

// appendLoop sends batch i at start + i/rate, however late the previous
// batch was acknowledged, and times each from when it was due.
func appendLoop(w *ingest.Writer, tr *tracer, batches []*table.Table, rate int) *appendLog {
	log := &appendLog{}
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		var err error
		if tr.enabled() {
			tr.timed(spanRef{qid: tr.newID()}, spanAppend, func(spanRef) { err = w.Append(b) })
		} else {
			err = w.Append(b)
		}
		ack := time.Now()
		log.attempted++
		if err != nil {
			log.failed++
			if log.err == nil {
				log.err = err
			}
			continue
		}
		log.rows += int64(b.NumRows())
		log.lats = append(log.lats, ms(ack.Sub(due)))
		log.lags = append(log.lags, ms(sent.Sub(due)))
		log.wall = ack.Sub(start)
	}
	return log
}

func runIngestMixed(cfg config) (*outcome, error) {
	nBatches := int(float64(cfg.appendRate) * cfg.seconds)
	total := cfg.rows + nBatches*cfg.appendRows
	full := workload.QueryLogs(workload.LogsSpec{Rows: total, Seed: cfg.seed})
	base := full.Select(rowRange(0, cfg.rows))
	var batches []*table.Table
	for i := 0; i < nBatches; i++ {
		batches = append(batches, full.Select(rowRange(cfg.rows+i*cfg.appendRows, cfg.appendRows)))
	}
	clicks := workload.DrillDownSession(base, workload.SessionSpec{Seed: cfg.seed, Clicks: cfg.clicks, QueriesPerClick: 20})
	tr := newTracer()

	s, setupS, err := setupTimes(cfg.setups, func(i int) (*ingestStore, error) {
		return setupIngest(base, cfg, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)))
	}, (*ingestStore).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	before := s.w.Stats()

	var (
		mu        sync.Mutex
		lastCount int64
		segs      []float64
		memRows   []float64
	)
	countStmt, err := sql.Parse(countQuery)
	if err != nil {
		return nil, err
	}
	// countCheck checks a snapshot's own row count, and that the cut is
	// never behind the previous one, then releases the snapshot. It runs
	// after the click's wall time is taken; the reader has one client, so
	// the snapshots come in the order they were taken.
	countCheck := func(snap *ingest.Snapshot) error {
		defer snap.Release()
		cnt, err := snap.Run(countStmt)
		if err != nil {
			return err
		}
		n := cnt.Rows[0][0].Int()
		if n != cnt.Stats.RowsTotal || n != snap.NumRows() || n < lastCount {
			return fmt.Errorf("snapshot COUNT(*) = %d, RowsTotal %d, previous %d", n, cnt.Stats.RowsTotal, lastCount)
		}
		lastCount = n
		return nil
	}
	var appending atomic.Bool
	appending.Store(true)
	d := &clickDriver{
		cfg: cfg, tr: tr, clicks: clicks,
		query: func(ctx context.Context, q string) (answer, time.Duration) {
			parent, traced := spanFrom(ctx)
			start := time.Now()
			stmt, err := sql.Parse(q)
			if err != nil {
				return answer{err: err}, 0
			}
			var snap *ingest.Snapshot
			var res *exec.Result
			if traced && tr.enabled() {
				tr.timed(parent, spanSnapshot, func(spanRef) { snap, err = s.w.Snapshot() })
				if err == nil {
					tr.timed(parent, spanRun, func(spanRef) { res, err = snap.Run(stmt) })
				}
			} else if snap, err = s.w.Snapshot(); err == nil {
				res, err = snap.Run(stmt)
			}
			lat := time.Since(start)
			if err != nil {
				if snap != nil {
					snap.Release()
				}
				return answer{err: err}, lat
			}
			if traced {
				st := s.w.Stats()
				mu.Lock()
				segs = append(segs, float64(st.Segments))
				memRows = append(memRows, float64(st.MemRows))
				mu.Unlock()
			}
			return answer{res: res, after: func() error { return countCheck(snap) }}, lat
		},
		// During appends the reader's answers are checked by countCheck;
		// the final oracle checks the session's answers.
		check: func(_ string, r *exec.Result) bool { return r.Coverage == 1 },
		counters: func() map[string]float64 {
			ms := s.mgr.Stats()
			c := map[string]float64{
				"mem.hits": float64(ms.Hits), "mem.cold_loads": float64(ms.ColdLoads),
				"mem.evictions": float64(ms.Evictions), "mem.evicted_bytes": float64(ms.EvictedBytes),
			}
			if io, ok := s.base.IOStats(); ok {
				c["io.decompress_ns"] = float64(io.DecompressNanos)
			}
			return c
		},
		keepGoing: appending.Load,
	}

	var alog *appendLog
	done := make(chan struct{})
	go func() {
		defer close(done)
		alog = appendLoop(s.w, tr, batches, cfg.appendRate)
		appending.Store(false)
	}()
	res, err := d.run()
	appending.Store(false)
	<-done
	if err != nil {
		return nil, err
	}
	if alog.err != nil {
		return nil, fmt.Errorf("append: %w", alog.err)
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	after := s.w.Stats()

	attempted := res.attempted + alog.attempted
	failed := res.failed + alog.failed
	oAttempted, oFailed, err := finalOracle(s, full, cfg, clicks)
	if err != nil {
		return nil, err
	}
	attempted += oAttempted
	failed += oFailed

	resident := s.mgr.Stats().ResidentBytes + s.base.UnevictableVirtualBytes() + after.MemBytes
	disk, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: attempted, failed: failed, tr: tr,
		info: map[string]any{
			"clicks_measured": res.clicksDone, "session_clicks": len(clicks),
			"base_rows": cfg.rows, "appended_rows": alog.rows, "batch_rows": cfg.appendRows,
			"batches_per_s": cfg.appendRate, "fsync_policy": ingest.FsyncInterval,
			"seal_rows": cfg.maxChunk, "loop": "open-loop appender, one closed-loop reader",
			"click_samples": len(res.clickMS), "query_samples": len(res.queryMS),
			"seals": after.Seals - before.Seals, "compactions": after.Compactions - before.Compactions,
		},
	}
	gated, reported := clickMetrics(res)
	out.e2e = append([]metric{{"setup_s", setupS, "s"}}, gated...)
	out.e2e = append(out.e2e, metric{"resident_mb", float64(resident) / 1e6, "MB"})
	out.extra = append(reported, []metric{
		{"append_rows_per_s", ratio(float64(alog.rows), alog.wall.Seconds()), "rows/s"},
		{"append_p50_ms", quantile(alog.lats, 0.5), "ms"},
		{"append_p95_ms", quantile(alog.lats, 0.95), "ms"},
		{"failed_frac", ratio(float64(failed), float64(attempted)), "ratio"},
		{"disk_bytes_per_row", float64(disk) / float64(total), "B/row"},
	}...)
	if cfg.trace {
		spans := tr.snapshotSpans()
		var snapMS, runMS, appendMS []float64
		for _, sp := range spans {
			switch sp.Name {
			case spanSnapshot:
				snapMS = append(snapMS, ms(sp.dur()))
			case spanRun:
				runMS = append(runMS, ms(sp.dur()))
			case spanAppend:
				appendMS = append(appendMS, ms(sp.dur()))
			}
		}
		out.layer = spanMetrics(res, spans)
		out.layer = append(out.layer,
			metric{"ingest.snapshot_ms", quantile(snapMS, 0.5), "ms"},
			metric{"ingest.snapshot_run_ms", quantile(runMS, 0.5), "ms"},
			metric{"ingest.segments_mean", mean(segs), "count"},
			metric{"ingest.mem_rows_mean", mean(memRows), "count"},
			metric{"ingest.append_ms", quantile(appendMS, 0.5), "ms"},
			metric{"ingest.gen_lag_ms", mean(alog.lags), "ms"},
			metric{"ingest.seals", float64(after.Seals - before.Seals), "count"},
			metric{"ingest.compactions", float64(after.Compactions - before.Compactions), "count"},
			overheadMetric(res),
		)
	}
	return out, nil
}

// finalOracle checks, after the final flush, every session query and
// COUNT(*) on a fresh snapshot against a one-shot import of the same rows.
func finalOracle(s *ingestStore, full *table.Table, cfg config, clicks []workload.Click) (attempted, failed int, err error) {
	oneShot, err := colstore.FromTable(full, storeOptions(cfg))
	if err != nil {
		return 0, 0, err
	}
	eng := exec.New(oneShot, exec.Options{})
	snap, err := s.w.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	defer snap.Release()
	for _, q := range append(distinctQueries(clicks), countQuery) {
		stmt, limit, err := unlimited(q)
		if err != nil {
			return 0, 0, err
		}
		want, err := eng.Run(stmt)
		if err != nil {
			return 0, 0, fmt.Errorf("one-shot %q: %w", q, err)
		}
		orig, err := sql.Parse(q)
		if err != nil {
			return 0, 0, err
		}
		attempted++
		got, err := snap.Run(orig)
		if err != nil || !newRefAnswer(stmt, limit, want).matches(got) {
			failed++
		}
	}
	if snap.NumRows() != int64(full.NumRows()) {
		failed++
	}
	return attempted, failed, nil
}

func rowRange(start, n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = start + i
	}
	return rows
}
