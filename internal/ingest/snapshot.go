package ingest

import (
	"sync"

	"powerdrill/internal/exec"
	"powerdrill/internal/sql"
)

// Snapshot is one consistent cut of the append stream: the base store,
// the committed segments of one generation (pinned against retirement),
// the sealed-but-uncommitted buffers in full, and a frozen prefix of the
// live write buffer. Every query run against the same snapshot sees
// bit-for-bit the same rows, however many appends, seals or compactions
// land concurrently. Release the snapshot when done; a snapshot is safe
// for concurrent queries.
type Snapshot struct {
	w *Writer
	// units are the queryable parts in a fixed order (base, segments in
	// manifest order, then each buffer's frozen runs in row order: sealed
	// buffers in seal order, the live buffer last), so merge order — and
	// therefore the result — is deterministic.
	units []unit
	// pinned are the segments whose refs this snapshot holds.
	pinned []*segment
	rows   int64

	mu       sync.Mutex
	released bool
}

// unit is one queryable part of a snapshot.
type unit struct {
	eng  *exec.Engine
	rows int
}

// snapshotCut is what a snapshot fixes in one Writer.mu critical section:
// the pinned segments, the sealed buffers and the live buffer's row count.
type snapshotCut struct {
	pinned  []*segment
	sealing []*writeChunk
	mem     *writeChunk
	memRows int
}

// Snapshot takes a consistent cut. The cut point is chosen in one mu
// critical section — generation segment list, sealed buffers, live-buffer
// row count — which is exactly why seal marks buffers sealed *inside*
// that same lock: everything the cut sees is a prefix of the append
// stream. Freezing the buffers happens after the lock is dropped.
func (w *Writer) Snapshot() (*Snapshot, error) {
	return w.snapshotAt(w.cut())
}

func (w *Writer) cut() snapshotCut {
	w.mu.Lock()
	defer w.mu.Unlock()
	pinned := make([]*segment, len(w.segs))
	for i, s := range w.segs {
		s.refs++
		pinned[i] = s
	}
	return snapshotCut{
		pinned:  pinned,
		sealing: append([]*writeChunk(nil), w.sealing...),
		mem:     w.mem,
		memRows: w.mem.curRows(),
	}
}

// snapshotAt freezes the buffers at cut c. Each frozen run of a buffer
// becomes its own unit: the per-unit merge in Run treats a run exactly
// like a segment. Sealed buffers are complete, so their runs stay cached
// until the segment commits.
func (w *Writer) snapshotAt(c snapshotCut) (*Snapshot, error) {
	snap := &Snapshot{w: w, pinned: c.pinned}
	fail := func(err error) (*Snapshot, error) {
		snap.Release()
		return nil, err
	}
	if rows := w.base.NumRows(); rows > 0 {
		snap.units = append(snap.units, unit{eng: w.baseEng, rows: rows})
	}
	for _, s := range c.pinned {
		snap.units = append(snap.units, unit{eng: s.eng, rows: s.rows})
	}
	addRuns := func(wc *writeChunk, n int) error {
		runs, err := wc.freezeAt(n, w)
		for _, r := range runs {
			snap.units = append(snap.units, unit{eng: r.eng, rows: r.rows()})
		}
		return err
	}
	for _, wc := range c.sealing {
		if err := addRuns(wc, wc.curRows()); err != nil {
			return fail(err)
		}
	}
	if err := addRuns(c.mem, c.memRows); err != nil {
		return fail(err)
	}
	if len(snap.units) == 0 {
		// Empty store, nothing appended: query the base so callers still
		// get a well-formed (empty) result.
		snap.units = append(snap.units, unit{eng: w.baseEng})
	}
	for _, u := range snap.units {
		snap.rows += int64(u.rows)
	}
	return snap, nil
}

// NumRows returns the number of rows the snapshot covers.
func (s *Snapshot) NumRows() int64 { return s.rows }

// Query parses and runs a SQL query against the snapshot.
func (s *Snapshot) Query(src string) (*exec.Result, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.Run(stmt)
}

// Run executes a parsed statement against the snapshot. A single-unit
// snapshot (no appends yet, or everything compacted into the base) runs
// the plain engine — full feature compatibility. A multi-unit snapshot
// runs each unit and merges: aggregates through the same partial
// machinery the distributed tree uses (Section 4), row scans by
// concatenating per-unit scans in unit order and applying ORDER BY and
// LIMIT once at the end. COUNT(DISTINCT x) merges as a sketch, so exact
// distinct mode only works single-unit — the same restriction the
// cluster has.
func (s *Snapshot) Run(stmt *sql.SelectStmt) (*exec.Result, error) {
	if len(s.units) == 1 {
		res, err := s.units[0].eng.Run(stmt)
		if err != nil {
			return nil, err
		}
		res.Stats.RowsTotal = s.rows
		res.Stats.RowsCovered = s.rows
		return res, nil
	}
	hasAgg := false
	for _, item := range stmt.Items {
		if sql.HasAggregate(item.Expr) {
			hasAgg = true
			break
		}
	}
	if !hasAgg && len(stmt.GroupBy) == 0 {
		return s.runRowScan(stmt)
	}
	return s.runAggregate(stmt)
}

// runAggregate merges per-unit partials in unit order.
func (s *Snapshot) runAggregate(stmt *sql.SelectStmt) (*exec.Result, error) {
	var merged *exec.Partial
	for _, u := range s.units {
		p, err := u.eng.RunPartial(stmt)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = p
			continue
		}
		if err := exec.MergePartials(merged, p); err != nil {
			return nil, err
		}
	}
	return exec.FinalizePartial(stmt, merged)
}

// runRowScan concatenates per-unit projections in unit order. Each unit
// runs with the LIMIT stripped (a per-unit limit would cut rows the
// global limit keeps); ORDER BY and LIMIT apply once to the assembled
// result, as at the root of the serving tree.
func (s *Snapshot) runRowScan(stmt *sql.SelectStmt) (*exec.Result, error) {
	sub := *stmt
	sub.Limit = -1
	var out *exec.Result
	for _, u := range s.units {
		res, err := u.eng.Run(&sub)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = res
			continue
		}
		out.Rows = append(out.Rows, res.Rows...)
		addQueryStats(&out.Stats, res.Stats)
	}
	out.Stats.RowsTotal = s.rows
	out.Stats.RowsCovered = s.rows
	out.Coverage = 1
	exec.ApplyOrderLimit(stmt, out)
	return out, nil
}

// addQueryStats folds one unit's execution counters into the total.
func addQueryStats(dst *exec.QueryStats, src exec.QueryStats) {
	dst.ChunksTotal += src.ChunksTotal
	dst.ChunksSkipped += src.ChunksSkipped
	dst.ChunksCached += src.ChunksCached
	dst.ChunksScanned += src.ChunksScanned
	dst.RowsScanned += src.RowsScanned
	dst.RowsCached += src.RowsCached
	dst.RowsSkipped += src.RowsSkipped
	dst.CellsCovered += src.CellsCovered
	dst.CellsScanned += src.CellsScanned
	dst.ActiveChunks += src.ActiveChunks
	dst.SkippedChunks += src.SkippedChunks
	dst.ColdLoads += src.ColdLoads
	dst.ColdChunkLoads += src.ColdChunkLoads
	dst.ColdDictLoads += src.ColdDictLoads
	dst.ColdBytesLoaded += src.ColdBytesLoaded
	dst.DiskBytesRead += src.DiskBytesRead
	dst.ChecksumVerified += src.ChecksumVerified
	dst.ChecksumFailed += src.ChecksumFailed
	dst.CacheSkippedChunks += src.CacheSkippedChunks
	dst.ReadRuns += src.ReadRuns
	dst.CoalescedReads += src.CoalescedReads
}

// Release drops the snapshot's segment pins. The last release of a
// segment retired by compaction destroys it: directory removed, cache
// entries dropped from the memory budget, file handles closed.
func (s *Snapshot) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	s.mu.Unlock()

	var destroy []*segment
	s.w.mu.Lock()
	for _, seg := range s.pinned {
		seg.refs--
		if seg.retired && seg.refs == 0 {
			destroy = append(destroy, seg)
		}
	}
	s.w.mu.Unlock()
	for _, seg := range destroy {
		s.w.destroySegment(seg)
	}
}
