package ingest

import (
	"sync"

	"powerdrill/internal/colstore"
	"powerdrill/internal/dict"
	"powerdrill/internal/exec"
	"powerdrill/internal/table"
	"powerdrill/internal/value"
)

// writeChunk is the in-memory buffer rows append into: one arrival-order
// dictionary (dict.Append) plus a uint32 id per row and column, so the
// buffer is dictionary-encoded from the first row — its footprint tracks
// distinct values plus 4 bytes a cell, not raw strings.
//
// Lock order: Writer.mu may be held while taking mu (seal marks the chunk
// sealed inside the writer's critical section); mu is never held while
// taking Writer.mu. A freeze holds runsMu while it reads rows under mu;
// Writer.mu is never held while taking runsMu.
type writeChunk struct {
	mu     sync.Mutex
	cols   []wcCol
	rows   int
	sealed bool

	// wal is the chunk's live WAL file: every batch is framed into it
	// before the column buffers are touched. walSeqs lists every WAL
	// sequence whose rows this chunk holds — just wal.seq for a fresh
	// chunk, the replayed sequences plus the new one for a chunk rebuilt
	// by recovery. When the chunk's segment commits, these sequences
	// retire. nil for pre-WAL chunks built by tests.
	wal     *walFile
	walSeqs []int

	// runs are the buffer's frozen runs: immutable imports of consecutive
	// row ranges, in row order, together covering rows [0, runs' end).
	// Snapshots query them as units; see freezeAt for how they grow.
	runsMu sync.Mutex
	runs   []*frozenRun
}

// wcCol is one column of the write buffer.
type wcCol struct {
	meta colstore.ColumnMeta
	dict *dict.Append
	ids  []uint32
}

// frozenRun is an immutable queryable build of write-chunk rows
// [start, end): an engine, sharing the writer's admission gate, over a
// fully resident colstore constructed with the base store's import
// options.
type frozenRun struct {
	start, end int
	eng        *exec.Engine
}

func (r *frozenRun) rows() int { return r.end - r.start }

func newWriteChunk(schema []colstore.ColumnMeta) *writeChunk {
	wc := &writeChunk{cols: make([]wcCol, len(schema))}
	for i, m := range schema {
		wc.cols[i] = wcCol{meta: m, dict: dict.NewAppend(m.Kind)}
	}
	return wc
}

// append encodes tbl's rows into the buffer. ok is false when the chunk
// was sealed before the lock was acquired — the caller retries against
// the writer's fresh chunk. The whole batch lands in one critical
// section, so a snapshot cut never splits a batch; the WAL frame is
// written inside that same section, *before* any buffer mutation, so a
// batch that fails to reach the log is rejected with memory untouched
// and a crash mid-frame leaves a torn tail covering only unacknowledged
// rows. payload is the batch's pre-encoded frame (nil skips logging —
// the replay path, whose rows are already on disk).
func (c *writeChunk) append(tbl *table.Table, payload []byte, syncNow bool) (rows int, ok bool, err error) {
	n := tbl.NumRows()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return 0, false, nil
	}
	if payload != nil && c.wal != nil {
		if err := c.wal.appendFrame(payload, syncNow); err != nil {
			return 0, false, err
		}
	}
	for i := range c.cols {
		wc := &c.cols[i]
		src := tbl.Column(wc.meta.Name)
		switch wc.meta.Kind {
		case value.KindString:
			for _, s := range src.Strs {
				wc.ids = append(wc.ids, wc.dict.AddString(s))
			}
		case value.KindInt64:
			for _, v := range src.Ints {
				wc.ids = append(wc.ids, wc.dict.AddInt64(v))
			}
		default:
			for _, v := range src.Floats {
				wc.ids = append(wc.ids, wc.dict.AddFloat64(v))
			}
		}
	}
	c.rows += n
	return c.rows, true, nil
}

// markSealed finalizes the row count; every later append retries against
// the writer's replacement chunk. Called with Writer.mu held, which is
// what makes "sealed chunks are complete" visible to snapshots: a chunk
// observed on the sealing list was marked sealed in an earlier Writer.mu
// critical section, so its row count can no longer move.
func (c *writeChunk) markSealed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = true
	return c.rows
}

// curRows returns the current row count — a snapshot's cut point for the
// live buffer.
func (c *writeChunk) curRows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows
}

// memoryBytes approximates the buffer's resident footprint.
func (c *writeChunk) memoryBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for i := range c.cols {
		total += c.cols[i].dict.MemoryBytes() + int64(len(c.cols[i].ids))*4
	}
	return total
}

// chunkRows captures an immutable view of rows [lo, hi): the id slices
// and dictionary value slices are snapshotted by header under the lock.
// Appends only ever grow them (existing elements are never rewritten, and
// a reallocating append leaves the old array behind untouched), so the
// captured views stay valid and race-free after the lock is dropped.
type chunkRows struct {
	cols []rowsCol
	rows int
}

type rowsCol struct {
	meta colstore.ColumnMeta
	ids  []uint32
	strs []string
	ints []int64
	flts []float64
}

func (c *writeChunk) rowRange(lo, hi int) chunkRows {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := chunkRows{rows: hi - lo, cols: make([]rowsCol, len(c.cols))}
	for i := range c.cols {
		wc := &c.cols[i]
		pc := rowsCol{meta: wc.meta, ids: wc.ids[lo:hi]}
		switch wc.meta.Kind {
		case value.KindString:
			pc.strs = wc.dict.Strings()
		case value.KindInt64:
			pc.ints = wc.dict.Int64s()
		default:
			pc.flts = wc.dict.Float64s()
		}
		p.cols[i] = pc
	}
	return p
}

// toTable decodes the rows back into a raw table — the input the ordinary
// import pipeline (colstore.FromTable) expects.
func (p chunkRows) toTable(name string) *table.Table {
	tbl := table.New(name)
	for _, pc := range p.cols {
		switch pc.meta.Kind {
		case value.KindString:
			vals := make([]string, p.rows)
			for i, id := range pc.ids {
				vals[i] = pc.strs[id]
			}
			tbl.AddStringColumn(pc.meta.Name, vals)
		case value.KindInt64:
			vals := make([]int64, p.rows)
			for i, id := range pc.ids {
				vals[i] = pc.ints[id]
			}
			tbl.AddInt64Column(pc.meta.Name, vals)
		default:
			vals := make([]float64, p.rows)
			for i, id := range pc.ids {
				vals[i] = pc.flts[id]
			}
			tbl.AddFloat64Column(pc.meta.Name, vals)
		}
	}
	return tbl
}

// freezeAt returns frozen runs covering exactly the first n rows, in row
// order. Runs are built with the writer's import options, so each
// partitions, reorders and dictionary-encodes its rows identically to a
// sealed segment of the same rows.
//
// The cached runs grow the way Bentley–Saxe's logarithmic method grows a
// static structure. A cut past the cached end makes the new rows a fresh
// run, then merges the last two runs while the older is at most twice
// the newer; the new rows and the runs they absorb are imported together
// as one run. Afterwards every run is more than twice the size of its
// successor, so the buffer never holds more than ⌈log2 n⌉+1 runs, each
// row is re-imported O(log n) times over the buffer's life instead of
// once per snapshot, and no single freeze imports more than the buffer.
//
// A cut below the cached end (an older cut that lost the race to a newer
// freeze) reuses the runs that end at or below n and builds the run that
// straddles n as a one-off, left out of the cache.
func (c *writeChunk) freezeAt(n int, w *Writer) ([]*frozenRun, error) {
	if n == 0 {
		return nil, nil
	}
	c.runsMu.Lock()
	defer c.runsMu.Unlock()
	end := 0
	if k := len(c.runs); k > 0 {
		end = c.runs[k-1].end
	}
	if n < end {
		var out []*frozenRun
		for _, r := range c.runs {
			if r.end <= n {
				out = append(out, r)
				continue
			}
			if r.start < n {
				tail, err := c.freeze(r.start, n, w)
				if err != nil {
					return nil, err
				}
				out = append(out, tail)
			}
			break
		}
		return out, nil
	}
	if n > end {
		// The merges depend only on run sizes, so settle which runs the
		// new rows absorb first and import the result once.
		lo, k := end, len(c.runs)
		for k > 0 && c.runs[k-1].rows() <= 2*(n-lo) {
			k--
			lo = c.runs[k].start
		}
		r, err := c.freeze(lo, n, w)
		if err != nil {
			return nil, err
		}
		c.runs = append(c.runs[:k], r)
	}
	return append([]*frozenRun(nil), c.runs...), nil
}

// freeze imports rows [lo, hi) as one run.
func (c *writeChunk) freeze(lo, hi int, w *Writer) (*frozenRun, error) {
	cs, err := colstore.FromTable(c.rowRange(lo, hi).toTable("mem"), w.base.Opts)
	if err != nil {
		return nil, err
	}
	w.freezeRows.Add(int64(hi - lo))
	return &frozenRun{start: lo, end: hi, eng: exec.New(cs, w.unitEngineOpts())}, nil
}

// numRuns returns the number of cached frozen runs.
func (c *writeChunk) numRuns() int {
	c.runsMu.Lock()
	defer c.runsMu.Unlock()
	return len(c.runs)
}
