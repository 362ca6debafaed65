package exec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"powerdrill/internal/enc"
	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// accCell accumulates one aggregate for one group. Minimum and maximum are
// tracked as global-ids: the global dictionary is sorted, so the order of
// ids is the order of values and no value needs materializing until the
// final result rows.
type accCell struct {
	count  int64
	sumI   int64
	sumF   float64
	minID  uint32
	maxID  uint32
	hasMM  bool
	sketch *sketch.KMV
	exact  map[uint32]struct{}
}

// merge folds o into c.
func (c *accCell) merge(o *accCell, spec aggSpec) {
	c.count += o.count
	c.sumI += o.sumI
	c.sumF += o.sumF
	if o.hasMM {
		if !c.hasMM {
			c.minID, c.maxID, c.hasMM = o.minID, o.maxID, true
		} else {
			if o.minID < c.minID {
				c.minID = o.minID
			}
			if o.maxID > c.maxID {
				c.maxID = o.maxID
			}
		}
	}
	if o.sketch != nil {
		if c.sketch == nil {
			c.sketch = sketch.NewKMV(o.sketch.M())
		}
		c.sketch.Merge(o.sketch)
	}
	if o.exact != nil {
		if c.exact == nil {
			c.exact = make(map[uint32]struct{}, len(o.exact))
		}
		for g := range o.exact {
			c.exact[g] = struct{}{}
		}
	}
}

// sizeBytes estimates the cache footprint of the cell.
func (c *accCell) sizeBytes() int64 {
	s := int64(64)
	if c.sketch != nil {
		s += c.sketch.MemoryBytes()
	}
	s += int64(len(c.exact)) * 16
	return s
}

// partial is one chunk's aggregate contribution: group global-ids plus a
// flattened [group][agg] accumulator matrix. Partials are what the result
// cache stores for fully active chunks and what the distributed execution
// tree ships between levels.
type partial struct {
	gids []uint32
	accs []accCell // len = len(gids) * nAggs
}

func (p *partial) sizeBytes() int64 {
	s := int64(len(p.gids)) * 4
	for i := range p.accs {
		s += p.accs[i].sizeBytes()
	}
	return s
}

// executeChunks classifies every chunk and aggregates the active ones,
// fanning the per-chunk work (classify, mask, aggregate, cache probe) out
// over the engine's parallelism. Workers produce one *partial per active
// chunk (the same unit the result cache stores and the execution tree
// ships); the partials then merge into the global group map in ascending
// chunk order on the calling goroutine. Merging in chunk order — not in
// the racy order workers finish — is what makes the result bit-for-bit
// identical to the sequential engine's even for float SUM/AVG, where
// addition order changes the last ULPs.
func (e *Engine) executeChunks(p *plan) (map[uint32][]accCell, QueryStats, error) {
	var qs QueryStats
	nChunks := e.store.NumChunks()
	qs.ChunksTotal = nChunks
	nCols := int64(len(p.accessCols))
	qs.CellsCovered = int64(e.store.NumRows()) * nCols
	qs.ActiveChunks = nChunks
	if p.active != nil {
		qs.ActiveChunks = p.activeCount
		qs.SkippedChunks = nChunks - p.activeCount
	}

	if p.rowScan {
		return nil, qs, fmt.Errorf("exec: internal: row scans do not aggregate")
	}

	// Admission control: take up to the wanted worker count from the shared
	// gate; under concurrent-query pressure the grant shrinks (never below
	// one), so total scan goroutines stay bounded by the gate's capacity.
	workers := e.gate.AcquireUpTo(e.chunkWorkers(nChunks))
	defer e.gate.Release(workers)
	parts := make([]*partial, nChunks) // nil entries are skipped chunks
	wqs := make([]QueryStats, workers)
	err := forEachChunk(nChunks, workers, nil, func(w, ci int) error {
		part, err := e.scanChunk(p, ci, nCols, &wqs[w])
		if err != nil {
			return err
		}
		parts[ci] = part
		return nil
	})
	if err != nil {
		return nil, qs, err
	}
	global := make(map[uint32][]accCell)
	for _, part := range parts {
		if part != nil {
			// Cached partials are shared between queries and workers;
			// mergePartial copies out of them, never aliasing.
			e.mergePartial(global, part, p)
		}
	}
	for w := 0; w < workers; w++ {
		qs.add(wqs[w])
	}
	return global, qs, nil
}

// scanChunk classifies one chunk and returns its partial contribution (nil
// for skipped chunks) — the unit of work one parallel worker claims at a
// time.
func (e *Engine) scanChunk(p *plan, ci int, nCols int64, qs *QueryStats) (*partial, error) {
	rows := e.store.ChunkRows(ci)
	if p.active != nil && !p.active[ci] {
		// Pruned by the residency analysis: on a chunk-granular store this
		// chunk's data was never loaded, so don't touch it — the plan's
		// column views have nil entries here.
		qs.ChunksSkipped++
		qs.RowsSkipped += int64(rows)
		return nil, nil
	}
	if part, ok := p.cachedParts[ci]; ok {
		// Answered by the cache-aware residency pass: the chunk is fully
		// active and its partial came from the result cache before anything
		// was pinned, so — like a residency-pruned chunk — its data was
		// never loaded and must not be touched.
		qs.ChunksCached++
		qs.CacheSkippedChunks++
		qs.RowsCached += int64(rows)
		return part, nil
	}
	state := activeAll
	if p.where != nil {
		if e.opts.DisableSkipping {
			state = activeSome
		} else {
			state = p.where.classify(e, ci)
		}
	}
	switch state {
	case activeNone:
		qs.ChunksSkipped++
		qs.RowsSkipped += int64(rows)
		return nil, nil
	case activeAll:
		if e.resultCache != nil {
			key := cacheKey(ci, p)
			if v, ok := e.resultCache.Get(key); ok {
				qs.ChunksCached++
				qs.RowsCached += int64(rows)
				return v.(*partial), nil
			}
			part, err := e.aggregateChunk(p, ci, nil, qs)
			if err != nil {
				return nil, err
			}
			e.resultCache.Put(key, part, part.sizeBytes())
			qs.ChunksScanned++
			qs.RowsScanned += int64(rows)
			qs.CellsScanned += int64(rows) * nCols
			return part, nil
		}
		part, err := e.aggregateChunk(p, ci, nil, qs)
		if err != nil {
			return nil, err
		}
		qs.ChunksScanned++
		qs.RowsScanned += int64(rows)
		qs.CellsScanned += int64(rows) * nCols
		return part, nil
	case activeSome:
		mask, err := p.where.mask(e, p, ci)
		if err != nil {
			return nil, err
		}
		part, err := e.aggregateChunk(p, ci, mask, qs)
		if err != nil {
			return nil, err
		}
		qs.ChunksScanned++
		qs.RowsScanned += int64(rows)
		qs.CellsScanned += int64(rows) * nCols
		return part, nil
	}
	return nil, nil
}

// cacheKey identifies a fully-active chunk's partial result. The
// chunk-independent part (p.cacheSig) is derived once per plan; the
// cache-aware residency pass probes the same keys before planning via a
// syntactic prediction of the signature (see cacheres.go).
func cacheKey(ci int, p *plan) string {
	return cacheKeyAt(ci, p.cacheSig)
}

// groupColumn returns the single column the engine groups by: the lone
// group column, the composite, or "" for a global aggregate.
func (p *plan) groupColumn() string {
	if p.composite != "" {
		return p.composite
	}
	if len(p.groupCols) == 1 {
		return p.groupCols[0]
	}
	return ""
}

// mergePartial folds a chunk partial into the global group map.
func (e *Engine) mergePartial(global map[uint32][]accCell, part *partial, p *plan) {
	na := len(p.aggs)
	for i, gid := range part.gids {
		accs, ok := global[gid]
		if !ok {
			accs = make([]accCell, na)
			global[gid] = accs
		}
		for j := 0; j < na; j++ {
			accs[j].merge(&part.accs[i*na+j], p.aggs[j])
		}
	}
}

// aggregateChunk computes a chunk's partial aggregates. mask == nil means
// the chunk is fully active. It dispatches to the vectorized kernels
// (kernels.go) unless Options.DisableKernels pins the scalar reference
// path — the oracle the differential fuzzer compares the kernels against.
// Both paths produce bit-for-bit identical partials, including float
// SUM/AVG accumulation order (ascending rows).
func (e *Engine) aggregateChunk(p *plan, ci int, mask *enc.Bitmap, qs *QueryStats) (*partial, error) {
	if e.opts.DisableKernels {
		if qs != nil {
			qs.ScalarChunks++
		}
		return e.aggregateChunkScalar(p, ci, mask)
	}
	if qs != nil {
		qs.KernelChunks++
	}
	return e.aggregateChunkVec(p, ci, mask)
}

// chunkAggCtx is the per-chunk geometry both aggregation paths share:
// group cardinality and global-ids, materialized group elements, and the
// per-aggregate argument tables (numeric value, hash, and global-id of
// each argument chunk-id — computed once per distinct value, not per row,
// the same trick the restriction masks use).
type chunkAggCtx struct {
	rows int
	na   int
	// Group geometry: chunk-ids 0..card-1 map to group global-ids. gseq and
	// gelems are nil for a global aggregate (card == 1, one implicit group).
	card      int
	groupGIDs []uint32
	gseq      enc.Sequence
	gelems    []uint32
	// Per-aggregate argument tables, indexed [agg][chunk-id] (argElems is
	// [agg][row]).
	argIsInt []bool
	argValsF [][]float64
	argValsI [][]int64
	argGIDs  [][]uint32
	argHash  [][]uint64
	argElems [][]uint32
}

// newChunkAggCtx resolves chunk ci's group geometry and argument tables.
func (e *Engine) newChunkAggCtx(p *plan, ci int) *chunkAggCtx {
	rows := e.store.ChunkRows(ci)
	gcol := p.groupColumn()
	na := len(p.aggs)
	c := &chunkAggCtx{rows: rows, na: na}
	if gcol == "" {
		c.card = 1
		c.groupGIDs = []uint32{0}
	} else {
		gch := p.col(e, gcol).Chunks[ci]
		c.card = gch.Cardinality()
		c.groupGIDs = gch.GlobalIDs
		c.gseq = gch.Elems
		c.gelems = gch.Elems.Materialize(make([]uint32, 0, rows))
	}

	c.argIsInt = make([]bool, na)
	c.argValsF = make([][]float64, na)
	c.argValsI = make([][]int64, na)
	c.argGIDs = make([][]uint32, na)
	c.argHash = make([][]uint64, na)
	c.argElems = make([][]uint32, na)
	for j, spec := range p.aggs {
		if spec.argCol == "" {
			continue
		}
		acol := p.col(e, spec.argCol)
		ach := acol.Chunks[ci]
		c.argGIDs[j] = ach.GlobalIDs
		c.argElems[j] = ach.Elems.Materialize(make([]uint32, 0, rows))
		switch spec.fn {
		case aggSum, aggAvg:
			if acol.Kind == value.KindInt64 {
				c.argIsInt[j] = true
				vals := make([]int64, len(ach.GlobalIDs))
				for i, gid := range ach.GlobalIDs {
					vals[i] = acol.Dict.Value(gid).Int()
				}
				c.argValsI[j] = vals
			} else {
				vals := make([]float64, len(ach.GlobalIDs))
				for i, gid := range ach.GlobalIDs {
					vals[i] = acol.Dict.Value(gid).AsFloat()
				}
				c.argValsF[j] = vals
			}
		case aggCountDistinct:
			if !e.opts.ExactDistinct {
				hs := make([]uint64, len(ach.GlobalIDs))
				for i, gid := range ach.GlobalIDs {
					hs[i] = acol.Dict.Hash(gid)
				}
				c.argHash[j] = hs
			}
		}
	}
	return c
}

// aggregateChunkScalar is the retained row-at-a-time reference
// implementation — the inner loops of Section 2.4 (dense arrays indexed by
// chunk-id, no hashing), one interface-dispatched add per row. It stays in
// the tree as the differential-fuzzing oracle and the ablation baseline;
// production queries run the kernels in kernels.go.
func (e *Engine) aggregateChunkScalar(p *plan, ci int, mask *enc.Bitmap) (*partial, error) {
	c := e.newChunkAggCtx(p, ci)
	rows, card, na, gelems := c.rows, c.card, c.na, c.gelems

	accs := make([]accCell, card*na)
	add := func(r int) {
		g := 0
		if gelems != nil {
			g = int(gelems[r])
		}
		base := g * na
		for j, spec := range p.aggs {
			cell := &accs[base+j]
			switch spec.fn {
			case aggCount:
				cell.count++
			case aggSum, aggAvg:
				cell.count++
				if c.argIsInt[j] {
					cell.sumI += c.argValsI[j][c.argElems[j][r]]
				} else {
					cell.sumF += c.argValsF[j][c.argElems[j][r]]
				}
			case aggMin, aggMax:
				cell.count++
				gid := c.argGIDs[j][c.argElems[j][r]]
				if !cell.hasMM {
					cell.minID, cell.maxID, cell.hasMM = gid, gid, true
				} else {
					if gid < cell.minID {
						cell.minID = gid
					}
					if gid > cell.maxID {
						cell.maxID = gid
					}
				}
			case aggCountDistinct:
				cell.count++
				if e.opts.ExactDistinct {
					if cell.exact == nil {
						cell.exact = make(map[uint32]struct{}, 16)
					}
					cell.exact[c.argGIDs[j][c.argElems[j][r]]] = struct{}{}
				} else {
					if cell.sketch == nil {
						cell.sketch = sketch.NewKMV(e.opts.SketchM)
					}
					cell.sketch.AddHash(c.argHash[j][c.argElems[j][r]])
				}
			}
		}
	}

	// Fast path: a single COUNT(*) over a full chunk is the pure
	// counts[elements[row]]++ loop (20 ms for 5M rows in the paper).
	if mask == nil && na == 1 && p.aggs[0].fn == aggCount && c.gseq != nil {
		counts := make([]int64, card)
		c.gseq.CountInto(counts)
		for g := 0; g < card; g++ {
			accs[g].count = counts[g]
		}
	} else if mask == nil {
		for r := 0; r < rows; r++ {
			add(r)
		}
	} else {
		mask.ForEach(add)
	}

	// Compact: keep only groups that actually received rows.
	part := &partial{}
	for g := 0; g < card; g++ {
		contributed := false
		for j := 0; j < na; j++ {
			if accs[g*na+j].count > 0 {
				contributed = true
				break
			}
		}
		if na == 0 {
			// Pure GROUP BY with no aggregates: a group exists if any row
			// maps to it; with no mask every dictionary entry occurs.
			contributed = mask == nil
			if mask != nil {
				// Recheck occupancy below via counts pass.
				contributed = groupOccupied(gelems, mask, g)
			}
		}
		if contributed {
			part.gids = append(part.gids, c.groupGIDs[g])
			part.accs = append(part.accs, accs[g*na:(g+1)*na]...)
		}
	}
	return part, nil
}

// groupOccupied reports whether any selected row maps to group g.
func groupOccupied(gelems []uint32, mask *enc.Bitmap, g int) bool {
	found := false
	mask.ForEach(func(r int) {
		if !found && int(gelems[r]) == g {
			found = true
		}
	})
	return found
}

// finalize renders the result rows, applies ORDER BY and LIMIT. When the
// ordering only involves aggregate columns, group-key values materialize
// *after* the limit — the Section 2.5 trick: "after identifying the top 10
// chunk-ids ... the original table name string values need to be looked up
// in the dictionary" for just those ten rows, never for all groups.
func (e *Engine) finalize(p *plan, global map[uint32][]accCell) (*Result, error) {
	res := &Result{}
	for _, it := range p.items {
		res.Columns = append(res.Columns, it.name)
	}

	gids := make([]uint32, 0, len(global))
	for gid := range global {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	// Does any ORDER BY key reference a group column? If not, keys can be
	// materialized lazily after LIMIT. HAVING may reference keys, so it
	// forces eager materialization.
	deferKeys := p.stmt.Limit >= 0 && len(p.stmt.OrderBy) > 0 && p.stmt.Having == nil
	if deferKeys {
		for _, o := range p.stmt.OrderBy {
			idx, err := p.resolveOrderColumn(res, o.Expr)
			if err != nil || p.items[idx].groupIdx >= 0 {
				deferKeys = false
				break
			}
		}
	}

	for _, gid := range gids {
		accs := global[gid]
		row := make([]value.Value, len(p.items))
		for i, it := range p.items {
			if it.aggIdx >= 0 {
				v, err := e.aggValue(p, p.aggs[it.aggIdx], &accs[it.aggIdx])
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		if !deferKeys {
			keyVals, err := e.groupKeyValues(nil, p, gid)
			if err != nil {
				return nil, err
			}
			for i, it := range p.items {
				if it.groupIdx >= 0 {
					row[i] = keyVals[it.groupIdx]
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}

	if deferKeys {
		// Order rows by the aggregate keys and cut to the limit, then look
		// up only the surviving groups' values.
		keys, err := p.orderKeys(res)
		if err != nil {
			return nil, err
		}
		pos := orderRows(res.Rows, keys, p.stmt.Limit)
		rows := make([][]value.Value, len(pos))
		for i, r := range pos {
			keyVals, err := e.groupKeyValues(nil, p, gids[r])
			if err != nil {
				return nil, err
			}
			rows[i] = res.Rows[r]
			for j, it := range p.items {
				if it.groupIdx >= 0 {
					rows[i][j] = keyVals[it.groupIdx]
				}
			}
		}
		res.Rows = rows
		return res, nil
	}
	if err := applyHaving(p.stmt, res); err != nil {
		return nil, err
	}
	if err := e.orderAndLimit(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// groupKeyValues appends the per-group-expression values of a group
// global-id to dst.
func (e *Engine) groupKeyValues(dst []value.Value, p *plan, gid uint32) ([]value.Value, error) {
	switch {
	case p.composite != "":
		key := p.col(e, p.composite).Dict.Value(gid).Str()
		parts := strings.Split(key, "\x1f")
		if len(parts) != len(p.groupCols) {
			return nil, fmt.Errorf("exec: corrupt composite key %q", key)
		}
		for i, hex := range parts {
			sub, err := strconv.ParseUint(hex, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("exec: corrupt composite key %q: %w", key, err)
			}
			dst = append(dst, p.col(e, p.groupCols[i]).Dict.Value(uint32(sub)))
		}
		return dst, nil
	case len(p.groupCols) == 1:
		return append(dst, p.col(e, p.groupCols[0]).Dict.Value(gid)), nil
	}
	return dst, nil
}

// aggValue renders one aggregate's final value.
func (e *Engine) aggValue(p *plan, spec aggSpec, cell *accCell) (value.Value, error) {
	switch spec.fn {
	case aggCount:
		return value.Int64(cell.count), nil
	case aggSum:
		if spec.argCol != "" && p.col(e, spec.argCol).Kind == value.KindInt64 {
			return value.Int64(cell.sumI), nil
		}
		return value.Float64(cell.sumF), nil
	case aggAvg:
		if cell.count == 0 {
			return value.Float64(0), nil
		}
		total := cell.sumF
		if p.col(e, spec.argCol).Kind == value.KindInt64 {
			total = float64(cell.sumI)
		}
		return value.Float64(total / float64(cell.count)), nil
	case aggMin:
		if !cell.hasMM {
			return value.Value{}, fmt.Errorf("exec: MIN over empty group")
		}
		return p.col(e, spec.argCol).Dict.Value(cell.minID), nil
	case aggMax:
		if !cell.hasMM {
			return value.Value{}, fmt.Errorf("exec: MAX over empty group")
		}
		return p.col(e, spec.argCol).Dict.Value(cell.maxID), nil
	case aggCountDistinct:
		if e.opts.ExactDistinct {
			return value.Int64(int64(len(cell.exact))), nil
		}
		if cell.sketch == nil {
			return value.Int64(0), nil
		}
		return value.Int64(cell.sketch.Estimate()), nil
	}
	return value.Value{}, fmt.Errorf("exec: unknown aggregate %d", spec.fn)
}

// orderAndLimit applies ORDER BY and LIMIT to the result.
func (e *Engine) orderAndLimit(p *plan, res *Result) error {
	keys, err := p.orderKeys(res)
	if err != nil {
		return err
	}
	res.Rows = applyOrder(res.Rows, keys, p.stmt.Limit)
	return nil
}

// orderKeys resolves every ORDER BY term to an output column.
func (p *plan) orderKeys(res *Result) ([]orderKey, error) {
	keys := make([]orderKey, len(p.stmt.OrderBy))
	for i, o := range p.stmt.OrderBy {
		idx, err := p.resolveOrderColumn(res, o.Expr)
		if err != nil {
			return nil, err
		}
		keys[i] = orderKey{idx, o.Desc}
	}
	return keys, nil
}

// resolveOrderColumn maps an ORDER BY expression to an output column.
func (p *plan) resolveOrderColumn(res *Result, x sql.Expr) (int, error) {
	want := x.String()
	for i, name := range res.Columns {
		if name == want {
			return i, nil
		}
	}
	// Fall back to matching the underlying expression of each item.
	for i, item := range p.stmt.Items {
		if item.Expr.String() == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: ORDER BY %s does not match any output column", want)
}
