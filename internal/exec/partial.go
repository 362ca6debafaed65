package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"powerdrill/internal/sketch"
	"powerdrill/internal/sql"
	"powerdrill/internal/value"
)

// Partial is a mergeable aggregate result: what a leaf server returns and
// what every level of the Section 4 execution tree re-aggregates. All
// supported aggregates are associative — SUM, MIN, MAX, COUNT directly;
// AVG decomposed into SUM and COUNT; COUNT DISTINCT as a mergeable KMV
// sketch (the paper: exact count distinct cannot be multi-level aggregated,
// "therefore, we use an approximative technique").
//
// Group keys are values, not global-ids: different shards have different
// dictionaries, so ids are meaningless across machines.
type Partial struct {
	// Columns are the output column names (for assembling the final
	// result at the root).
	Columns []string
	// Groups holds one entry per group key present on this server.
	Groups []PartialGroup
	// Stats carries the leaf's execution counters up the tree.
	Stats QueryStats
}

// PartialGroup is one group's mergeable accumulators.
type PartialGroup struct {
	Keys  []value.Value
	Cells []PartialCell
}

// PartialCell is one aggregate's mergeable state.
type PartialCell struct {
	Count int64
	SumI  int64
	SumF  float64
	// SumIsInt records whether the summed column is integral, so the root
	// can render SUM with the right kind.
	SumIsInt bool
	// SumFParts holds the per-leaf float sums that SumF totals, one entry
	// per contributing leaf. Float addition is not associative, so folding
	// SumF level by level would make SUM/AVG depend on how the tree groups
	// its merges; concatenating the parts is associative, and the root
	// folds them in one canonical order (see sumFloat) — the answer is
	// bit-for-bit identical whatever the topology.
	SumFParts []float64
	Min       value.Value
	Max       value.Value
	Sketch    []byte // marshaled KMV for COUNT DISTINCT
}

// sumFloat is the cell's float total. With per-part sums present they are
// folded smallest-first by the IEEE-754 total order (sign-magnitude bit
// trick, so ±0 and NaN payloads order deterministically too); without
// them (int sums, pre-part encoders) the running SumF stands in.
func (c *PartialCell) sumFloat() float64 {
	if len(c.SumFParts) == 0 {
		return c.SumF
	}
	var buf [16]float64
	parts := append(buf[:0], c.SumFParts...)
	slices.SortFunc(parts, func(a, b float64) int { return cmp.Compare(floatOrd(a), floatOrd(b)) })
	var sum float64
	for _, v := range parts {
		sum += v
	}
	return sum
}

// floatOrd maps a float64 to a uint64 whose natural order is the IEEE-754
// total order (negatives descending by magnitude, then ±0, positives
// ascending, NaNs at the extremes by payload).
func floatOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// RunPartial executes a statement but stops before finalization: no AVG
// division, no ORDER BY, no LIMIT — those happen once, at the root.
func (e *Engine) RunPartial(stmt *sql.SelectStmt) (*Partial, error) {
	if e.opts.ExactDistinct {
		return nil, fmt.Errorf("exec: exact count distinct is not multi-level aggregatable (Section 4); use sketches")
	}
	ps := e.store.NewPinSet()
	defer ps.Release()
	rsd := e.analyzeResidency(stmt, ps)
	e.cacheResidency(stmt, rsd)
	e.prefetchColumns(stmt, ps, rsd.pinSet())
	e.planMu.Lock()
	p, err := e.plan(stmt, ps, rsd)
	e.planMu.Unlock()
	if err != nil {
		return nil, err
	}
	if p.rowScan {
		return nil, fmt.Errorf("exec: row scans are not distributed; aggregate or group the query")
	}
	global, qs, err := e.executeChunks(p)
	if err != nil {
		return nil, err
	}
	qs.BloomSkippedChunks = rsd.bloomSkipped
	qs.ColdLoads = ps.ColdLoads
	qs.ColdChunkLoads = ps.ColdChunkLoads
	qs.ColdDictLoads = ps.ColdDictLoads
	qs.ColdBytesLoaded = ps.ColdBytesLoaded
	qs.DiskBytesRead = ps.DiskBytesRead
	qs.ChecksumVerified = int(ps.ChecksumVerified)
	qs.ChecksumFailed = int(ps.ChecksumFailed)
	qs.ReadRuns = ps.ReadRuns
	qs.CoalescedReads = ps.CoalescedReads
	// A leaf's partial always covers its whole shard — coverage accounting
	// is about server availability, not restriction selectivity. The
	// coordinator adds the row counts of shards that never answered to
	// RowsTotal alone, which is what drives Coverage below 1.
	qs.RowsTotal = int64(e.store.NumRows())
	qs.RowsCovered = qs.RowsTotal
	out := &Partial{Stats: qs}
	for _, it := range p.items {
		out.Columns = append(out.Columns, it.name)
	}
	// Every group has the same shape, so keys, cells and float parts are
	// carved from one slab each.
	nAggs := len(p.aggs)
	if len(global) > 0 {
		out.Groups = make([]PartialGroup, 0, len(global))
	}
	keys := make([]value.Value, 0, len(global)*len(p.groupCols))
	cells := make([]PartialCell, len(global)*nAggs)
	parts := make([]float64, len(global)*nAggs)
	for gid, accs := range global {
		var pg PartialGroup
		start := len(keys)
		keys, err = e.groupKeyValues(keys, p, gid)
		if err != nil {
			return nil, err
		}
		if len(keys) > start {
			pg.Keys = keys[start:len(keys):len(keys)]
		}
		if nAggs > 0 {
			pg.Cells, cells = cells[:nAggs:nAggs], cells[nAggs:]
		}
		for j := range pg.Cells {
			cell := &pg.Cells[j]
			cell.Count = accs[j].count
			cell.SumI = accs[j].sumI
			cell.SumF = accs[j].sumF
			if col := p.aggs[j].argCol; col != "" {
				cell.SumIsInt = p.col(e, col).Kind == value.KindInt64
			}
			if fn := p.aggs[j].fn; (fn == aggSum || fn == aggAvg) && !cell.SumIsInt {
				parts[0] = cell.SumF
				cell.SumFParts, parts = parts[:1:1], parts[1:]
			}
			if accs[j].hasMM {
				col := p.col(e, p.aggs[j].argCol)
				cell.Min = col.Dict.Value(accs[j].minID)
				cell.Max = col.Dict.Value(accs[j].maxID)
			}
			if accs[j].sketch != nil {
				cell.Sketch = accs[j].sketch.Marshal()
			}
		}
		out.Groups = append(out.Groups, pg)
	}
	e.recordStats(qs)
	return out, nil
}

// MergePartials folds srcs into dst (same query shape), in order. This is
// the re-aggregation every inner node of the execution tree performs; one
// call indexes dst's groups once, however many children it folds. A group
// is keyed by its values' wire form (appendGroupKey), which is
// self-delimiting, so distinct keys never collide.
func MergePartials(dst *Partial, srcs ...*Partial) error {
	if dst == nil {
		return fmt.Errorf("exec: merging nil partials")
	}
	var index map[string]int
	var key []byte
	for _, src := range srcs {
		if src == nil {
			return fmt.Errorf("exec: merging nil partials")
		}
		if len(dst.Columns) == 0 {
			dst.Columns = src.Columns
		}
		if len(src.Columns) != len(dst.Columns) {
			return fmt.Errorf("exec: merging partials with %d vs %d columns", len(src.Columns), len(dst.Columns))
		}
		if index == nil {
			index = make(map[string]int, len(dst.Groups)+len(src.Groups))
			for i, g := range dst.Groups {
				key = appendGroupKey(key[:0], g.Keys)
				index[string(key)] = i
			}
		}
		for _, g := range src.Groups {
			key = appendGroupKey(key[:0], g.Keys)
			di, ok := index[string(key)]
			if !ok {
				dst.Groups = append(dst.Groups, g)
				index[string(key)] = len(dst.Groups) - 1
				continue
			}
			d := &dst.Groups[di]
			if len(d.Cells) != len(g.Cells) {
				return fmt.Errorf("exec: merging groups with %d vs %d cells", len(d.Cells), len(g.Cells))
			}
			for j := range d.Cells {
				if err := d.Cells[j].merge(&g.Cells[j]); err != nil {
					return err
				}
			}
		}
		dst.Stats.add(src.Stats)
	}
	return nil
}

func (c *PartialCell) merge(o *PartialCell) error {
	c.Count += o.Count
	c.SumI += o.SumI
	c.SumF += o.SumF
	c.SumFParts = append(c.SumFParts, o.SumFParts...)
	c.SumIsInt = c.SumIsInt || o.SumIsInt
	if o.Min.IsValid() && (!c.Min.IsValid() || o.Min.Compare(c.Min) < 0) {
		c.Min = o.Min
	}
	if o.Max.IsValid() && (!c.Max.IsValid() || o.Max.Compare(c.Max) > 0) {
		c.Max = o.Max
	}
	if len(o.Sketch) > 0 {
		if len(c.Sketch) == 0 {
			c.Sketch = append([]byte(nil), o.Sketch...)
			return nil
		}
		a, err := sketch.UnmarshalKMV(c.Sketch)
		if err != nil {
			return fmt.Errorf("exec: merge sketch: %w", err)
		}
		b, err := sketch.UnmarshalKMV(o.Sketch)
		if err != nil {
			return fmt.Errorf("exec: merge sketch: %w", err)
		}
		a.Merge(b)
		c.Sketch = a.Marshal()
	}
	return nil
}

// FinalizePartial turns a fully merged partial into the final result,
// applying AVG division, sketch estimation, ORDER BY and LIMIT — the work
// the root of the tree does (it also "executes any having statements" in
// the paper; HAVING is outside this subset).
func FinalizePartial(stmt *sql.SelectStmt, p *Partial) (*Result, error) {
	res := &Result{Columns: p.Columns, Stats: p.Stats, Coverage: 1}
	if p.Stats.RowsTotal > 0 {
		res.Coverage = float64(p.Stats.RowsCovered) / float64(p.Stats.RowsTotal)
	}
	specs, keyIdx, err := partialItemSpecs(stmt)
	if err != nil {
		return nil, err
	}
	for _, g := range p.Groups {
		row := make([]value.Value, len(stmt.Items))
		ki := 0
		for i := range stmt.Items {
			if specs[i] == nil {
				row[i] = g.Keys[keyIdx[ki]]
				ki++
				continue
			}
			cell := g.Cells[specs[i].cellIdx]
			switch specs[i].fn {
			case aggCount:
				row[i] = value.Int64(cell.Count)
			case aggSum:
				if cell.SumIsInt {
					row[i] = value.Int64(cell.SumI)
				} else {
					row[i] = value.Float64(cell.sumFloat())
				}
			case aggAvg:
				if cell.Count == 0 {
					row[i] = value.Float64(0)
				} else {
					total := cell.sumFloat()
					if cell.SumIsInt {
						total = float64(cell.SumI)
					}
					row[i] = value.Float64(total / float64(cell.Count))
				}
			case aggMin:
				row[i] = cell.Min
			case aggMax:
				row[i] = cell.Max
			case aggCountDistinct:
				if len(cell.Sketch) == 0 {
					row[i] = value.Int64(0)
				} else {
					k, err := sketch.UnmarshalKMV(cell.Sketch)
					if err != nil {
						return nil, err
					}
					row[i] = value.Int64(k.Estimate())
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// "The root executes any having statements" (Section 4).
	if err := applyHaving(stmt, res); err != nil {
		return nil, err
	}
	sortPartialRows(stmt, res)
	return res, nil
}

// partialItemSpec describes how one select item draws from a partial.
type partialItemSpec struct {
	fn      aggFn
	cellIdx int
}

// partialItemSpecs maps select items to (aggregate, cell index) or group
// key position (nil spec).
func partialItemSpecs(stmt *sql.SelectStmt) ([]*partialItemSpec, []int, error) {
	var specs []*partialItemSpec
	var keyIdx []int
	cell := 0
	key := 0
	for _, item := range stmt.Items {
		if !sql.HasAggregate(item.Expr) {
			specs = append(specs, nil)
			keyIdx = append(keyIdx, key)
			key++
			continue
		}
		call, ok := item.Expr.(*sql.Call)
		if !ok {
			return nil, nil, fmt.Errorf("exec: aggregates must be top-level calls, got %s", item.Expr)
		}
		var fn aggFn
		switch strings.ToLower(call.Name) {
		case "count":
			fn = aggCount
			if call.Distinct {
				fn = aggCountDistinct
			}
		case "sum":
			fn = aggSum
		case "min":
			fn = aggMin
		case "max":
			fn = aggMax
		case "avg":
			fn = aggAvg
		default:
			return nil, nil, fmt.Errorf("exec: unknown aggregate %q", call.Name)
		}
		specs = append(specs, &partialItemSpec{fn: fn, cellIdx: cell})
		cell++
	}
	return specs, keyIdx, nil
}

// ApplyOrderLimit applies stmt's ORDER BY and LIMIT to an assembled
// result — the root step of any multi-part row-scan merge. Ingest
// snapshots use it after concatenating per-generation scans (each run
// with the LIMIT stripped), mirroring what FinalizePartial does for
// aggregates.
func ApplyOrderLimit(stmt *sql.SelectStmt, res *Result) { sortPartialRows(stmt, res) }

// sortPartialRows applies ORDER BY and LIMIT at the root. ORDER BY terms
// that name no output column are ignored.
func sortPartialRows(stmt *sql.SelectStmt, res *Result) {
	var keys []orderKey
	if len(stmt.OrderBy) > 0 {
		cols := map[string]int{}
		for i, item := range stmt.Items {
			if item.Alias != "" {
				cols[item.Alias] = i
			}
			cols[item.Expr.String()] = i
		}
		for _, o := range stmt.OrderBy {
			if idx, found := cols[o.Expr.String()]; found {
				keys = append(keys, orderKey{idx, o.Desc})
			}
		}
	}
	res.Rows = applyOrder(res.Rows, keys, stmt.Limit)
}
