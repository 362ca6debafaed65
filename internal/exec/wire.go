package exec

// An explicit, versioned binary wire form for Partial. Partials are the
// one payload that crosses process boundaries at every level of the
// serving tree (leaf → mixer → … → coordinator), so their encoding must
// not ride one process's gob assumptions: a mixed-version fleet needs to
// fail loud on an incompatible layout, and intermediate mixers must be
// able to re-ship what they merged without re-encoding surprises.
//
// Layout (all multi-byte integers are uvarint/varint; floats are 8-byte
// little-endian IEEE-754 bits):
//
//	byte    version (PartialWireVersion)
//	uvarint #columns, then each as (uvarint len, bytes)
//	uvarint #stat counters, then each as varint — in the fixed order of
//	        statsCounters; the list is append-only, so a decoder reads
//	        what it knows and skips trailing counters from newer peers
//	uvarint #groups, then per group:
//	  uvarint #keys, then each value as (kind byte, payload)
//	  uvarint #cells, then per cell:
//	    byte    flags (1 SumIsInt, 2 has Min, 4 has Max)
//	    varint  Count, varint SumI, fixed64 SumF
//	    uvarint #SumFParts, then each as fixed64
//	    value   Min (if flagged), value Max (if flagged)
//	    uvarint len(Sketch), bytes

import (
	"encoding/binary"
	"fmt"
	"math"

	"powerdrill/internal/value"
)

// PartialWireVersion is the current encoding version. Bump it when the
// layout changes incompatibly; append new stat counters instead when that
// is the only change.
const PartialWireVersion = 1

const (
	cellFlagSumIsInt = 1 << iota
	cellFlagHasMin
	cellFlagHasMax
)

// wireGroupBytes pre-sizes EncodePartial's buffer: about what a group with
// a short string key, a COUNT and a float SUM encodes to.
const wireGroupBytes = 48

// EncodePartial serializes p into the versioned wire form.
func EncodePartial(p *Partial) []byte {
	b := make([]byte, 0, 64+len(p.Groups)*wireGroupBytes)
	b = append(b, PartialWireVersion)
	b = binary.AppendUvarint(b, uint64(len(p.Columns)))
	for _, c := range p.Columns {
		b = appendWireString(b, c)
	}
	counters := statsCounters(&p.Stats)
	b = binary.AppendUvarint(b, uint64(len(counters)))
	for _, v := range counters {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Groups)))
	for _, g := range p.Groups {
		b = binary.AppendUvarint(b, uint64(len(g.Keys)))
		b = appendGroupKey(b, g.Keys)
		b = binary.AppendUvarint(b, uint64(len(g.Cells)))
		for i := range g.Cells {
			b = appendWireCell(b, &g.Cells[i])
		}
	}
	return b
}

// Minimum encoded sizes. A count is checked against the bytes left before
// anything is allocated for it, so a short payload claiming a huge count
// errors instead of allocating.
const (
	minWireGroup = 2  // #keys, #cells
	minWireValue = 1  // kind byte
	minWireCell  = 13 // flags, Count, SumI, SumF (8), #SumFParts, #Sketch
)

// DecodePartial parses data produced by EncodePartial (any process, any
// build — the version byte gates compatibility). Groups, keys, cells and
// float parts are carved from a few per-partial slabs, and every decoded
// string is a substring of one string copy of the payload: a partial
// keeps that copy alive for as long as any of its strings lives.
func DecodePartial(data []byte) (*Partial, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("exec: decode partial: empty payload")
	}
	if data[0] != PartialWireVersion {
		return nil, fmt.Errorf("exec: decode partial: wire version %d, want %d", data[0], PartialWireVersion)
	}
	r := &wireReader{b: data[1:], s: string(data[1:])}
	p := &Partial{}
	if n := r.count(1); n > 0 {
		p.Columns = make([]string, n)
		for i := range p.Columns {
			p.Columns[i] = r.str()
		}
	}
	counters := make([]int64, r.count(1))
	for i := range counters {
		counters[i] = r.varint()
	}
	setStatsCounters(&p.Stats, counters)
	if n := r.count(minWireGroup); n > 0 {
		p.Groups = make([]PartialGroup, n)
		var keys []value.Value
		var cells []PartialCell
		var parts []float64
		for gi := range p.Groups {
			left := n - gi // groups still to decode, this one included
			g := &p.Groups[gi]
			nk := r.count(minWireValue)
			g.Keys = carve(&keys, nk, left, r.left()/minWireValue)
			for i := range g.Keys {
				g.Keys[i] = r.value()
			}
			nc := r.count(minWireCell)
			g.Cells = carve(&cells, nc, left, r.left()/minWireCell)
			for i := range g.Cells {
				r.cell(&g.Cells[i], &parts, nc*left)
			}
			if r.err != nil {
				break
			}
		}
	}
	if r.err == nil && r.left() != 0 {
		r.err = fmt.Errorf("exec: decode partial: %d trailing bytes", r.left())
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// carve hands out the next n elements of *slab, capacity-capped so an
// append to one never runs into its neighbour. A slab too short is
// replaced by one sized for n per remaining item (left of them, the
// partial being uniform in shape), but never for more than room — the
// most elements the rest of the payload can encode, which is at least n.
func carve[T any](slab *[]T, n, left, room int) []T {
	if n == 0 {
		return nil
	}
	if len(*slab) < n {
		size := room
		if left <= room/n {
			size = n * left
		}
		*slab = make([]T, size)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendGroupKey appends the wire form of a group's key values. Each value
// is self-delimiting (kind byte, then a length-prefixed or fixed-size
// payload), so distinct key tuples never encode alike — the property
// MergePartials relies on when it hashes these bytes.
func appendGroupKey(b []byte, keys []value.Value) []byte {
	for _, k := range keys {
		b = appendWireValue(b, k)
	}
	return b
}

func appendWireValue(b []byte, v value.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case value.KindString:
		b = appendWireString(b, v.Str())
	case value.KindInt64:
		b = binary.AppendVarint(b, v.Int())
	case value.KindFloat64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	}
	return b
}

func appendWireCell(b []byte, c *PartialCell) []byte {
	var flags byte
	if c.SumIsInt {
		flags |= cellFlagSumIsInt
	}
	if c.Min.IsValid() {
		flags |= cellFlagHasMin
	}
	if c.Max.IsValid() {
		flags |= cellFlagHasMax
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, c.Count)
	b = binary.AppendVarint(b, c.SumI)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.SumF))
	b = binary.AppendUvarint(b, uint64(len(c.SumFParts)))
	for _, v := range c.SumFParts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if c.Min.IsValid() {
		b = appendWireValue(b, c.Min)
	}
	if c.Max.IsValid() {
		b = appendWireValue(b, c.Max)
	}
	b = binary.AppendUvarint(b, uint64(len(c.Sketch)))
	return append(b, c.Sketch...)
}

// wireReader consumes the payload, held twice: as bytes to parse and as
// one string that decoded strings are cut from. It advances an offset
// rather than re-slicing, so reads write no pointers. The first malformed
// read sticks in err and every later read returns zero values.
type wireReader struct {
	b   []byte
	s   string // the same bytes as b
	off int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("exec: decode partial: truncated payload")
	}
}

// left is the number of unread bytes.
func (r *wireReader) left() int { return len(r.b) - r.off }

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and checks that the rest of the payload can
// hold that many elements of at least size bytes each.
func (r *wireReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(r.left()/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// ok reports whether n more bytes can be read.
func (r *wireReader) ok(n int) bool {
	if r.err != nil {
		return false
	}
	if n > r.left() {
		r.fail()
		return false
	}
	return true
}

func (r *wireReader) str() string {
	n := r.count(1)
	out := r.s[r.off : r.off+n]
	r.off += n
	return out
}

func (r *wireReader) u8() byte {
	if !r.ok(1) {
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

func (r *wireReader) float() float64 {
	if !r.ok(8) {
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off-8:]))
}

func (r *wireReader) value() value.Value {
	kind := r.u8()
	if r.err != nil {
		return value.Value{}
	}
	switch value.Kind(kind) {
	case value.KindString:
		return value.String(r.str())
	case value.KindInt64:
		return value.Int64(r.varint())
	case value.KindFloat64:
		return value.Float64(r.float())
	case value.KindInvalid:
		return value.Value{}
	}
	r.err = fmt.Errorf("exec: decode partial: unknown value kind %d", kind)
	return value.Value{}
}

// cell decodes one cell into c, carving its float parts from *parts;
// left estimates the cells still to decode, for sizing that slab.
func (r *wireReader) cell(c *PartialCell, parts *[]float64, left int) {
	flags := r.u8()
	c.SumIsInt = flags&cellFlagSumIsInt != 0
	c.Count = r.varint()
	c.SumI = r.varint()
	c.SumF = r.float()
	n := r.count(8)
	c.SumFParts = carve(parts, n, left, r.left()/8)
	for i := range c.SumFParts {
		c.SumFParts[i] = r.float()
	}
	if flags&cellFlagHasMin != 0 {
		c.Min = r.value()
	}
	if flags&cellFlagHasMax != 0 {
		c.Max = r.value()
	}
	if n := r.count(1); n > 0 {
		c.Sketch = append([]byte(nil), r.b[r.off:r.off+n]...)
		r.off += n
	}
}

// statsCounters snapshots every QueryStats counter in wire order. The
// order is append-only: add new counters at the end (and mirror them in
// setStatsCounters) so older decoders skip them and newer decoders
// zero-fill; TestWireStatsCoversEveryField enforces the mirror.
func statsCounters(qs *QueryStats) []int64 {
	return []int64{
		int64(qs.ChunksTotal),
		int64(qs.ChunksSkipped),
		int64(qs.ChunksCached),
		int64(qs.ChunksScanned),
		qs.RowsScanned,
		qs.RowsCached,
		qs.RowsSkipped,
		qs.CellsCovered,
		qs.CellsScanned,
		int64(qs.ActiveChunks),
		int64(qs.SkippedChunks),
		int64(qs.ColdLoads),
		int64(qs.ColdChunkLoads),
		int64(qs.ColdDictLoads),
		qs.ColdBytesLoaded,
		qs.DiskBytesRead,
		int64(qs.ChecksumVerified),
		int64(qs.ChecksumFailed),
		int64(qs.CacheSkippedChunks),
		int64(qs.ReadRuns),
		int64(qs.CoalescedReads),
		int64(qs.BloomSkippedChunks),
		int64(qs.KernelChunks),
		int64(qs.ScalarChunks),
		qs.RowsTotal,
		qs.RowsCovered,
		int64(qs.ShardsMissing),
	}
}

// setStatsCounters is the inverse of statsCounters; counters beyond the
// known list (a newer peer) are ignored, missing ones stay zero.
func setStatsCounters(qs *QueryStats, vals []int64) {
	dst := []func(int64){
		func(v int64) { qs.ChunksTotal = int(v) },
		func(v int64) { qs.ChunksSkipped = int(v) },
		func(v int64) { qs.ChunksCached = int(v) },
		func(v int64) { qs.ChunksScanned = int(v) },
		func(v int64) { qs.RowsScanned = v },
		func(v int64) { qs.RowsCached = v },
		func(v int64) { qs.RowsSkipped = v },
		func(v int64) { qs.CellsCovered = v },
		func(v int64) { qs.CellsScanned = v },
		func(v int64) { qs.ActiveChunks = int(v) },
		func(v int64) { qs.SkippedChunks = int(v) },
		func(v int64) { qs.ColdLoads = int(v) },
		func(v int64) { qs.ColdChunkLoads = int(v) },
		func(v int64) { qs.ColdDictLoads = int(v) },
		func(v int64) { qs.ColdBytesLoaded = v },
		func(v int64) { qs.DiskBytesRead = v },
		func(v int64) { qs.ChecksumVerified = int(v) },
		func(v int64) { qs.ChecksumFailed = int(v) },
		func(v int64) { qs.CacheSkippedChunks = int(v) },
		func(v int64) { qs.ReadRuns = int(v) },
		func(v int64) { qs.CoalescedReads = int(v) },
		func(v int64) { qs.BloomSkippedChunks = int(v) },
		func(v int64) { qs.KernelChunks = int(v) },
		func(v int64) { qs.ScalarChunks = int(v) },
		func(v int64) { qs.RowsTotal = v },
		func(v int64) { qs.RowsCovered = v },
		func(v int64) { qs.ShardsMissing = int(v) },
	}
	for i, v := range vals {
		if i >= len(dst) {
			break
		}
		dst[i](v)
	}
}
