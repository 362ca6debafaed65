package colstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"powerdrill/internal/bloom"
	"powerdrill/internal/compress"
	"powerdrill/internal/dict"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/value"
)

// This file implements the Section 5 "only a fraction of the data needs to
// reside in RAM" machinery: a Reader that decodes a single column, a single
// dictionary or a single chunk from the persisted format, a lazily loaded
// Store whose data is materialized on first touch through a memmgr.Manager,
// and the PinSet queries use to keep exactly the pieces they are scanning
// resident while cold data gets evicted around them.
//
// The unit of residency is the (column, chunk) pair plus one entry per
// global dictionary: a restricted query that scans k of n chunks pins the
// dictionaries of its columns and the k active chunks of each, nothing
// else. Stores saved before the manifest carried a chunk layout fall back
// to whole-column residency (see Store.ChunkGranular).

// ColumnMeta describes a persisted column without loading its data.
type ColumnMeta struct {
	Name    string
	Kind    value.Kind
	Virtual bool
}

// ChunkSpan is the residency metadata of one chunk of one column: the
// bounds of the global-ids occurring in it. Because global dictionaries are
// sorted, the span bounds the chunk's values, which lets the engine decide
// from the manifest alone whether a restriction can match the chunk —
// before loading any chunk data. MinGID > MaxGID marks an empty chunk.
type ChunkSpan struct {
	MinGID uint32
	MaxGID uint32
}

// Empty reports whether the chunk holds no values.
func (sp ChunkSpan) Empty() bool { return sp.MinGID > sp.MaxGID }

// spanOf summarizes a built chunk.
func spanOf(ch *Chunk) ChunkSpan {
	if len(ch.GlobalIDs) == 0 {
		return ChunkSpan{MinGID: 1, MaxGID: 0}
	}
	return ChunkSpan{MinGID: ch.GlobalIDs[0], MaxGID: ch.GlobalIDs[len(ch.GlobalIDs)-1]}
}

// Reader decodes individual columns, dictionaries and chunks from a store
// persisted with Save. It keeps no column data itself — every Load call
// goes back to the files — so it is the natural provider behind a
// budget-managed store. What it does keep is cold-I/O plumbing (see
// readerio.go): a bounded cache of open file handles, a bounded memo of
// decompressed streams for legacy whole-column-codec stores, and physical
// I/O counters. All methods are safe for concurrent use.
type Reader struct {
	dir string
	m   *manifest
	sd  StringDictKind

	// colsMu guards cols: immutable for physical columns, but persisted
	// virtual columns register new entries at query time (registerVirtual)
	// while other queries load concurrently.
	colsMu sync.RWMutex
	cols   map[string]manifestCol

	mu      sync.Mutex
	files   map[string]*openFile
	fileLRU []string
	// fileSizes memoizes each column file's on-disk byte size after its
	// first whole-file read — the denominator-independent input to the
	// exact per-record disk attribution of legacy whole-column-codec loads
	// (recordShare). Sizes are immutable, so entries are never invalidated.
	fileSizes map[string]int64
	// rawCache memoizes decompressed whole-column streams for stores whose
	// codec frames the entire file (legacy v1/v2): without it, every cold
	// chunk of such a store would decompress the full column again.
	rawCache map[string][]byte
	rawOrder []string
	rawBytes int64
	stats    IOStats

	// verify enables CRC32C verification of every cold-read record on v5
	// stores (see checksum.go). On by default; earlier formats carry no
	// checksums, so the flag is moot there.
	verify bool
}

// NewReader opens the manifest in dir. manifestBytes reports the bytes
// read, the quantity Figure 5's latency model charges.
func NewReader(dir string) (r *Reader, manifestBytes int64, err error) {
	m, n, err := readManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	if m.Codec != "" {
		// Validate up front so every later load can resolve the codec
		// infallibly (mustCodec): an unknown codec — a store written by a
		// newer build, say — must fail the open, not the first cold query.
		if _, err := compress.ByName(m.Codec); err != nil {
			return nil, 0, fmt.Errorf("colstore: open %s: %w", dir, err)
		}
	}
	r = &Reader{
		dir:    dir,
		m:      m,
		sd:     StringDictKind(m.Opts.StringDict),
		cols:   make(map[string]manifestCol, len(m.Columns)),
		verify: true,
	}
	if r.sd == "" {
		r.sd = StringDictArray
	}
	for _, mc := range m.Columns {
		r.cols[mc.Name] = mc
	}
	return r, n, nil
}

// colMeta looks up a column's manifest entry. Reads take the lock because
// persisted virtual columns register entries while loads are in flight.
func (r *Reader) colMeta(name string) (manifestCol, bool) {
	r.colsMu.RLock()
	mc, ok := r.cols[name]
	r.colsMu.RUnlock()
	return mc, ok
}

// registerVirtual publishes a sidecar column's manifest entry so the
// Reader serves its loads exactly like a physical column's.
func (r *Reader) registerVirtual(mc manifestCol) {
	r.colsMu.Lock()
	r.cols[mc.Name] = mc
	r.colsMu.Unlock()
}

// Columns lists the persisted columns in manifest order.
func (r *Reader) Columns() []ColumnMeta {
	out := make([]ColumnMeta, 0, len(r.m.Columns))
	for _, mc := range r.m.Columns {
		kind, err := value.ParseKind(mc.Kind)
		if err != nil {
			kind = value.KindInvalid
		}
		out = append(out, ColumnMeta{Name: mc.Name, Kind: kind, Virtual: mc.Virtual})
	}
	return out
}

// Bounds returns the store's chunk row boundaries.
func (r *Reader) Bounds() []int { return r.m.Bounds }

// hasLayout reports whether a manifest entry carries the chunk-granular
// layout (dictionary length plus per-chunk spans and byte ranges).
// Manifests written before this layout existed lack it and are served at
// whole-column granularity.
func (r *Reader) hasLayout(mc manifestCol) bool {
	return mc.DictLen > 0 && len(mc.Chunks) == len(r.m.Bounds)-1
}

// rawColumn reads and decompresses one column file into its uncompressed
// stream. On compressed stores the decompressed stream is memoized in the
// Reader (bounded; see readerio.go), so repeated whole-column reads —
// notably cold chunk loads on legacy whole-column-codec stores — pay the
// read and decompress once, not once per chunk. diskBytes reports the
// bytes actually read from disk by this call: zero on a memo hit.
func (r *Reader) rawColumn(name string) (raw []byte, diskBytes int64, kind value.Kind, virtual bool, err error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return nil, 0, value.KindInvalid, false, fmt.Errorf("colstore: unknown column %q", name)
	}
	kind, err = value.ParseKind(mc.Kind)
	if err != nil {
		return nil, 0, value.KindInvalid, false, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	if r.m.Codec != "" {
		if cached, ok := r.cachedStream(name); ok {
			return cached, 0, kind, mc.Virtual, nil
		}
	}
	raw, err = vfs().ReadFile(filepath.Join(r.dir, mc.File))
	if err != nil {
		return nil, 0, value.KindInvalid, false, fmt.Errorf("colstore: load column %q: %w", name, err)
	}
	diskBytes = int64(len(raw))
	r.mu.Lock()
	r.stats.ReadCalls++
	r.stats.BytesRead += diskBytes
	if r.fileSizes == nil {
		r.fileSizes = make(map[string]int64, 8)
	}
	r.fileSizes[mc.File] = diskBytes
	r.mu.Unlock()
	if r.verifyActive() {
		n, verr := verifyColumnFile(r.m, mc, raw, filepath.Join(r.dir, mc.File))
		r.noteChecksum(n, verr == nil)
		if verr != nil {
			return nil, 0, value.KindInvalid, false, fmt.Errorf("colstore: load column %q: %w", name, verr)
		}
	}
	if r.m.Codec != "" {
		codec := mustCodec(r.m.Codec)
		if r.m.perChunkCompressed(mc) {
			raw, err = r.decompressColumnFile(codec, mc, raw)
		} else {
			raw, err = r.decompress(codec, nil, raw)
		}
		if err != nil {
			return nil, 0, value.KindInvalid, false, fmt.Errorf("colstore: decompress column %q: %w", name, err)
		}
		r.memoizeStream(name, raw)
	}
	return raw, diskBytes, kind, mc.Virtual, nil
}

// LoadColumn decodes the named column in full. diskBytes is the on-disk
// (compressed) size actually read.
func (r *Reader) LoadColumn(name string) (*Column, int64, error) {
	raw, diskBytes, kind, virtual, err := r.rawColumn(name)
	if err != nil {
		return nil, 0, err
	}
	col, err := decodeColumn(name, kind, virtual, raw, r.sd)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	return col, diskBytes, nil
}

// LoadColumnDict decodes only the named column's global dictionary. With a
// chunk layout just the dictionary record's byte range is read from disk —
// raw on uncompressed stores, one compressed record (decompressed alone)
// on per-record-compressed ones. Legacy whole-column codecs read the whole
// file (memoized in the Reader) but materialize only the dictionary, and
// the reported disk bytes are the dictionary record's share of the file
// (see recordShare), not whichever of zero or the whole file the memo
// happened to serve.
func (r *Reader) LoadColumnDict(name string) (dict.Dict, int64, error) {
	mc, ok := r.colMeta(name)
	if !ok {
		return nil, 0, fmt.Errorf("colstore: unknown column %q", name)
	}
	kind, err := value.ParseKind(mc.Kind)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	if d, ok := r.shardedDictFromFrames(mc, kind); ok {
		// Sub-framed load (v4, uncompressed sharded string dictionaries):
		// routing bounds and Bloom filters come straight from the manifest,
		// so no dictionary bytes are read until a query probes a shard —
		// and each probe reads exactly that shard's byte range.
		return d, 0, nil
	}
	if n, exact := r.DictFileLen(name); exact {
		raw, err := r.readRange(mc.File, 0, n)
		if err != nil {
			return nil, 0, fmt.Errorf("colstore: load dictionary of %q: %w", name, err)
		}
		if err := r.verifyRecord(mc.File, 0, raw, mc.DictCRC); err != nil {
			return nil, 0, err
		}
		if r.m.perChunkCompressed(mc) {
			if raw, err = r.decompress(mustCodec(r.m.Codec), nil, raw); err != nil {
				return nil, 0, fmt.Errorf("colstore: load dictionary of %q: %w", name, err)
			}
		}
		d, err := decodeDict(&byteReader{buf: raw}, kind, r.sd)
		if err != nil {
			return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
		}
		return d, n, nil
	}
	raw, diskBytes, kind, _, err := r.rawColumn(name)
	if err != nil {
		return nil, 0, err
	}
	d, err := decodeDict(&byteReader{buf: raw}, kind, r.sd)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	if r.hasLayout(mc) {
		// Whole-column codec with a layout: attribute the dictionary
		// record's exact share of the file rather than the full read (or a
		// memo-hit zero).
		diskBytes = r.recordShare(mc, mc.DictLen)
	}
	return d, diskBytes, nil
}

// shardedDictFromFrames reconstructs a sharded string dictionary from the
// manifest's v4 sub-frames, loading no values. Applies only to uncompressed
// stores saved with StringDictSharded: the shard byte ranges index the raw
// column file, so each shard the query probes is served by one exact
// ReadAt. Any malformed frame (bad Bloom bytes, non-positive count) makes
// the whole path report !ok and the caller falls back to decoding the full
// dictionary record — slower, never wrong.
func (r *Reader) shardedDictFromFrames(mc manifestCol, kind value.Kind) (dict.Dict, bool) {
	if kind != value.KindString || len(mc.DictShards) == 0 ||
		r.m.Codec != "" || r.sd != StringDictSharded {
		return nil, false
	}
	frames := make([]dict.ShardFrame, len(mc.DictShards))
	for i, ds := range mc.DictShards {
		f, err := bloom.Unmarshal(ds.Bloom)
		if err != nil || ds.Count <= 0 || ds.Len <= 0 {
			return nil, false
		}
		frames[i] = dict.ShardFrame{Count: ds.Count, First: ds.First, Last: ds.Last, Filter: f}
	}
	shards := mc.DictShards
	file := mc.File
	loader := func(i int) ([]string, error) {
		if i < 0 || i >= len(shards) {
			return nil, fmt.Errorf("colstore: dict shard %d of %q out of range", i, mc.Name)
		}
		ds := shards[i]
		raw, err := r.readRange(file, ds.Off, ds.Len)
		if err != nil {
			return nil, fmt.Errorf("colstore: load dict shard %d of %q: %w", i, mc.Name, err)
		}
		if err := r.verifyRecord(file, ds.Off, raw, ds.CRC); err != nil {
			return nil, err
		}
		br := &byteReader{buf: raw}
		vals := make([]string, ds.Count)
		for j := range vals {
			l, err := br.uvarint()
			if err != nil {
				return nil, fmt.Errorf("colstore: dict shard %d of %q: %w", i, mc.Name, err)
			}
			b, err := br.take(int(l))
			if err != nil {
				return nil, fmt.Errorf("colstore: dict shard %d of %q: %w", i, mc.Name, err)
			}
			vals[j] = string(b)
		}
		return vals, nil
	}
	d, err := dict.NewShardedFromFrames(frames, loader)
	if err != nil {
		return nil, false
	}
	return d, true
}

// LoadColumnChunk decodes a single chunk of the named column. When the
// layout supports exact reads (uncompressed with a chunk layout, or
// per-record-compressed v3) only the chunk record's byte range is read —
// and on v3 stores only that record is decompressed. A legacy store
// compressed as a whole still reads and decompresses the file (memoized in
// the Reader), materializing only the requested chunk and charging the
// chunk record's share of the file (recordShare) as its disk bytes.
// Without a layout the reader walks the stream, skipping the dictionary
// and the preceding chunks.
func (r *Reader) LoadColumnChunk(name string, chunk int) (*Chunk, int64, error) {
	mc, ok := r.colMeta(name)
	if ok && r.hasLayout(mc) {
		if chunk < 0 || chunk >= len(mc.Chunks) {
			return nil, 0, fmt.Errorf("colstore: column %q has %d chunks, want %d", name, len(mc.Chunks), chunk)
		}
		meta := mc.Chunks[chunk]
		if off, n, exact := r.ChunkFileRange(name, chunk); exact {
			rec, err := r.readRange(mc.File, off, n)
			if err != nil {
				return nil, 0, fmt.Errorf("colstore: load column %q chunk %d: %w", name, chunk, err)
			}
			ch, err := r.DecodeChunkRecord(name, chunk, rec)
			if err != nil {
				return nil, 0, err
			}
			return ch, n, nil
		}
		raw, _, _, _, err := r.rawColumn(name)
		if err != nil {
			return nil, 0, err
		}
		if meta.Off+meta.Len > int64(len(raw)) {
			return nil, 0, fmt.Errorf("colstore: column %q chunk %d: %w", name, chunk, errTruncated)
		}
		ch, err := decodeChunk(&byteReader{buf: raw[meta.Off : meta.Off+meta.Len]})
		if err != nil {
			return nil, 0, fmt.Errorf("colstore: column %q chunk %d: %w", name, chunk, err)
		}
		// Whole-column codec: the read (or memo hit) touched the whole
		// file, but this load is *for* one record — charge its exact share
		// so per-query DiskBytesRead does not depend on which query
		// happened to populate the memo.
		return ch, r.recordShare(mc, meta.Len), nil
	}
	raw, diskBytes, kind, _, err := r.rawColumn(name)
	if err != nil {
		return nil, 0, err
	}
	br := &byteReader{buf: raw}
	if err := skipDict(br, kind); err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	nChunks, err := br.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
	}
	if chunk < 0 || uint64(chunk) >= nChunks {
		return nil, 0, fmt.Errorf("colstore: column %q has %d chunks, want %d", name, nChunks, chunk)
	}
	for c := 0; c < chunk; c++ {
		if err := skipChunk(br); err != nil {
			return nil, 0, fmt.Errorf("colstore: column %q: %w", name, err)
		}
	}
	ch, err := decodeChunk(br)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: column %q chunk %d: %w", name, chunk, err)
	}
	return ch, diskBytes, nil
}

// skipDict advances past the dictionary header without building it.
func skipDict(r *byteReader, kind value.Kind) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	switch kind {
	case value.KindString:
		for i := uint64(0); i < n; i++ {
			l, err := r.uvarint()
			if err != nil {
				return err
			}
			if _, err := r.take(int(l)); err != nil {
				return err
			}
		}
	case value.KindInt64, value.KindFloat64:
		if _, err := r.take(int(n) * 8); err != nil {
			return err
		}
	default:
		return fmt.Errorf("invalid kind %v", kind)
	}
	return nil
}

// lazySource wires a Store to its on-disk provider and memory manager.
type lazySource struct {
	reader *Reader
	mgr    *memmgr.Manager
	// ns namespaces this store's keys inside the (possibly shared) manager.
	// Replicas opened from the same directory share entries by design: the
	// data is immutable and identical.
	ns string
	// chunked is true when every persisted column carries a chunk layout,
	// enabling (column, chunk) residency. Immutable after OpenLazy.
	chunked bool

	// mu guards spans and sidecar: both immutable for physical columns but
	// extended at query time when a virtual column is persisted.
	mu sync.RWMutex
	// spans holds each laid-out column's per-chunk value spans, straight
	// from the manifest (or the virtual sidecar) — the metadata restriction
	// pruning runs on.
	spans map[string][]ChunkSpan
	// blooms holds each column's decoded per-chunk Bloom filters (v4
	// manifests; nil entries where the chunk has none), the second
	// metadata input to restriction pruning: a negative probe proves an
	// equality restriction matches nothing in a chunk even when the value
	// falls inside the chunk's [min, max] span.
	blooms map[string][]*bloom.Filter
	// sidecar mirrors the virtual/ sidecar manifest's column list.
	sidecar []manifestCol

	// persistMu serializes sidecar writes for this store.
	persistMu sync.Mutex
	// noPersist disables sidecar persistence (DisableVirtualPersist).
	noPersist atomic.Bool
}

func (l *lazySource) key(col string) string { return l.ns + "\x00" + col }

// dictKey and chunkKey name the chunk-granular residency units inside the
// manager: one entry per global dictionary, one per (column, chunk) pair.
func (l *lazySource) dictKey(col string) string { return l.ns + "\x00" + col + "#dict" }

func (l *lazySource) chunkKey(col string, ci int) string {
	return l.ns + "\x00" + col + "#" + strconv.Itoa(ci)
}

// OpenLazy opens a persisted store without loading any column data: only
// the manifest (and the virtual sidecar's manifest, if one exists) is
// read. Data materializes on first touch through mgr (which enforces the
// byte budget and evicts cold entries); virtual columns the engine
// materializes later are persisted into the sidecar and budgeted the same
// way (AddVirtualColumnPinned). mgr may be shared across stores (e.g. all
// shards of a leaf process share one budget).
//
// When the manifest carries a chunk layout (any store saved by this
// version), residency is chunk-granular: the manager tracks one entry per
// global dictionary and one per (column, chunk) pair, so a restricted
// query pins only the chunks it scans. Older manifests fall back to
// whole-column entries.
func OpenLazy(dir string, mgr *memmgr.Manager) (*Store, *DiskStats, error) {
	if mgr == nil {
		mgr = memmgr.New(0, "")
	}
	r, manifestBytes, err := NewReader(dir)
	if err != nil {
		return nil, nil, err
	}
	stats := &DiskStats{BytesRead: manifestBytes, Files: 1}
	s := storeShell(r.m)
	ns := filepath.Clean(dir)
	if abs, err := filepath.Abs(ns); err == nil {
		ns = abs
	}
	src := &lazySource{
		reader:  r,
		mgr:     mgr,
		ns:      ns,
		spans:   make(map[string][]ChunkSpan),
		blooms:  make(map[string][]*bloom.Filter),
		chunked: true,
	}
	s.lazy = src
	s.metas = make(map[string]ColumnMeta, len(r.m.Columns))
	for _, meta := range r.Columns() {
		if meta.Kind == value.KindInvalid {
			return nil, nil, fmt.Errorf("colstore: column %q has invalid kind", meta.Name)
		}
		s.metas[meta.Name] = meta
		s.order = append(s.order, meta.Name)
		mc := r.cols[meta.Name]
		if !r.hasLayout(mc) {
			src.chunked = false
			continue
		}
		spans := make([]ChunkSpan, len(mc.Chunks))
		for i, cm := range mc.Chunks {
			spans[i] = ChunkSpan{MinGID: cm.Min, MaxGID: cm.Max}
		}
		src.spans[meta.Name] = spans
		if filters := decodeChunkBlooms(mc); filters != nil {
			src.blooms[meta.Name] = filters
		}
	}
	if src.chunked {
		// Virtual columns persisted by earlier sessions: register them so
		// this session serves them as ordinary budgeted columns instead of
		// re-materializing the expressions.
		if err := s.loadSidecar(dir); err != nil {
			return nil, nil, err
		}
	}
	return s, stats, nil
}

// DisableVirtualPersist turns off sidecar persistence for this store:
// virtual columns materialized from then on live in the in-memory registry
// (unevictable, outside the budget), as they did before sidecar support.
// A no-op on fully resident stores.
func (s *Store) DisableVirtualPersist() {
	if s.lazy != nil {
		s.lazy.noPersist.Store(true)
	}
}

// MemManager returns the manager enforcing the store's byte budget, or nil
// for fully resident stores.
func (s *Store) MemManager() *memmgr.Manager {
	if s.lazy == nil {
		return nil
	}
	return s.lazy.mgr
}

// Codec returns the compression codec the persisted store was saved with
// ("" for uncompressed stores and for fully resident ones). The ingest
// path uses it to seal write chunks with the same framing as the base
// store's columns.
func (s *Store) Codec() string {
	if s.lazy == nil {
		return ""
	}
	return s.lazy.reader.m.Codec
}

// CacheNamespace returns the prefix that namespaces this lazy store's
// entries inside its (possibly shared) memory manager, or "" for fully
// resident stores. Retiring a superseded store generation drops all its
// residency at once via memmgr.DropNamespace with this prefix.
func (s *Store) CacheNamespace() string {
	if s.lazy == nil {
		return ""
	}
	return s.lazy.ns
}

// IOStats reports the lazy store's physical I/O counters (file opens, read
// calls, decompression time); ok is false for fully resident stores.
func (s *Store) IOStats() (IOStats, bool) {
	if s.lazy == nil {
		return IOStats{}, false
	}
	return s.lazy.reader.IOStats(), true
}

// Close releases the resources a lazy store holds outside the memory
// budget: cached column-file handles and memoized decompressed streams.
// The store stays usable (files re-open on demand); a no-op for fully
// resident stores.
func (s *Store) Close() error {
	if s.lazy == nil {
		return nil
	}
	return s.lazy.reader.Close()
}

// ChunkGranular reports whether the store's residency unit is the
// (column, chunk) pair. False for fully resident stores and for lazy
// stores whose manifest predates the chunk layout (those load and evict
// whole columns).
func (s *Store) ChunkGranular() bool { return s.lazy != nil && s.lazy.chunked }

// ChunkSpans returns the per-chunk global-id spans of the named column,
// without loading any chunk data: from the manifest on a lazy store, from
// the chunk-dictionaries on a resident one. ok is false when the column is
// unknown or (on a lazy store) has no layout.
func (s *Store) ChunkSpans(name string) ([]ChunkSpan, bool) {
	if c := s.residentColumn(name); c != nil {
		out := make([]ChunkSpan, len(c.Chunks))
		for i, ch := range c.Chunks {
			out[i] = spanOf(ch)
		}
		return out, true
	}
	if s.lazy != nil {
		s.lazy.mu.RLock()
		sp, ok := s.lazy.spans[name]
		s.lazy.mu.RUnlock()
		return sp, ok
	}
	return nil, false
}

// decodeChunkBlooms unmarshals a manifest column's per-chunk Bloom filters
// (v4; empty on older manifests). The returned slice is indexed by chunk,
// nil where the chunk carries no filter (dense or empty chunks) or where
// the bytes fail to parse — a bad filter degrades to span-only pruning,
// never to a wrong answer. Returns nil when no chunk has one.
func decodeChunkBlooms(mc manifestCol) []*bloom.Filter {
	var filters []*bloom.Filter
	for i, cm := range mc.Chunks {
		if len(cm.Bloom) == 0 {
			continue
		}
		f, err := bloom.Unmarshal(cm.Bloom)
		if err != nil {
			continue
		}
		if filters == nil {
			filters = make([]*bloom.Filter, len(mc.Chunks))
		}
		filters[i] = f
	}
	return filters
}

// ChunkBlooms returns the named column's per-chunk Bloom filters over
// distinct global-ids, without loading any chunk data: nil entries mark
// chunks without one. ok is false on fully resident stores, on manifests
// predating the filters (v1–v3), and for columns none of whose chunks
// carry one — callers then prune on spans alone.
func (s *Store) ChunkBlooms(name string) ([]*bloom.Filter, bool) {
	if s.lazy == nil {
		return nil, false
	}
	s.lazy.mu.RLock()
	bf, ok := s.lazy.blooms[name]
	s.lazy.mu.RUnlock()
	return bf, ok
}

// acquire pins the named physical column in the memory manager as one
// whole-column entry, loading it from disk when cold — the residency unit
// of stores without a chunk layout. Callers must Release the returned key
// when done.
func (s *Store) acquire(name string) (col *Column, key string, cold bool, diskBytes int64, err error) {
	meta, ok := s.meta(name)
	if !ok {
		return nil, "", false, 0, fmt.Errorf("colstore: unknown column %q", name)
	}
	key = s.lazy.key(name)
	v, cold, err := s.acquireFn(meta.Virtual)(key, func() (any, int64, int64, error) {
		c, disk, err := s.lazy.reader.LoadColumn(meta.Name)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := c.checkAligned(s.Bounds); err != nil {
			return nil, 0, 0, err
		}
		return &loadedColumn{col: c, diskBytes: disk}, c.Memory().Total(), disk, nil
	})
	if err != nil {
		return nil, "", false, 0, err
	}
	lc := v.(*loadedColumn)
	return lc.col, key, cold, lc.diskBytes, nil
}

// acquireFn selects the manager entry point: virtual-column entries are
// tagged so their resident bytes show up in Stats.VirtualBytes.
func (s *Store) acquireFn(virtual bool) func(string, memmgr.LoadFunc) (any, bool, error) {
	if virtual {
		return s.lazy.mgr.AcquireVirtual
	}
	return s.lazy.mgr.Acquire
}

// isVirtual reports whether the named column is a materialized virtual
// field, from metadata alone.
func (s *Store) isVirtual(name string) bool {
	m, ok := s.meta(name)
	return ok && m.Virtual
}

// acquireDict pins the named column's global dictionary.
func (s *Store) acquireDict(name string) (d dict.Dict, key string, cold bool, size, diskBytes int64, err error) {
	key = s.lazy.dictKey(name)
	v, cold, err := s.acquireFn(s.isVirtual(name))(key, func() (any, int64, int64, error) {
		dd, disk, err := s.lazy.reader.LoadColumnDict(name)
		if err != nil {
			return nil, 0, 0, err
		}
		return &loadedDict{d: dd, size: dd.MemoryBytes(), diskBytes: disk}, dd.MemoryBytes(), disk, nil
	})
	if err != nil {
		return nil, "", false, 0, 0, err
	}
	ld := v.(*loadedDict)
	return ld.d, key, cold, ld.size, ld.diskBytes, nil
}

// acquireChunk pins one chunk of the named column. rec, when non-nil, is
// the chunk's file record pre-read by a coalesced run (see ColumnChunks);
// the load then decodes without touching the disk again. The record bytes
// are only consumed if this call actually performs the load — when another
// query won the race, the resident chunk is shared and rec is dropped.
func (s *Store) acquireChunk(name string, ci int, rec []byte) (ch *Chunk, key string, cold bool, size, diskBytes int64, err error) {
	key = s.lazy.chunkKey(name, ci)
	v, cold, err := s.acquireFn(s.isVirtual(name))(key, func() (any, int64, int64, error) {
		var (
			c    *Chunk
			disk int64
			err  error
		)
		if rec != nil {
			c, err = s.lazy.reader.DecodeChunkRecord(name, ci, rec)
			disk = int64(len(rec))
		} else {
			c, disk, err = s.lazy.reader.LoadColumnChunk(name, ci)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		if want := s.ChunkRows(ci); c.Rows() != want {
			return nil, 0, 0, fmt.Errorf("colstore: column %q chunk %d has %d rows, want %d", name, ci, c.Rows(), want)
		}
		size := c.MemoryElements() + c.MemoryChunkDict()
		return &loadedChunk{ch: c, size: size, diskBytes: disk}, size, disk, nil
	})
	if err != nil {
		return nil, "", false, 0, 0, err
	}
	lc := v.(*loadedChunk)
	return lc.ch, key, cold, lc.size, lc.diskBytes, nil
}

// loadedColumn is the whole-column unit the memory manager holds for
// stores without a chunk layout.
type loadedColumn struct {
	col       *Column
	diskBytes int64
}

// loadedDict and loadedChunk are the chunk-granular residency units.
type loadedDict struct {
	d         dict.Dict
	size      int64
	diskBytes int64
}

type loadedChunk struct {
	ch        *Chunk
	size      int64
	diskBytes int64
}

// PinSet keeps the pieces one query touches resident for the query's
// lifetime: the engine pins every dictionary and chunk it needs from first
// touch (during planning) through the parallel chunk scan and final
// dictionary lookups, then releases them all at once. Cold-load counters
// accumulate per set, giving per-query attribution of what had to come
// from disk.
//
// On a chunk-granular store a column is represented by a query-private
// *Column view whose Chunks slice is filled only at the pinned indices;
// positions the residency analysis pruned stay nil and must not be
// touched. The view pointer is stable across calls within one set, so
// compiled plans can cache it. On a fully resident store a PinSet degrades
// to plain column lookups.
//
// This is the error-carrying access path: prefer it over Store.Column,
// which swallows load errors (see the PinSet-first contract there).
type PinSet struct {
	s    *Store
	held map[string]*heldPin // column name -> pins
	// ColdLoads counts columns for which this set loaded anything from
	// disk (a column with five cold chunks counts once — the
	// column-granularity number comparable across store generations).
	ColdLoads int
	// ColdChunkLoads counts individual (column, chunk) entries this set
	// cold-loaded; zero on stores without a chunk layout.
	ColdChunkLoads int
	// ColdDictLoads counts global dictionaries this set cold-loaded; zero
	// on stores without a chunk layout.
	ColdDictLoads int
	// ColdBytesLoaded sums the resident bytes of all cold loads.
	ColdBytesLoaded int64
	// DiskBytesRead sums their on-disk (compressed) bytes.
	DiskBytesRead int64
	// ReadRuns counts the coalesced byte-run reads the set's cold chunk
	// prefetches issued (one ReadAt per run; zero on stores without exact
	// chunk reads).
	ReadRuns int
	// CoalescedReads counts the reads run coalescing saved: a run of m
	// contiguous cold chunks is one read instead of m, saving m−1.
	CoalescedReads int
	// ChecksumVerified counts the records (chunks, dictionaries) whose
	// CRC32C this set's cold loads checked and matched — zero on v1–v4
	// stores or with verification disabled.
	ChecksumVerified int64
	// ChecksumFailed counts cold loads this set aborted on a checksum
	// mismatch (the query then fails with that ChecksumError).
	ChecksumFailed int64
}

// heldPin records the pins held for one column.
type heldPin struct {
	view *Column
	keys []string
	// chunks flags which chunk indices are pinned (chunk-granular only).
	chunks []bool
	dict   bool
	// cold marks the column as already counted in ColdLoads.
	cold bool
}

// NewPinSet creates an empty pin set for the store.
func (s *Store) NewPinSet() *PinSet { return &PinSet{s: s} }

// coldColumn folds one cold entry's sizes into the set's counters.
func (p *PinSet) coldColumn(h *heldPin, size, disk int64) {
	if !h.cold {
		h.cold = true
		p.ColdLoads++
	}
	p.ColdBytesLoaded += size
	p.DiskBytesRead += disk
}

// ensure returns (creating if needed) the held record for a chunk-granular
// column.
func (p *PinSet) ensure(name string) (*heldPin, error) {
	if h, ok := p.held[name]; ok {
		return h, nil
	}
	meta, ok := p.s.meta(name)
	if !ok {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	h := &heldPin{
		view: &Column{
			Name:    meta.Name,
			Kind:    meta.Kind,
			Virtual: meta.Virtual,
			Chunks:  make([]*Chunk, p.s.NumChunks()),
		},
		chunks: make([]bool, p.s.NumChunks()),
	}
	if p.held == nil {
		p.held = make(map[string]*heldPin, 8)
	}
	p.held[name] = h
	return h, nil
}

// ensureDict pins the column's global dictionary into the view.
func (p *PinSet) ensureDict(h *heldPin) error {
	if h.dict {
		return nil
	}
	d, key, cold, size, disk, err := p.s.acquireDict(h.view.Name)
	if err != nil {
		p.noteChecksumErr(err)
		return err
	}
	h.view.Dict = d
	h.dict = true
	h.keys = append(h.keys, key)
	if cold {
		p.ColdDictLoads++
		p.coldColumn(h, size, disk)
		if p.s.ChecksumsActive() {
			p.ChecksumVerified++
		}
	}
	return nil
}

// noteChecksumErr counts a load aborted by a checksum mismatch.
func (p *PinSet) noteChecksumErr(err error) {
	var ce *ChecksumError
	if errors.As(err, &ce) {
		p.ChecksumFailed++
	}
}

// ensureChunk pins one chunk into the view. rec optionally carries the
// chunk's pre-read file record from a coalesced run.
func (p *PinSet) ensureChunk(h *heldPin, ci int, rec []byte) error {
	if h.chunks[ci] {
		return nil
	}
	ch, key, cold, size, disk, err := p.s.acquireChunk(h.view.Name, ci, rec)
	if err != nil {
		p.noteChecksumErr(err)
		return err
	}
	h.view.Chunks[ci] = ch
	h.chunks[ci] = true
	h.keys = append(h.keys, key)
	if cold {
		p.ColdChunkLoads++
		p.coldColumn(h, size, disk)
		if p.s.ChecksumsActive() {
			p.ChecksumVerified++
		}
	}
	return nil
}

// legacyColumn pins a whole column as a single manager entry — the path
// for stores whose manifest has no chunk layout.
func (p *PinSet) legacyColumn(name string) (*Column, error) {
	if h, ok := p.held[name]; ok {
		return h.view, nil
	}
	col, key, cold, disk, err := p.s.acquire(name)
	if err != nil {
		return nil, err
	}
	if p.held == nil {
		p.held = make(map[string]*heldPin, 8)
	}
	h := &heldPin{view: col, keys: []string{key}}
	p.held[name] = h
	if cold {
		p.coldColumn(h, col.Memory().Total(), disk)
	}
	return col, nil
}

// Column returns the named column fully pinned: dictionary plus every
// chunk. Registry-resident columns (fully resident stores, unpersisted
// virtual columns) need no pin and pass straight through; persisted
// virtual columns pin like physical ones. Unknown columns are an error.
// Use ColumnChunks when the query will only scan a subset of the chunks.
func (p *PinSet) Column(name string) (*Column, error) {
	return p.ColumnChunks(name, nil)
}

// ColumnDict returns a view of the named column with only its global
// dictionary pinned — enough to look up restriction literals and decode
// group keys, but with no chunk data. On resident and legacy stores it
// degrades to a full column.
func (p *PinSet) ColumnDict(name string) (*Column, error) {
	if c := p.s.residentColumn(name); c != nil {
		return c, nil
	}
	if p.s.lazy == nil {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	if !p.s.lazy.chunked {
		return p.legacyColumn(name)
	}
	h, err := p.ensure(name)
	if err != nil {
		return nil, err
	}
	if err := p.ensureDict(h); err != nil {
		return nil, err
	}
	return h.view, nil
}

// ColumnChunks returns the named column with its dictionary and the chunks
// flagged in active pinned (nil active = every chunk). Chunks outside the
// active set stay nil in the returned view; callers must not touch them.
// Pinning is monotonic per set: asking again with a wider set fills the
// missing chunks, and already pinned ones are never double-counted.
//
// Cold chunks are prefetched in coalesced runs when the store's layout
// supports exact reads: the not-yet-resident subset of the wanted chunks
// is sorted into contiguous byte runs and each run is served by one ReadAt
// instead of one read per chunk (ReadRuns/CoalescedReads count the
// effect). A chunk another query loads between the residency peek and the
// pin is shared as usual — its pre-read bytes are simply dropped.
func (p *PinSet) ColumnChunks(name string, active []bool) (*Column, error) {
	if c := p.s.residentColumn(name); c != nil {
		return c, nil
	}
	if p.s.lazy == nil {
		return nil, fmt.Errorf("colstore: unknown column %q", name)
	}
	if !p.s.lazy.chunked {
		return p.legacyColumn(name)
	}
	h, err := p.ensure(name)
	if err != nil {
		return nil, err
	}
	if err := p.ensureDict(h); err != nil {
		return nil, err
	}
	// Which wanted chunks are cold? Those are worth batching into runs.
	var cold []int
	for ci := range h.chunks {
		if (active != nil && !active[ci]) || h.chunks[ci] {
			continue
		}
		if !p.s.lazy.mgr.Resident(p.s.lazy.chunkKey(name, ci)) {
			cold = append(cold, ci)
		}
	}
	// Batched cold prefetch: read runs and pin their chunks one bounded
	// batch at a time, so the transient raw-record buffers never exceed
	// maxPrefetchBatchBytes regardless of how much of the column is cold
	// (the decoded chunks themselves are pinned and budget-accounted as
	// usual). A batch boundary can split a contiguous run — one extra
	// read, bounded memory.
	reader := p.s.lazy.reader
	var batch []int
	var batchBytes int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		recs, runs, coalesced, exact, err := reader.ReadChunkRuns(name, batch)
		if err != nil {
			return err
		}
		if exact {
			p.ReadRuns += runs
			p.CoalescedReads += coalesced
		}
		for _, ci := range batch {
			if err := p.ensureChunk(h, ci, recs[ci]); err != nil {
				return err
			}
		}
		batch = batch[:0]
		batchBytes = 0
		return nil
	}
	for _, ci := range cold {
		n := int64(0)
		if _, rn, ok := reader.ChunkFileRange(name, ci); ok {
			n = rn
		}
		if len(batch) > 0 && batchBytes+n > maxPrefetchBatchBytes {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		batch = append(batch, ci)
		batchBytes += n
	}
	if err := flush(); err != nil {
		return nil, err
	}
	// Pin everything wanted; cold chunks are already held, warm ones (and
	// any loaded by another query since the peek) share the resident entry.
	for ci := range h.chunks {
		if active != nil && !active[ci] {
			continue
		}
		if err := p.ensureChunk(h, ci, nil); err != nil {
			return nil, err
		}
	}
	return h.view, nil
}

// Release drops every pin the set holds, in sorted column order: release
// order is the order entries enter the manager's unpinned tier, so map
// order would make later evictions (and cold-load counts) vary run to run.
// Safe to call more than once.
func (p *PinSet) Release() {
	if p.s.lazy != nil {
		names := make([]string, 0, len(p.held))
		for name := range p.held {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, key := range p.held[name].keys {
				p.s.lazy.mgr.Release(key)
			}
		}
	}
	p.held = nil
}
