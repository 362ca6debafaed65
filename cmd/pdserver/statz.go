package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"time"

	"powerdrill"
)

// statzPayload is the JSON shape of the /statz observability endpoint:
// memory-manager accounting, cumulative engine counters, and result-cache
// hit rates for one leaf server.
type statzPayload struct {
	Rows   int `json:"rows"`
	Chunks int `json:"chunks"`

	Memory *memorySection `json:"memory,omitempty"`

	Engine engineSection `json:"engine"`

	ResultCache *cacheSection `json:"result_cache,omitempty"`

	// Ingest is present when the store has an active append path: the
	// committed generation, live segments and buffer state.
	Ingest *ingestSection `json:"ingest,omitempty"`

	// LastScrub is present once a background scrub pass (-scrub-interval)
	// has completed: when it ran, what it covered, and the verdicts.
	LastScrub *scrubSection `json:"last_scrub,omitempty"`

	// Cluster is present in coordinator mode (-shards, -connect) and mixer
	// mode (-mixer): fan-out counters plus per-child health.
	Cluster *clusterSection `json:"cluster,omitempty"`
}

// scrubSection mirrors powerdrill.ScrubStatus: the most recent background
// scrub pass over the leaf's store files.
type scrubSection struct {
	Time      string   `json:"time"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Files     int      `json:"files"`
	Records   int      `json:"records"`
	Corrupt   int      `json:"corrupt"`
	Failures  []string `json:"failures,omitempty"`
	Err       string   `json:"err,omitempty"`
}

// ingestSection mirrors powerdrill.IngestStats.
type ingestSection struct {
	Gen               int   `json:"gen"`
	Segments          int   `json:"segments"`
	SegmentRows       int64 `json:"segment_rows"`
	MemRows           int   `json:"mem_rows"`
	SealingRows       int64 `json:"sealing_rows"`
	MemBytes          int64 `json:"mem_bytes"`
	MemUnits          int   `json:"mem_units"`
	RowsAppended      int64 `json:"rows_appended"`
	FreezeRows        int64 `json:"freeze_rows"`
	Seals             int64 `json:"seals"`
	Compactions       int64 `json:"compactions"`
	SegmentsCompacted int64 `json:"segments_compacted"`
	SegmentsRetired   int64 `json:"segments_retired"`
}

// clusterSection mirrors powerdrill.ClusterStats plus per-leaf health —
// the coordinator's view of the serving tree.
type clusterSection struct {
	Queries         int64 `json:"queries"`
	SubQueries      int64 `json:"sub_queries"`
	ReplicaRaces    int64 `json:"replica_races"`
	PrimaryFailures int64 `json:"primary_failures"`
	Hedges          int64 `json:"hedges"`
	Retries         int64 `json:"retries"`
	DeadlineExpired int64 `json:"deadline_expired"`
	ShardsMissing   int64 `json:"shards_missing"`
	PartialAnswers  int64 `json:"partial_answers"`
	BreakerOpens    int64 `json:"breaker_opens"`
	BreakerSkips    int64 `json:"breaker_skips"`
	Rebalances      int64 `json:"rebalances"`
	ReplicasMoved   int64 `json:"replicas_moved"`

	Leaves []leafHealthSection `json:"leaves"`

	// Placement is the shard→server placement table (coordinators only).
	Placement []placementSection `json:"placement,omitempty"`
}

type leafHealthSection struct {
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	// Server is the placement label of the server the replica lives on.
	Server string `json:"server,omitempty"`
	// Breaker is "closed", "open", "half-open" or "disabled".
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	BreakerOpens        int64  `json:"breaker_opens"`
	// LatencyEWMAMS is the replica's moving completed-attempt latency in
	// milliseconds — the rebalancer's signal.
	LatencyEWMAMS float64 `json:"latency_ewma_ms"`
	LastError     string  `json:"last_error,omitempty"`
}

// placementSection is one row of the shard→server placement table.
type placementSection struct {
	Shard         int     `json:"shard"`
	Replica       int     `json:"replica"`
	Server        string  `json:"server"`
	Leaf          string  `json:"leaf"`
	LatencyEWMAMS float64 `json:"latency_ewma_ms"`
	Breaker       string  `json:"breaker"`
}

// dispatchStatz renders one node's fan-out counters and per-child health —
// the shape is identical for a coordinator and a mixer, because they run
// the same dispatcher.
func dispatchStatz(st powerdrill.ClusterStats, health []powerdrill.LeafHealth) *clusterSection {
	s := &clusterSection{
		Queries:         st.Queries,
		SubQueries:      st.SubQueries,
		ReplicaRaces:    st.ReplicaRaces,
		PrimaryFailures: st.PrimaryFailures,
		Hedges:          st.Hedges,
		Retries:         st.Retries,
		DeadlineExpired: st.DeadlineExpired,
		ShardsMissing:   st.ShardsMissing,
		PartialAnswers:  st.PartialAnswers,
		BreakerOpens:    st.BreakerOpens,
		BreakerSkips:    st.BreakerSkips,
		Rebalances:      st.Rebalances,
		ReplicasMoved:   st.ReplicasMoved,
	}
	for _, h := range health {
		s.Leaves = append(s.Leaves, leafHealthSection{
			Name:                h.Name,
			Shard:               h.Shard,
			Replica:             h.Replica,
			Server:              h.Server,
			Breaker:             h.Breaker,
			ConsecutiveFailures: h.ConsecutiveFailures,
			Successes:           h.Successes,
			Failures:            h.Failures,
			BreakerOpens:        h.BreakerOpens,
			LatencyEWMAMS:       float64(h.LatencyEWMA) / 1e6,
			LastError:           h.LastError,
		})
	}
	return s
}

// clusterStatz snapshots a coordinator's stats, leaf health and placement.
func clusterStatz(c *powerdrill.Cluster) *clusterSection {
	s := dispatchStatz(c.Stats(), c.Health())
	for _, e := range c.Placement() {
		s.Placement = append(s.Placement, placementSection{
			Shard:         e.Shard,
			Replica:       e.Replica,
			Server:        e.Server,
			Leaf:          e.Leaf,
			LatencyEWMAMS: float64(e.LatencyEWMA) / 1e6,
			Breaker:       e.Breaker,
		})
	}
	return s
}

// mixerStatzHandler serves a mixer node's runtime counters: its own
// fan-out statistics and its view of its children's health.
func mixerStatzHandler(m *powerdrill.Mixer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := statzPayload{Cluster: dispatchStatz(m.Stats(), m.Health())}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&p)
	})
}

type memorySection struct {
	BudgetBytes   int64 `json:"budget_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	PinnedBytes   int64 `json:"pinned_bytes"`
	// ResidentItems counts resident manager entries. On a chunk-granular
	// store an entry is one (column, chunk) pair or one dictionary; on
	// stores saved before the chunk layout, one whole column.
	ResidentItems int `json:"resident_items"`
	// VirtualBytes is the portion of ResidentBytes held by materialized
	// virtual columns — budgeted sidecar-backed entries plus any
	// unevictable in-registry fallbacks.
	VirtualBytes    int64   `json:"virtual_bytes"`
	ColdLoads       int64   `json:"cold_loads"`
	ColdBytesLoaded int64   `json:"cold_bytes_loaded"`
	DiskBytesRead   int64   `json:"disk_bytes_read"`
	Evictions       int64   `json:"evictions"`
	EvictedBytes    int64   `json:"evicted_bytes"`
	HitRate         float64 `json:"hit_rate"`
	Policy          string  `json:"policy"`
}

type engineSection struct {
	Queries       int64 `json:"queries"`
	ChunksSkipped int64 `json:"chunks_skipped"`
	ChunksCached  int64 `json:"chunks_cached"`
	ChunksScanned int64 `json:"chunks_scanned"`
	CellsScanned  int64 `json:"cells_scanned"`
	// ActiveChunks/SkippedChunks split every query's chunks by the
	// pre-scan residency analysis: only active chunks are ever loaded
	// (and charged to the budget) on a chunk-granular store.
	ActiveChunks  int64 `json:"active_chunks"`
	SkippedChunks int64 `json:"skipped_chunks"`
	// BloomSkippedChunks counts skipped chunks only the per-chunk Bloom
	// filters could rule out — chunks whose [min, max] span admitted the
	// restriction but whose id set provably did not contain it.
	BloomSkippedChunks int64 `json:"bloom_skipped_chunks"`
	// KernelChunks/ScalarChunks split aggregated chunks by execution path:
	// vectorized kernels versus the scalar reference loop (DisableKernels).
	KernelChunks    int64 `json:"kernel_chunks"`
	ScalarChunks    int64 `json:"scalar_chunks"`
	ColdLoads       int64 `json:"cold_loads"`
	ColdChunkLoads  int64 `json:"cold_chunk_loads"`
	ColdDictLoads   int64 `json:"cold_dict_loads"`
	ColdBytesLoaded int64 `json:"cold_bytes_loaded"`
	DiskBytesRead   int64 `json:"disk_bytes_read"`
	// CacheSkippedChunks counts chunks answered from the result cache by
	// the cache-aware residency pass — never pinned, loaded, or charged to
	// the memory budget.
	CacheSkippedChunks int64 `json:"cache_skipped_chunks"`
	// ReadRuns/CoalescedReads describe cold-read batching: contiguous cold
	// chunks are served by one ReadAt per run instead of one per chunk.
	ReadRuns       int64 `json:"read_runs"`
	CoalescedReads int64 `json:"coalesced_reads"`
	// ChecksumVerified/ChecksumFailed count cold loads that passed /
	// failed CRC32C verification (format v5 stores). A nonzero failure
	// count means the storage layer caught corruption before it could
	// reach a result.
	ChecksumVerified int64 `json:"checksum_verified"`
	ChecksumFailed   int64 `json:"checksum_failed"`
}

type cacheSection struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// statzHandler serves the leaf's runtime counters as JSON.
func statzHandler(store *powerdrill.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		es := store.EngineStats()
		p := statzPayload{
			Rows:   store.NumRows(),
			Chunks: store.NumChunks(),
			Engine: engineSection{
				Queries:            es.Queries,
				ChunksSkipped:      es.ChunksSkipped,
				ChunksCached:       es.ChunksCached,
				ChunksScanned:      es.ChunksScanned,
				CellsScanned:       es.CellsScanned,
				ActiveChunks:       es.ActiveChunks,
				SkippedChunks:      es.SkippedChunks,
				BloomSkippedChunks: es.BloomSkippedChunks,
				KernelChunks:       es.KernelChunks,
				ScalarChunks:       es.ScalarChunks,
				ColdLoads:          es.ColdLoads,
				ColdChunkLoads:     es.ColdChunkLoads,
				ColdDictLoads:      es.ColdDictLoads,
				ColdBytesLoaded:    es.ColdBytesLoaded,
				DiskBytesRead:      es.DiskBytesRead,
				CacheSkippedChunks: es.CacheSkippedChunks,
				ReadRuns:           es.ReadRuns,
				CoalescedReads:     es.CoalescedReads,
				ChecksumVerified:   es.ChecksumVerified,
				ChecksumFailed:     es.ChecksumFailed,
			},
		}
		if ms, ok := store.MemStats(); ok {
			p.Memory = &memorySection{
				BudgetBytes:     ms.BudgetBytes,
				ResidentBytes:   ms.ResidentBytes,
				PinnedBytes:     ms.PinnedBytes,
				ResidentItems:   ms.ResidentItems,
				VirtualBytes:    ms.VirtualBytes,
				ColdLoads:       ms.ColdLoads,
				ColdBytesLoaded: ms.ColdBytesLoaded,
				DiskBytesRead:   ms.DiskBytesRead,
				Evictions:       ms.Evictions,
				EvictedBytes:    ms.EvictedBytes,
				HitRate:         ms.HitRate(),
				Policy:          ms.Policy,
			}
		}
		if cs, ok := store.ResultCacheStats(); ok {
			p.ResultCache = &cacheSection{
				Hits:      cs.Hits,
				Misses:    cs.Misses,
				Evictions: cs.Evictions,
				HitRate:   cs.HitRate(),
			}
		}
		if ss, ok := store.LastScrub(); ok {
			p.LastScrub = &scrubSection{
				Time:      ss.Time.Format(time.RFC3339),
				ElapsedMS: float64(ss.Elapsed) / 1e6,
				Files:     ss.Files,
				Records:   ss.Records,
				Corrupt:   ss.Corrupt,
				Failures:  ss.Failures,
				Err:       ss.Err,
			}
		}
		if is, ok := store.IngestStats(); ok {
			p.Ingest = &ingestSection{
				Gen:               is.Gen,
				Segments:          is.Segments,
				SegmentRows:       is.SegmentRows,
				MemRows:           is.MemRows,
				SealingRows:       is.SealingRows,
				MemBytes:          is.MemBytes,
				MemUnits:          is.MemUnits,
				RowsAppended:      is.RowsAppended,
				FreezeRows:        is.FreezeRows,
				Seals:             is.Seals,
				Compactions:       is.Compactions,
				SegmentsCompacted: is.SegmentsCompacted,
				SegmentsRetired:   is.SegmentsRetired,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&p)
	})
}

// ingestRequest is the JSON body of POST /ingest: a columnar batch, one
// entry per store column, all the same length.
type ingestRequest struct {
	Columns []ingestColumn `json:"columns"`
}

type ingestColumn struct {
	Name string `json:"name"`
	// Kind is "string", "int64" or "float64"; exactly one of the value
	// arrays must be set accordingly.
	Kind   string    `json:"kind"`
	Strs   []string  `json:"strs,omitempty"`
	Ints   []int64   `json:"ints,omitempty"`
	Floats []float64 `json:"floats,omitempty"`
}

// maxIngestBody caps one /ingest request body. The JSON decoder buffers
// the whole batch, so the cap bounds the memory one request can take;
// larger loads go in several batches.
const maxIngestBody = 32 << 20

// ingestHandler appends a POSTed batch through the store's streaming
// ingestion path; the rows are visible to queries as soon as the request
// returns. ?flush=1 additionally seals the write buffer (durability
// barrier). A body over maxIngestBody is refused with 413.
func ingestHandler(store *powerdrill.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a columnar batch", http.StatusMethodNotAllowed)
			return
		}
		var req ingestRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), code)
			return
		}
		tbl := powerdrill.NewTable("data")
		rows := -1
		for _, c := range req.Columns {
			var n int
			switch c.Kind {
			case "string":
				tbl.AddStringColumn(c.Name, c.Strs)
				n = len(c.Strs)
			case "int64":
				tbl.AddInt64Column(c.Name, c.Ints)
				n = len(c.Ints)
			case "float64":
				tbl.AddFloat64Column(c.Name, c.Floats)
				n = len(c.Floats)
			default:
				http.Error(w, "column "+c.Name+": kind must be string, int64 or float64", http.StatusBadRequest)
				return
			}
			if rows >= 0 && n != rows {
				http.Error(w, "ragged batch: columns differ in length", http.StatusBadRequest)
				return
			}
			rows = n
		}
		if err := store.Append(tbl); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if r.URL.Query().Get("flush") != "" {
			if err := store.Flush(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{
			"appended": rows,
			"rows":     store.NumRows(),
		})
	})
}

// statzMux routes the leaf observability endpoints: /statz counters and
// /ingest streaming appends.
func statzMux(store *powerdrill.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/statz", statzHandler(store))
	mux.Handle("/ingest", ingestHandler(store))
	return mux
}

// coordinatorStatzHandler serves the coordinator's runtime counters:
// cluster fan-out stats, per-leaf breaker health, and the shared memory
// manager's accounting.
func coordinatorStatzHandler(c *powerdrill.Cluster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := statzPayload{Cluster: clusterStatz(c)}
		if ms, ok := c.MemStats(); ok {
			p.Memory = &memorySection{
				BudgetBytes:     ms.BudgetBytes,
				ResidentBytes:   ms.ResidentBytes,
				PinnedBytes:     ms.PinnedBytes,
				ResidentItems:   ms.ResidentItems,
				VirtualBytes:    ms.VirtualBytes,
				ColdLoads:       ms.ColdLoads,
				ColdBytesLoaded: ms.ColdBytesLoaded,
				DiskBytesRead:   ms.DiskBytesRead,
				Evictions:       ms.Evictions,
				EvictedBytes:    ms.EvictedBytes,
				HitRate:         ms.HitRate(),
				Policy:          ms.Policy,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&p)
	})
}

// queryResponse is the JSON shape of the coordinator's /query endpoint.
type queryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Coverage is the fraction of rows the answer spans; < 1 marks a
	// partial answer served because shards were unreachable.
	Coverage      float64 `json:"coverage"`
	ShardsMissing int     `json:"shards_missing"`
}

// queryHandler answers GET /query?q=SQL against the cluster.
func queryHandler(c *powerdrill.Cluster) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			// net/url rejects a literal ';' anywhere in the query string,
			// silently dropping the pair that contains it — and SQL ends in
			// one. Retry with semicolons escaped so a hand-typed curl works.
			if vs, err := url.ParseQuery(strings.ReplaceAll(r.URL.RawQuery, ";", "%3B")); err == nil {
				q = vs.Get("q")
			}
		}
		if q == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		res, err := c.QueryContext(r.Context(), q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp := queryResponse{
			Columns:       res.Columns,
			Coverage:      res.Coverage,
			ShardsMissing: res.Stats.ShardsMissing,
			Rows:          make([][]string, 0, len(res.Rows)),
		}
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			resp.Rows = append(resp.Rows, cells)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
}

// serveCoordinatorStatz starts the coordinator observability listener.
func serveCoordinatorStatz(addr string, c *powerdrill.Cluster) error {
	mux := http.NewServeMux()
	mux.Handle("/statz", coordinatorStatzHandler(c))
	mux.Handle("/query", queryHandler(c))
	return http.ListenAndServe(addr, mux)
}
