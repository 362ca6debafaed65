package cluster

// Shard placement and rebalancing. Each replica is labeled with the
// server it lives on; the placement table maps shard→replica→server, and
// the rebalancer rebuilds it from signals the dispatcher already tracks —
// per-replica latency EWMAs (fed by every completed attempt, hedge losers
// included, so a straggler looks slow even when it never wins a race) and
// circuit-breaker state. A replica whose EWMA towers over the cluster
// median, or whose breaker is open, gets rebuilt on the least-loaded
// registered server not already hosting that shard. Moves respect the
// shared memory budget: OpenShards factories reopen the shard's directory
// under the same manager, so the new replica shares residency instead of
// doubling it, and every factory-built engine inherits the shared
// exec.Gate.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// LeafFactory materializes a leaf serving shard si on the server it was
// registered for.
type LeafFactory func(si int) (Leaf, error)

// placement is the server registry the rebalancer draws move targets from.
type placement struct {
	mu      sync.Mutex
	servers []*serverEntry
}

type serverEntry struct {
	name string
	open LeafFactory // nil: label-only, never a move target
}

func (p *placement) add(name string, open LeafFactory) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.servers {
		if s.name == name {
			s.open = open
			return
		}
	}
	p.servers = append(p.servers, &serverEntry{name: name, open: open})
}

func (p *placement) snapshot() []*serverEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*serverEntry(nil), p.servers...)
}

// AddServer registers (or replaces) a placement server: a name plus a
// factory that can open any shard's leaf there. Registered servers are
// the rebalancer's move targets; NewLocal/OpenShards register their
// simulated servers automatically, RPC clusters add remote spares here.
func (c *Cluster) AddServer(name string, open LeafFactory) {
	c.place.add(name, open)
}

// PlacementEntry is one row of the shard→server placement table.
type PlacementEntry struct {
	Shard   int
	Replica int
	Server  string
	Leaf    string
	// LatencyEWMA is the replica's moving completed-attempt latency
	// (0 = no observation yet); Breaker its circuit state.
	LatencyEWMA time.Duration
	Breaker     string
}

// Placement returns the current placement table, shard-then-replica order.
func (c *Cluster) Placement() []PlacementEntry {
	var out []PlacementEntry
	for si, s := range c.shards {
		for r, ls := range s.replicaList() {
			e := PlacementEntry{
				Shard: si, Replica: r,
				Server:      ls.serverName(),
				Leaf:        ls.leaf.Name(),
				LatencyEWMA: ls.latency(),
				Breaker:     "disabled",
			}
			if ls.br != nil {
				e.Breaker, _, _ = ls.br.snapshot()
			}
			out = append(out, e)
		}
	}
	return out
}

// minHotSamples is how many completed attempts a replica's latency EWMA
// must rest on before Rebalance may judge the replica hot. A fresh
// replica's first few attempts pay cold-start costs (cache misses, first
// materializations); judged on those it would bounce straight back.
const minHotSamples = 5

// RebalanceOptions tunes one rebalancing pass.
type RebalanceOptions struct {
	// MaxMoves caps replica relocations per pass (default 1: move the
	// worst offender, observe, repeat — placement changes should be
	// gradual on a serving fleet).
	MaxMoves int
	// HotFactor is the straggler threshold: a replica is hot when its
	// latency EWMA exceeds HotFactor × the cluster-median replica EWMA
	// (default 3). Breaker-open replicas are movable regardless.
	HotFactor float64
}

// Move records one replica relocation performed by Rebalance.
type Move struct {
	Shard   int
	Replica int
	From    string
	To      string
	// LeafEWMA is the moved replica's latency estimate at decision time,
	// MedianEWMA the cluster median it was judged against.
	LeafEWMA   time.Duration
	MedianEWMA time.Duration
	// Reason is "breaker-open" or "hot".
	Reason string
}

// Rebalance runs one placement pass: find straggling replicas (breaker
// open, or latency EWMA > HotFactor × cluster median over at least
// minHotSamples attempts), and rebuild the worst of them on the
// least-loaded registered server that does not already host the shard.
// The superseded leaf is left to drain — in-flight sub-queries may still
// complete on it — and simply stops receiving dispatches. Returns the moves made; the error reports factory failures
// (moves already made still count).
func (c *Cluster) Rebalance(opts RebalanceOptions) ([]Move, error) {
	if opts.MaxMoves <= 0 {
		opts.MaxMoves = 1
	}
	if opts.HotFactor <= 0 {
		opts.HotFactor = 3
	}

	// Snapshot the fleet: per-replica EWMAs, breaker states, and which
	// servers host which shards.
	type replicaInfo struct {
		si, r   int
		ls      *leafState
		ewma    time.Duration
		samples int
		open    bool // breaker open
		server  string
	}
	var fleet []replicaInfo
	hosting := map[string]map[int]bool{} // server → shards hosted
	load := map[string]time.Duration{}   // server → summed EWMA
	var ewmas []time.Duration
	for si, s := range c.shards {
		for r, ls := range s.replicaList() {
			info := replicaInfo{si: si, r: r, ls: ls, server: ls.serverName()}
			info.ewma, info.samples = ls.lat.snapshot()
			if ls.br != nil {
				state, _, _ := ls.br.snapshot()
				info.open = state == "open"
			}
			fleet = append(fleet, info)
			if hosting[info.server] == nil {
				hosting[info.server] = map[int]bool{}
			}
			hosting[info.server][si] = true
			load[info.server] += info.ewma
			if info.ewma > 0 {
				ewmas = append(ewmas, info.ewma)
			}
		}
	}
	var median time.Duration
	if len(ewmas) > 0 {
		sort.Slice(ewmas, func(i, j int) bool { return ewmas[i] < ewmas[j] })
		median = ewmas[len(ewmas)/2]
	}

	// Stragglers, worst first (breaker-open ahead of merely hot).
	var cands []replicaInfo
	for _, info := range fleet {
		hot := median > 0 && info.samples >= minHotSamples &&
			info.ewma > time.Duration(opts.HotFactor*float64(median))
		if info.open || hot {
			cands = append(cands, info)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].open != cands[j].open {
			return cands[i].open
		}
		return cands[i].ewma > cands[j].ewma
	})

	servers := c.place.snapshot()
	var moves []Move
	var firstErr error
	for _, cand := range cands {
		if len(moves) >= opts.MaxMoves {
			break
		}
		// Coldest registered server not hosting this shard.
		var target *serverEntry
		for _, srv := range servers {
			if srv.open == nil || srv.name == cand.server || hosting[srv.name][cand.si] {
				continue
			}
			if target == nil || load[srv.name] < load[target.name] {
				target = srv
			}
		}
		if target == nil {
			continue
		}
		leaf, err := target.open(cand.si)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: rebalance shard %d onto %s: %w", cand.si, target.name, err)
			}
			continue
		}
		ls := c.opts.newLeafState(leaf, cand.si, cand.r, target.name)
		c.shards[cand.si].setReplica(cand.r, ls)
		reason := "hot"
		if cand.open {
			reason = "breaker-open"
		}
		moves = append(moves, Move{
			Shard: cand.si, Replica: cand.r,
			From: cand.server, To: target.name,
			LeafEWMA: cand.ewma, MedianEWMA: median,
			Reason: reason,
		})
		if hosting[target.name] == nil {
			hosting[target.name] = map[int]bool{}
		}
		hosting[target.name][cand.si] = true
		load[target.name] += median // expected steady-state cost
	}
	if len(moves) > 0 {
		c.mu.Lock()
		c.stats.Rebalances++
		c.stats.ReplicasMoved += int64(len(moves))
		c.mu.Unlock()
	}
	return moves, firstErr
}
