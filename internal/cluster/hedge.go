package cluster

// Tiered hedging (the paper's straggler tolerance, refined). The seed
// implementation sent every sub-query to the primary AND the replica
// simultaneously — robust, but it doubles cluster load on every query.
// Production systems in the Dremel lineage instead hedge: ask the
// primary, and only if it has not answered within a straggler threshold
// ask the replica too. The threshold is a multiple of a moving per-shard
// latency estimate, so it adapts per shard to data size, cache warmth and
// query shape. Until a shard has an estimate (its first sub-query), the
// replica is asked immediately — exactly the seed's race — so a cold
// cluster keeps the old behavior and a warm one sheds the duplicate work.

import (
	"math/rand"
	"sync"
	"time"
)

// latEstimate is an exponentially weighted moving average of a shard's
// successful sub-query latency.
type latEstimate struct {
	mu      sync.Mutex
	ewma    float64 // nanoseconds; 0 = no observation yet
	samples int
}

// ewmaAlpha weighs new observations: high enough to track cache warm-up,
// low enough that one straggler does not poison the threshold.
const ewmaAlpha = 0.3

func (l *latEstimate) observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples++
	if l.ewma == 0 {
		l.ewma = float64(d)
		return
	}
	l.ewma = ewmaAlpha*float64(d) + (1-ewmaAlpha)*l.ewma
}

func (l *latEstimate) value() time.Duration {
	d, _ := l.snapshot()
	return d
}

// snapshot returns the estimate with the number of observations behind it.
func (l *latEstimate) snapshot() (time.Duration, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.ewma), l.samples
}

// hedgeDelay computes how long to wait for the primary before asking the
// next replica: HedgeMultiplier × the shard's moving latency estimate,
// clamped to [HedgeMinDelay, HedgeMaxDelay]. A shard with no estimate yet
// hedges immediately (delay 0).
func (o Options) hedgeDelay(lat *latEstimate) time.Duration {
	est := lat.value()
	if est == 0 {
		return 0
	}
	d := time.Duration(o.HedgeMultiplier * float64(est))
	if d < o.HedgeMinDelay {
		d = o.HedgeMinDelay
	}
	if d > o.HedgeMaxDelay {
		d = o.HedgeMaxDelay
	}
	return d
}

// backoffDelay is the capped exponential backoff with jitter for retry
// attempt n (0-based): base·2ⁿ capped at max, then uniformly jittered to
// [½d, d) so synchronized retries from concurrent sub-queries spread out.
// It uses the global (locked) math/rand source.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
