// Package backoff provides the capped exponential backoff with jitter
// shared by every reconnecting component: the daemon's peer re-dial
// loop and the RIS-Live streaming ingest stage. Centralizing the
// schedule keeps the fleet-desynchronization property (jittered waits)
// uniform across subsystems.
package backoff

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Delay computes the wait before retry attempt n (0-based): exponential
// backoff 2ⁿ·base capped at max, with the final delay drawn uniformly
// from [d/2, d]. The jitter keeps a fleet of clients that lost the same
// remote from synchronizing their retry storms; the cap keeps a
// long-dead remote from pushing retries out indefinitely. A base of
// zero (or less) disables the delay entirely; a cap below the base
// clamps to the base.
func Delay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(d-half)+1))
}

// seedCounter disambiguates wall-clock seeds: two Jitters created in
// the same nanosecond still draw distinct sequences.
var seedCounter atomic.Int64

// Jitter is a per-instance jitter source for the Delay schedule. Each
// Jitter owns a seeded *rand.Rand behind a mutex, so concurrent
// goroutines (e.g. the daemon's per-peer re-dial loops) can share one
// instance without contending on — or perturbing — the global math/rand
// state, and a fixed seed reproduces the exact delay sequence in tests.
type Jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitter returns a jitter source. A non-zero seed fixes the sequence
// (two Jitters with the same seed produce identical delays); seed 0
// draws a distinct wall-clock-derived seed per instance.
func NewJitter(seed int64) *Jitter {
	if seed == 0 {
		seed = time.Now().UnixNano() ^ seedCounter.Add(1)<<32
	}
	return &Jitter{rng: rand.New(rand.NewSource(seed))}
}

// Delay computes the capped-exponential jittered wait for attempt n
// (0-based), with the same schedule as the package-level Delay, drawing
// from the instance's locked source.
func (j *Jitter) Delay(base, max time.Duration, attempt int) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Delay(base, max, attempt, j.rng)
}
