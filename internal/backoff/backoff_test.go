package backoff

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestDelaySchedule holds the package-level Delay and a Jitter's
// Delay, the form the daemon's re-dial loop and the RIS-Live stage
// call, to the same schedule.
func TestDelaySchedule(t *testing.T) {
	const (
		base = time.Second
		max  = 8 * time.Second
	)
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct {
		name  string
		delay func(base, max time.Duration, attempt int) time.Duration
	}{
		{"Delay", func(base, max time.Duration, attempt int) time.Duration { return Delay(base, max, attempt, rng) }},
		{"Jitter.Delay", NewJitter(1).Delay},
	} {
		// Every attempt's delay must land in [d/2, d] where d doubles
		// from base until the cap; sample repeatedly to exercise the
		// jitter.
		for attempt := 0; attempt < 10; attempt++ {
			want := base << attempt
			if want > max || want <= 0 {
				want = max
			}
			for i := 0; i < 50; i++ {
				got := s.delay(base, max, attempt)
				if got < want/2 || got > want {
					t.Fatalf("%s: attempt %d: delay %v outside [%v, %v]", s.name, attempt, got, want/2, want)
				}
			}
		}
		// The jitter must actually vary (not return a constant).
		seen := map[time.Duration]bool{}
		for i := 0; i < 50; i++ {
			seen[s.delay(base, max, 0)] = true
		}
		if len(seen) < 2 {
			t.Errorf("%s produced no jitter", s.name)
		}
		// Degenerate inputs.
		if s.delay(0, max, 3) != 0 {
			t.Errorf("%s: zero base should disable the delay", s.name)
		}
		if got := s.delay(base, 0, 4); got < base/2 || got > base {
			t.Errorf("%s: cap below base should clamp to base, got %v", s.name, got)
		}
	}
}

func TestJitterSeededReproducibility(t *testing.T) {
	const (
		base = time.Second
		max  = 30 * time.Second
	)
	a, b := NewJitter(42), NewJitter(42)
	for attempt := 0; attempt < 16; attempt++ {
		da, db := a.Delay(base, max, attempt), b.Delay(base, max, attempt)
		if da != db {
			t.Fatalf("attempt %d: same-seed Jitters diverged: %v vs %v", attempt, da, db)
		}
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		if da < want/2 || da > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, da, want/2, want)
		}
	}
	// Distinct seeds (and distinct default-seeded instances) must not
	// replay the same sequence.
	differs := func(x, y *Jitter) bool {
		for attempt := 0; attempt < 8; attempt++ {
			if x.Delay(base, max, attempt) != y.Delay(base, max, attempt) {
				return true
			}
		}
		return false
	}
	if !differs(NewJitter(1), NewJitter(2)) {
		t.Error("seeds 1 and 2 produced identical delay sequences")
	}
	if !differs(NewJitter(0), NewJitter(0)) {
		t.Error("two default-seeded Jitters produced identical delay sequences")
	}
}

func TestJitterConcurrent(t *testing.T) {
	// One shared Jitter hammered from many goroutines: the locked source
	// must stay race-free (run under -race) and in schedule.
	j := NewJitter(7)
	const goroutines = 8
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				got := j.Delay(time.Second, 8*time.Second, 2)
				if got < 2*time.Second || got > 4*time.Second {
					done <- fmt.Errorf("delay %v outside [2s, 4s]", got)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
