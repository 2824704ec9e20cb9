package sim

import (
	"errors"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(10*time.Millisecond, func() {
		times = append(times, e.Now())
		e.Schedule(5*time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 10*time.Millisecond || times[1] != 15*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10*time.Millisecond, func() {
		e.Schedule(-5*time.Millisecond, func() {
			fired = true
			if e.Now() != 10*time.Millisecond {
				t.Errorf("negative delay ran at %v", e.Now())
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("negative-delay event never ran")
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(100)
	var bomb func()
	bomb = func() { e.Schedule(time.Millisecond, bomb) }
	e.Schedule(0, bomb)
	err := e.Run()
	if !errors.Is(err, ErrEventLimit) {
		t.Errorf("err = %v, want ErrEventLimit", err)
	}
}

func TestRunOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Errorf("Run on empty queue: %v", err)
	}
}
