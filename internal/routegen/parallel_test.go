package routegen

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// encodeDump renders a dump to its MRT form — the strictest equality
// available (prefixes, paths, communities, date; the date fixes the
// day).
func encodeDump(t *testing.T, d *Dump) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMRT(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDumpForDayIntoMatchesDumpForDay(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One reused dump across many days, including event days, must be
	// byte-identical to a fresh DumpForDay each time.
	var reused Dump
	for _, day := range []int{0, 50, 51, 80, 84, g.Days() - 1} {
		fresh, err := g.DumpForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.DumpForDayInto(day, &reused); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeDump(t, fresh), encodeDump(t, &reused)) {
			t.Errorf("day %d: reused dump differs from fresh dump", day)
		}
	}
	if err := g.DumpForDayInto(-1, &reused); err == nil {
		t.Error("negative day accepted")
	}
	if err := g.DumpForDayInto(g.Days(), &reused); err == nil {
		t.Error("day == Days accepted")
	}
}

func TestSeriesParallelMatchesSerial(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial := make([][]byte, 0, g.Days())
	if err := g.Series(func(d *Dump) error {
		serial = append(serial, encodeDump(t, d))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(serial) != g.Days() {
		t.Fatalf("serial visited %d days, want %d", len(serial), g.Days())
	}
	for _, workers := range []int{2, 3, 8, 2 * g.Days()} {
		day := 0
		err := g.SeriesParallel(workers, func(d *Dump) error {
			if d.Day != day {
				return fmt.Errorf("got day %d, want %d (out of order)", d.Day, day)
			}
			if !bytes.Equal(serial[day], encodeDump(t, d)) {
				return fmt.Errorf("day %d differs from serial output", day)
			}
			day++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if day != g.Days() {
			t.Fatalf("workers=%d visited %d days, want %d", workers, day, g.Days())
		}
	}
}

func TestSeriesParallelPropagatesError(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	seen := 0
	err = g.SeriesParallel(4, func(d *Dump) error {
		if d.Day == 7 {
			return boom
		}
		seen++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if seen != 7 {
		t.Errorf("callback ran for %d days before the failing day, want 7", seen)
	}
}
