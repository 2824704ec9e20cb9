package collector

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mrt"
)

func TestArchiverSnapshotNow(t *testing.T) {
	c := newCollector(t)
	s := newPeerSpeaker(t, 4)
	peerWithCollector(t, c, s)
	s.Originate(prefix, core.NewList(4))
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 1 }, "route archived")

	dir := t.TempDir()
	fixed := time.Date(2001, 4, 6, 12, 0, 0, 0, time.UTC)
	arch, err := NewArchiver(c, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	arch.now = func() time.Time { return fixed }

	name, err := arch.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := mrt.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var origins []uint32
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Time.Equal(fixed) {
			t.Errorf("record %d stamped %v, want %v", rec.Span, rec.Time, fixed)
		}
		if rec.Kind == mrt.KindRIB {
			if rec.Prefix != prefix || len(rec.Entries) != 1 {
				t.Fatalf("RIB record = %+v", rec)
			}
			origin, _ := rec.Entries[0].Path.Origin()
			origins = append(origins, uint32(origin))
		}
	}
	if !slices.Equal(origins, []uint32{4}) {
		t.Errorf("snapshot origins = %v, want [4]", origins)
	}
	if got := arch.Written(); len(got) != 1 || got[0] != name {
		t.Errorf("Written = %v", got)
	}
	if filepath.Dir(name) != dir {
		t.Errorf("snapshot outside dir: %s", name)
	}
}

// TestArchiverPeriodicAndMonitor: the archiver writes snapshots on its
// interval, while the collector's monitor raises the conflict once,
// when the second UPDATE arrives, however many snapshots follow.
func TestArchiverPeriodicAndMonitor(t *testing.T) {
	alarmCh := make(chan monitor.Alarm, 8)
	c, mon := newMonitoredCollector(t, monitor.WithOnAlarm(func(a monitor.Alarm) { alarmCh <- a }))
	originateConflict(t, c)
	select {
	case a := <-alarmCh:
		if a.Conflict.Prefix != prefix || a.Vantage != "collector" {
			t.Errorf("alarm = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the conflicting UPDATE never raised the alarm")
	}

	arch, err := NewArchiver(c, t.TempDir(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Start(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Start(); err == nil {
		t.Error("double Start accepted")
	}
	waitFor(t, func() bool { return len(arch.Written()) >= 3 }, "three periodic snapshots")
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mon.AlarmCount(); got != 1 {
		t.Errorf("monitor raised %d alarms across %d snapshots, want 1", got, len(arch.Written()))
	}
	if len(alarmCh) != 0 {
		t.Errorf("%d more alarms reached the hook", len(alarmCh))
	}
}

// TestArchiverConcurrentSnapshots: overlapping SnapshotNow calls each
// write their own file, and every one is recorded and counted.
func TestArchiverConcurrentSnapshots(t *testing.T) {
	c := newCollector(t)
	s := newPeerSpeaker(t, 4)
	peerWithCollector(t, c, s)
	s.Originate(prefix, core.List{})
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 1 }, "route archived")

	arch, err := NewArchiver(c, t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				if _, err := arch.SnapshotNow(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	written := arch.Written()
	distinct := make(map[string]bool, len(written))
	for _, name := range written {
		distinct[name] = true
	}
	if len(written) != workers*each || len(distinct) != len(written) {
		t.Errorf("Written holds %d names, %d distinct, want %d", len(written), len(distinct), workers*each)
	}
	if got := arch.dumpsWritten.Value(); got != workers*each {
		t.Errorf("archiver_dumps_written_total = %d, want %d", got, workers*each)
	}
}

func TestArchiverValidatesInterval(t *testing.T) {
	c := newCollector(t)
	if _, err := NewArchiver(c, t.TempDir(), 0); err == nil {
		t.Error("zero interval accepted")
	}
}
