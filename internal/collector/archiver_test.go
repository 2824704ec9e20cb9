package collector

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
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
	arch, err := NewArchiver(c, dir, time.Hour, WithClock(func() time.Time { return fixed }))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()

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

func TestArchiverPeriodicAndMonitor(t *testing.T) {
	c := newCollector(t)
	origin := newPeerSpeaker(t, 4)
	attacker := newPeerSpeaker(t, 52)
	peerWithCollector(t, c, origin)
	peerWithCollector(t, c, attacker)
	origin.Originate(prefix, core.List{})
	attacker.Originate(prefix, core.List{})
	waitFor(t, func() bool {
		return len(c.RoutesFrom(4)) == 1 && len(c.RoutesFrom(52)) == 1
	}, "both routes archived")

	alarmCh := make(chan monitor.Alarm, 8)
	arch, err := NewArchiver(c, t.TempDir(), 20*time.Millisecond,
		WithMonitor(monitor.New(), func(a monitor.Alarm) { alarmCh <- a }))
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Start(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Start(); err == nil {
		t.Error("double Start accepted")
	}
	select {
	case a := <-alarmCh:
		if a.Conflict.Prefix != prefix {
			t.Errorf("alarm = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("periodic snapshot never raised the alarm")
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if len(arch.Written()) == 0 {
		t.Error("no snapshots written")
	}
}

// TestArchiverConcurrentSnapshotsReportEachAlarmOnce: overlapping
// SnapshotNow calls share one alarm cursor, so every monitor alarm
// reaches onAlarm exactly once, however the snapshots interleave.
func TestArchiverConcurrentSnapshotsReportEachAlarmOnce(t *testing.T) {
	c := newCollector(t)
	origin := newPeerSpeaker(t, 4)
	attacker := newPeerSpeaker(t, 52)
	peerWithCollector(t, c, origin)
	peerWithCollector(t, c, attacker)
	origin.Originate(prefix, core.List{})
	attacker.Originate(prefix, core.List{})
	waitFor(t, func() bool {
		return len(c.RoutesFrom(4)) == 1 && len(c.RoutesFrom(52)) == 1
	}, "both routes archived")

	mon := monitor.New()
	var delivered atomic.Int64
	arch, err := NewArchiver(c, t.TempDir(), time.Hour,
		WithMonitor(mon, func(monitor.Alarm) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if _, err := arch.SnapshotNow(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(len(mon.Alarms()))
	if want == 0 {
		t.Fatal("the two-origin snapshots raised no alarm")
	}
	if got := delivered.Load(); got != want {
		t.Errorf("onAlarm ran %d times for %d monitor alarms", got, want)
	}
}

func TestArchiverValidatesInterval(t *testing.T) {
	c := newCollector(t)
	if _, err := NewArchiver(c, t.TempDir(), 0); err == nil {
		t.Error("zero interval accepted")
	}
}
