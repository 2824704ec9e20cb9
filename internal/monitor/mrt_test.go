package monitor

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestReplayStagesEveryEntry: an MRT replay lands one decode crossing
// per record, one validate crossing per checked entry and one alarm
// observation per conflict, so the stage breakdown attributes each
// latency to the stage that spent it.
func TestReplayStagesEveryEntry(t *testing.T) {
	other := astypes.MustPrefix(0x0a000000, 8)
	t0 := time.Unix(1000000000, 0).UTC()
	var archive bytes.Buffer
	w := mrt.NewWriter(&archive)
	peers := []mrt.Peer{
		{BGPID: 1, IP: 0xC0000201, AS: 65001},
		{BGPID: 2, IP: 0xC0000202, AS: 65002},
	}
	if err := w.WritePeerIndex(t0, 1, "stages", peers); err != nil {
		t.Fatal(err)
	}
	// Two vantages agree on the origin of prefix: two entries, no alarm.
	entries := []mrt.RIBEntry{
		{PeerAS: 65001, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(65001, 4), NextHop: 0xC0000201},
		{PeerAS: 65002, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(65002, 4), NextHop: 0xC0000202},
	}
	if err := w.WriteRIB(t0, 0, prefix, entries); err != nil {
		t.Fatal(err)
	}
	// One update, two NLRI: a forged origin for prefix and a new prefix.
	u := &wire.Update{NLRI: []astypes.Prefix{prefix, other}}
	u.Attrs.HasOrigin, u.Attrs.HasNextHop = true, true
	u.Attrs.NextHop = 0xC0000202
	u.Attrs.ASPath = astypes.NewSeqPath(65002, 52)
	if err := w.WriteUpdate(t0, 65002, 6447, 0xC0000202, 0xC0000201, u); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	m := New(WithObs(rec))
	if _, err := m.ReplayMRT("mrt:stages", bytes.NewReader(archive.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Alarms()); got != 1 {
		t.Fatalf("replay raised %d alarms, want 1", got)
	}
	for _, c := range []struct {
		stage obs.Stage
		want  uint64
	}{
		{obs.StageDecode, 3},   // peer index, RIB, update
		{obs.StageValidate, 4}, // two RIB entries, two NLRI
		{obs.StageAlarm, 1},
		{obs.StageSession, 0},
		{obs.StageRIB, 0}, // no hook: nothing mirrors the replay
	} {
		if got := rec.StageCount(c.stage); got != c.want {
			t.Errorf("%s stage observed %d times, want %d", c.stage, got, c.want)
		}
	}
}
