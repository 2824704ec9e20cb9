package collector

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

var other = astypes.MustPrefix(0x0a000000, 8)

// risEvent is one RIS-Live announcement of nlri by origin, heard from
// peer at host rrc00.
func risEvent(rec *obs.Recorder, span uint64, peer, origin astypes.ASN, nlri ...astypes.Prefix) *rislive.Event {
	return &rislive.Event{
		PeerASN: peer,
		Host:    "rrc00",
		Span:    span,
		Stamp:   rec.Start(span),
		Update: wire.Update{
			Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(peer, origin)},
			NLRI:  nlri,
		},
	}
}

// TestConsumeRISLive drives two conflicting RIS-Live events through the
// consumer loop: each reaches the collector's RIB and its monitor under
// the "ris:<host>" vantage, crosses the session and RIB stages, and
// the hook runs once per event after the monitor has observed it.
func TestConsumeRISLive(t *testing.T) {
	rec := obs.NewRecorder()
	mon := monitor.New()
	c := New(Config{RouterID: 999, Obs: rec, Monitor: mon})
	t.Cleanup(func() { c.Close() })

	events := make(chan *rislive.Event, 2)
	events <- risEvent(rec, 1, 701, 4, prefix)
	events <- risEvent(rec, 2, 702, 52, prefix)
	close(events)

	var seen []uint64
	var alarmsAtHook []uint64
	c.ConsumeRISLive(events, func(ev *rislive.Event) {
		seen = append(seen, ev.Span)
		alarmsAtHook = append(alarmsAtHook, mon.AlarmCount())
	})

	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("hook saw spans %v, want [1 2]", seen)
	}
	// The second event conflicts with the first; the hook already sees
	// the alarm it raised.
	if len(alarmsAtHook) != 2 || alarmsAtHook[0] != 0 || alarmsAtHook[1] != 1 {
		t.Errorf("alarms at hook = %v, want [0 1]", alarmsAtHook)
	}
	if alarms := mon.Alarms(); len(alarms) != 1 || alarms[0].Vantage != "ris:rrc00" {
		t.Errorf("monitor alarms = %+v, want one from vantage ris:rrc00", alarms)
	} else if c := alarms[0].Conflict; c.FromPeer != 702 || !strings.HasSuffix(c.Error(), "(learned from AS 702)") {
		t.Errorf("alarm from peer %d: %s", c.FromPeer, c.Error())
	}
	for _, peer := range []astypes.ASN{701, 702} {
		if _, ok := c.RoutesFrom(peer)[prefix]; !ok {
			t.Errorf("collector RIB lacks the route from peer %d", peer)
		}
	}
	for _, st := range []obs.Stage{obs.StageSession, obs.StageRIB} {
		if got := rec.StageCount(st); got != 2 {
			t.Errorf("stage %s count = %d, want 2", st, got)
		}
	}
}

// testArchive is an MRT archive of one RIB record with two entries for
// prefix, from peers 65001 and 65002, and one UPDATE from 65002
// announcing other, all with origin 4.
func testArchive(t *testing.T) []byte {
	t.Helper()
	t0 := time.Unix(1000000000, 0).UTC()
	var archive bytes.Buffer
	w := mrt.NewWriter(&archive)
	peers := []mrt.Peer{
		{BGPID: 1, IP: 0xC0000201, AS: 65001},
		{BGPID: 2, IP: 0xC0000202, AS: 65002},
	}
	if err := w.WritePeerIndex(t0, 1, "test", peers); err != nil {
		t.Fatal(err)
	}
	entries := []mrt.RIBEntry{
		{PeerAS: 65001, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(65001, 4), NextHop: 0xC0000201},
		{PeerIndex: 1, PeerAS: 65002, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(65002, 4), NextHop: 0xC0000202},
	}
	if err := w.WriteRIB(t0, 0, prefix, entries); err != nil {
		t.Fatal(err)
	}
	u := &wire.Update{NLRI: []astypes.Prefix{other}}
	u.Attrs.HasOrigin, u.Attrs.HasNextHop = true, true
	u.Attrs.NextHop = 0xC0000202
	u.Attrs.ASPath = astypes.NewSeqPath(65002, 4)
	if err := w.WriteUpdate(t0, 65002, CollectorASN, 0xC0000202, 0xC0000201, u); err != nil {
		t.Fatal(err)
	}
	return archive.Bytes()
}

// TestReplayMRT: a replay mirrors every RIB entry and UPDATE into the
// collector's RIB, runs the hook once per record, and has the monitor
// observe each entry under the replay's vantage.
func TestReplayMRT(t *testing.T) {
	reg := telemetry.NewRegistry("moas")
	c, _ := newMonitoredCollector(t, monitor.WithTelemetry(reg))
	records := 0
	res, err := c.ReplayMRT("mrt:test", bytes.NewReader(testArchive(t)), func(*mrt.Record) { records++ })
	if err != nil {
		t.Fatal(err)
	}
	if records != 3 || res.Stats.Records != 3 {
		t.Errorf("hook ran %d times over %d records, want 3", records, res.Stats.Records)
	}
	for peer, want := range map[astypes.ASN][]astypes.Prefix{65001: {prefix}, 65002: {prefix, other}} {
		routes := c.RoutesFrom(peer)
		for _, p := range want {
			if _, ok := routes[p]; !ok || len(routes) != len(want) {
				t.Errorf("peer %d routes = %v, want %v", peer, routes, want)
			}
		}
	}
	if got := reg.Counter("monitor_entries_total", "").Value(); got != 3 {
		t.Errorf("monitor observed %d entries, want 3", got)
	}

	if _, err := newCollector(t).ReplayMRT("mrt:test", bytes.NewReader(testArchive(t)), nil); err == nil {
		t.Error("ReplayMRT without a monitor succeeded")
	}
}

// TestReplayAlarmNamesPeer: one TABLE_DUMP_V2 record holds prefix from
// peer AS 701 with origin 4, then from peer AS 1239 with origin 9. The
// second entry conflicts with the first, and its alarm names the peer it
// came from, whether the archive is replayed by the monitor alone or
// through a collector.
func TestReplayAlarmNamesPeer(t *testing.T) {
	t0 := time.Unix(1000000000, 0).UTC()
	var archive bytes.Buffer
	w := mrt.NewWriter(&archive)
	peers := []mrt.Peer{
		{BGPID: 1, IP: 0xC0000201, AS: 701},
		{BGPID: 2, IP: 0xC0000202, AS: 1239},
	}
	if err := w.WritePeerIndex(t0, 1, "peers", peers); err != nil {
		t.Fatal(err)
	}
	entries := []mrt.RIBEntry{
		{PeerIndex: 0, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(701, 4), NextHop: 0xC0000201},
		{PeerIndex: 1, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(1239, 9), NextHop: 0xC0000202},
	}
	if err := w.WriteRIB(t0, 0, prefix, entries); err != nil {
		t.Fatal(err)
	}

	for name, replay := range map[string]func(*monitor.Monitor) error{
		"Monitor.ReplayMRTFunc": func(m *monitor.Monitor) error {
			_, err := m.ReplayMRTFunc("mrt:peers", bytes.NewReader(archive.Bytes()), nil)
			return err
		},
		"Collector.ReplayMRT": func(m *monitor.Monitor) error {
			c := New(Config{RouterID: 999, Monitor: m})
			defer c.Close()
			_, err := c.ReplayMRT("mrt:peers", bytes.NewReader(archive.Bytes()), nil)
			return err
		},
	} {
		m := monitor.New()
		if err := replay(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		alarms := m.Alarms()
		if len(alarms) != 1 {
			t.Fatalf("%s: %d alarms, want 1", name, len(alarms))
		}
		c := alarms[0].Conflict
		if c.FromPeer != 1239 || !strings.HasSuffix(c.Error(), "(learned from AS 1239)") {
			t.Errorf("%s: alarm from peer %d: %s", name, c.FromPeer, c.Error())
		}
	}
}

// TestCollectorObservesEachSourceOnce feeds one collector from a BGP
// peering, a RIS-Live stream and an MRT replay: the monitor observes
// every announced prefix exactly once, and snapshots observe nothing.
// A peering's withdrawal reaches the monitor too.
func TestCollectorObservesEachSourceOnce(t *testing.T) {
	reg := telemetry.NewRegistry("moas")
	c, mon := newMonitoredCollector(t, monitor.WithTelemetry(reg))
	entries := reg.Counter("monitor_entries_total", "")

	// Peering: one UPDATE, one NLRI.
	s := newPeerSpeaker(t, 9)
	peerWithCollector(t, c, s)
	s.Originate(prefix, core.NewList(4, 9))
	waitFor(t, func() bool { return entries.Value() == 1 }, "the peering's UPDATE observed")

	// RIS-Live: two events, three NLRI.
	rec := obs.NewRecorder()
	events := make(chan *rislive.Event, 2)
	events <- risEvent(rec, 1, 701, 4, prefix, other)
	events <- risEvent(rec, 2, 702, 4, other)
	close(events)
	c.ConsumeRISLive(events, nil)

	// MRT: two RIB entries and one UPDATE with one NLRI.
	if _, err := c.ReplayMRT("mrt:test", bytes.NewReader(testArchive(t)), nil); err != nil {
		t.Fatal(err)
	}

	const fed = 1 + 3 + 3
	if got := entries.Value(); got != fed {
		t.Errorf("monitor_entries_total = %d, want %d", got, fed)
	}
	arch, err := NewArchiver(c, t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	for range 3 {
		if _, err := arch.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}
	if got := entries.Value(); got != fed {
		t.Errorf("after snapshots monitor_entries_total = %d, want %d", got, fed)
	}

	// prefix is a MOAS case (origins 9 and 4) until the peering
	// withdraws it, which forgets the prefix in the monitor.
	if cases := mon.MOASCases(); len(cases) != 1 || cases[0].Prefix != prefix {
		t.Fatalf("MOAS cases = %+v, want %s", cases, prefix)
	}
	s.WithdrawLocal(prefix)
	waitFor(t, func() bool {
		for _, mc := range mon.MOASCases() {
			if mc.Prefix == prefix {
				return false
			}
		}
		return true
	}, "the peering's withdrawal observed")
}

// TestConsumeRISLiveVantageOncePerHost: naming an event's vantage
// costs ConsumeRISLive no allocation beyond the first event of a host,
// so the loop allocates no more per event than ingest itself.
func TestConsumeRISLiveVantageOncePerHost(t *testing.T) {
	const n = 64
	c := New(Config{})
	ev := risEvent(nil, 0, 701, 4, prefix)
	direct := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			c.ingest("ris:rrc00", ev.PeerASN, &ev.Update, nil)
		}
	})
	consumed := testing.AllocsPerRun(10, func() {
		ch := make(chan *rislive.Event, n)
		for i := 0; i < n; i++ {
			ch <- ev
		}
		close(ch)
		c.ConsumeRISLive(ch, nil)
	})
	// The channel, the vantage map and its one entry are per call.
	if extra := consumed - direct; extra > 4 {
		t.Errorf("ConsumeRISLive allocates %v more than ingest over %d events from one host, want at most 4", extra, n)
	}
}
