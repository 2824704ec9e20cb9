package collector

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/monitor"
	"repro/internal/speaker"
)

var prefix = astypes.MustPrefix(0x83b30000, 16)

func newCollector(t *testing.T) *Collector {
	t.Helper()
	c := New(Config{RouterID: 999})
	t.Cleanup(func() { c.Close() })
	return c
}

// newMonitoredCollector builds a collector that owns a monitor built
// with opts.
func newMonitoredCollector(t *testing.T, opts ...monitor.Option) (*Collector, *monitor.Monitor) {
	t.Helper()
	mon := monitor.New(opts...)
	c := New(Config{RouterID: 999, Monitor: mon})
	t.Cleanup(func() { c.Close() })
	return c, mon
}

// originateConflict peers origin AS 4 and attacker AS 52 with c; both
// originate prefix without a MOAS list.
func originateConflict(t *testing.T, c *Collector) {
	t.Helper()
	origin := newPeerSpeaker(t, 4)
	attacker := newPeerSpeaker(t, 52)
	peerWithCollector(t, c, origin)
	peerWithCollector(t, c, attacker)
	origin.Originate(prefix, core.List{})
	attacker.Originate(prefix, core.List{})
	waitFor(t, func() bool {
		return len(c.RoutesFrom(4)) == 1 && len(c.RoutesFrom(52)) == 1
	}, "both routes archived")
}

func newPeerSpeaker(t *testing.T, asn astypes.ASN) *speaker.Speaker {
	t.Helper()
	s, err := speaker.New(speaker.Config{AS: asn, RouterID: uint32(asn)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// peerWithCollector links a speaker to the collector over loopback TCP.
func peerWithCollector(t *testing.T, c *Collector, s *speaker.Speaker) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Listen(ln)
	if err := s.Connect(ln.Addr().String(), CollectorASN); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, p := range c.Peers() {
			if p == s.AS() {
				return true
			}
		}
		return false
	}, "collector peering")
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestCollectorArchivesAnnouncements(t *testing.T) {
	c := newCollector(t)
	s1 := newPeerSpeaker(t, 4)
	peerWithCollector(t, c, s1)

	s1.Originate(prefix, core.NewList(4))
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 1 }, "announcement archived")

	dump := c.Snapshot(time.Date(2001, 4, 6, 0, 0, 0, 0, time.UTC))
	if len(dump.Entries) != 1 {
		t.Fatalf("snapshot entries = %d", len(dump.Entries))
	}
	if dump.Entries[0].Origin() != 4 {
		t.Errorf("archived origin = %v", dump.Entries[0].Origin())
	}

	// Withdrawal clears the archive.
	s1.WithdrawLocal(prefix)
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 0 }, "withdrawal archived")
	if d2 := c.Snapshot(time.Now()); len(d2.Entries) != 0 {
		t.Errorf("post-withdrawal snapshot entries = %d", len(d2.Entries))
	}
	if d3 := c.Snapshot(time.Now()); d3.Day != 2 {
		t.Errorf("snapshot day counter = %d", d3.Day)
	}
}

// TestCollectorFeedsMeasurementPipeline is the full live-to-measurement
// loop: speakers announce over real BGP sessions, the collector
// snapshots, and the §3 analysis counts the MOAS case.
func TestCollectorFeedsMeasurementPipeline(t *testing.T) {
	c := newCollector(t)
	s1 := newPeerSpeaker(t, 4)
	s2 := newPeerSpeaker(t, 226)
	peerWithCollector(t, c, s1)
	peerWithCollector(t, c, s2)

	list := core.NewList(4, 226)
	s1.Originate(prefix, list)
	s2.Originate(prefix, list)
	waitFor(t, func() bool {
		return len(c.RoutesFrom(4)) == 1 && len(c.RoutesFrom(226)) == 1
	}, "both origins archived")

	dump := c.Snapshot(time.Now())
	analysis := measure.NewAnalysis()
	analysis.Observe(dump)
	if got := analysis.Daily()[0].Cases; got != 1 {
		t.Errorf("measurement saw %d MOAS cases, want 1", got)
	}

	// And the off-line monitor sees a consistent (valid) MOAS: the two
	// announcements carry identical lists, so no alarm.
	mon := monitor.New()
	mon.ObserveDump("collector", dump)
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Errorf("valid MOAS raised %d alarms via the collector", len(alarms))
	}
}

// TestCollectorMonitorCatchesLiveHijack closes the loop the paper's
// off-line deployment path describes: a hijack on the live mesh is
// caught by monitoring the collector's archive.
func TestCollectorMonitorCatchesLiveHijack(t *testing.T) {
	c := newCollector(t)
	s1 := newPeerSpeaker(t, 4)
	s2 := newPeerSpeaker(t, 52)
	peerWithCollector(t, c, s1)
	peerWithCollector(t, c, s2)

	s1.Originate(prefix, core.List{})
	s2.Originate(prefix, core.List{}) // the hijack
	waitFor(t, func() bool {
		return len(c.RoutesFrom(4)) == 1 && len(c.RoutesFrom(52)) == 1
	}, "both announcements archived")

	mon := monitor.New()
	mon.ObserveDump("collector", c.Snapshot(time.Now()))
	if len(mon.Alarms()) == 0 {
		t.Error("hijack not flagged from the collector archive")
	}
	cases := mon.MOASCases()
	if len(cases) != 1 || len(cases[0].Origins) != 2 {
		t.Errorf("cases = %+v", cases)
	}
}

// TestCollectorMonitorAlarmsOncePerConflict: with Config.Monitor set,
// a conflict between two peerings raises one alarm when the second
// UPDATE arrives, and snapshots do not raise it again.
func TestCollectorMonitorAlarmsOncePerConflict(t *testing.T) {
	c, mon := newMonitoredCollector(t)
	originateConflict(t, c)
	waitFor(t, func() bool { return mon.AlarmCount() > 0 }, "the conflict alarm")
	if alarms := mon.Alarms(); len(alarms) != 1 || alarms[0].Vantage != "collector" {
		t.Fatalf("alarms = %+v, want one from vantage collector", alarms)
	}
	arch, err := NewArchiver(c, t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	for range 20 {
		if _, err := arch.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(mon.Alarms()); got != 1 {
		t.Errorf("after 20 snapshots the monitor holds %d alarms, want 1", got)
	}
}

// TestPeeringAlarmNamesPeer: an alarm raised by an UPDATE that arrives
// over a BGP session names the session's peer AS.
func TestPeeringAlarmNamesPeer(t *testing.T) {
	c, mon := newMonitoredCollector(t)
	origin := newPeerSpeaker(t, 4)
	peerWithCollector(t, c, origin)
	origin.Originate(prefix, core.List{})
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 1 }, "the origin's route")
	attacker := newPeerSpeaker(t, 52)
	peerWithCollector(t, c, attacker)
	attacker.Originate(prefix, core.List{})
	waitFor(t, func() bool { return mon.AlarmCount() > 0 }, "the conflict alarm")
	alarms := mon.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %+v, want one", alarms)
	}
	if c := alarms[0].Conflict; c.FromPeer != 52 || !strings.HasSuffix(c.Error(), "(learned from AS 52)") {
		t.Errorf("alarm from peer %d: %s", c.FromPeer, c.Error())
	}
}

func TestCollectorPeerDownCleansState(t *testing.T) {
	c := newCollector(t)
	s1 := newPeerSpeaker(t, 4)
	peerWithCollector(t, c, s1)
	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 1 }, "announcement archived")

	s1.Close()
	waitFor(t, func() bool { return len(c.Peers()) == 0 }, "peer removed")
	if got := len(c.RoutesFrom(4)); got != 0 {
		t.Errorf("routes survived peer teardown: %d", got)
	}
}
