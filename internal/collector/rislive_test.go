package collector

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/monitor"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestConsumeRISLive drives two conflicting RIS-Live events through the
// consumer loop: each reaches the collector's RIB and the monitor under
// its "ris:<host>" vantage, crosses the session and RIB stages, and
// the hook runs once per event after the monitor has observed it.
func TestConsumeRISLive(t *testing.T) {
	rec := obs.NewRecorder()
	c := New(Config{RouterID: 999, Obs: rec})
	t.Cleanup(func() { c.Close() })
	mon := monitor.New()

	events := make(chan *rislive.Event, 2)
	for i, origin := range []astypes.ASN{4, 52} {
		peer := astypes.ASN(701 + i)
		events <- &rislive.Event{
			PeerASN: peer,
			Host:    "rrc00",
			Span:    uint64(i + 1),
			Stamp:   rec.Start(uint64(i + 1)),
			Update: wire.Update{
				Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(peer, origin)},
				NLRI:  []astypes.Prefix{prefix},
			},
		}
	}
	close(events)

	var seen []uint64
	var alarmsAtHook []int
	c.ConsumeRISLive(events, mon, func(ev *rislive.Event) {
		seen = append(seen, ev.Span)
		alarmsAtHook = append(alarmsAtHook, len(mon.Alarms()))
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
