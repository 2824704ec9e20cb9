package speaker

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
)

func TestMIBSnapshot(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	valid := core.NewList(1)
	resolver := ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		return valid, p == prefix
	})
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationDrop, resolver)
	s3 := newSpeaker(t, 3, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return s3.Table().Best(prefix) != nil }, "convergence")
	s3.Originate(prefix, core.List{}) // hijack
	waitFor(t, func() bool { return len(s2.Alarms()) > 0 }, "alarm")
	time.Sleep(30 * time.Millisecond)

	m := s2.MIB()
	if m.AS != 2 || m.Mode != "drop" {
		t.Errorf("MIB identity: %+v", m)
	}
	if len(m.Peers) != 2 {
		t.Fatalf("peers = %+v", m.Peers)
	}
	for _, p := range m.Peers {
		if p.State != "Established" {
			t.Errorf("peer %v state %q", p.AS, p.State)
		}
	}
	if m.Counters.UpdatesIn == 0 || m.Counters.UpdatesOut == 0 {
		t.Errorf("counters = %+v", m.Counters)
	}
	if m.Counters.RoutesRejected == 0 {
		t.Error("the hijacked route should have been rejected")
	}
	if m.Counters.Alarms == 0 {
		t.Error("alarms missing from MIB")
	}
	if len(m.Routes) != 1 {
		t.Fatalf("routes = %+v", m.Routes)
	}
	r := m.Routes[0]
	if r.Prefix != "10.0.0.0/8" || r.OriginAS != "1" || !r.Implicit {
		t.Errorf("route entry = %+v", r)
	}
	if len(r.MOASList) != 1 || r.MOASList[0] != "1" {
		t.Errorf("implicit MOAS list = %v", r.MOASList)
	}
}

func TestMIBExplicitList(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	list := core.NewList(1, 7)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)
	s1.Originate(prefix, list)
	waitFor(t, func() bool { return s2.Table().Best(prefix) != nil }, "route")
	m := s2.MIB()
	if len(m.Routes) != 1 || m.Routes[0].Implicit {
		t.Fatalf("routes = %+v", m.Routes)
	}
	if got := m.Routes[0].MOASList; len(got) != 2 || got[0] != "1" || got[1] != "7" {
		t.Errorf("MOAS list = %v", got)
	}
}

// TestMIBAttributeList: a list carried in the dedicated attribute is
// explicit in the MIB, exactly as the checker reads it — reporting it as
// implicit would make cross-router MIB checks see disagreements that do
// not exist.
func TestMIBAttributeList(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1, err := New(Config{AS: 1, RouterID: 1, ListEncoding: EncodeAttribute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)
	s1.Originate(prefix, core.NewList(1, 2))
	waitFor(t, func() bool { return s2.Table().Best(prefix) != nil }, "route")
	m := s2.MIB()
	if len(m.Routes) != 1 || m.Routes[0].Implicit {
		t.Fatalf("routes = %+v", m.Routes)
	}
	if got := m.Routes[0].MOASList; len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Errorf("MOAS list = %v", got)
	}
}

func TestMIBServeHTTP(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1 := newSpeaker(t, 1, ValidationAlarm, nil)
	s1.Originate(prefix, core.NewList(1))

	rec := httptest.NewRecorder()
	s1.ServeHTTP(rec, httptest.NewRequest("GET", "/mib", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var m MIB
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m.AS != 1 || m.Mode != "alarm" || len(m.Routes) != 1 {
		t.Errorf("decoded MIB = %+v", m)
	}
}
