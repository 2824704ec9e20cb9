package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/speaker"
)

// routerFleet starts the two-router fleet of the §4.2 management check
// and returns the routers' MIB URLs. AS 4 and AS 52 both originate
// 131.179.0.0/16 with no list; router AS 701 hears only AS 4 and router
// AS 702 only AS 52, so neither router alarms on its own.
func routerFleet(t *testing.T) (r1URL, r2URL string) {
	t.Helper()
	newSpk := func(asn astypes.ASN) *speaker.Speaker {
		s, err := speaker.New(speaker.Config{AS: asn, RouterID: uint32(asn)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	link := func(a, b *speaker.Speaker) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a.Listen(ln)
		if err := b.Connect(ln.Addr().String(), a.AS()); err != nil {
			t.Fatal(err)
		}
	}
	origin, attacker := newSpk(4), newSpk(52)
	r1, r2 := newSpk(701), newSpk(702)
	link(origin, r1)
	link(attacker, r2)
	origin.Originate(victim, core.List{})
	attacker.Originate(victim, core.List{})
	deadline := time.Now().Add(5 * time.Second)
	for r1.Table().Best(victim) == nil || r2.Table().Best(victim) == nil {
		if time.Now().After(deadline) {
			t.Fatal("routes never reached both routers")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range []*speaker.Speaker{r1, r2} {
		if n := r.MIB().Counters.Alarms; n != 0 {
			t.Fatalf("router AS %s raised %d alarm(s) on its own", r.AS(), n)
		}
	}
	srv1, srv2 := httptest.NewServer(r1), httptest.NewServer(r2)
	t.Cleanup(srv1.Close)
	t.Cleanup(srv2.Close)
	return srv1.URL, srv2.URL
}

// TestReplayOnlyOverRouterMIBs: a replay-only run over the fleet's two
// MIB URLs catches what neither router saw alone. The conflict is
// raised by whichever router is read second, against the list the first
// one recorded, so the prefix is flagged in either order, and its alarm
// line names both routers with their lists. Each router's MIB read is
// logged with its AS, its route count and its own alarm count.
func TestReplayOnlyOverRouterMIBs(t *testing.T) {
	r1, r2 := routerFleet(t)
	lists := map[string]string{r1: "{4}", r2: "{52}"}
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	for _, urls := range [][]string{{r1, r2}, {r2, r1}} {
		report, err := replayOnly(t, runConfig{archives: urls})
		if err != nil {
			t.Fatal(err)
		}
		want := "1 MOAS cases across 2 dump(s)\n" +
			"  131.179.0.0/16 origins {4, 52}\n" +
			"1 MOAS-list alarm(s)\n" +
			"  131.179.0.0/16: 1 alarm(s), conflicting origins " + lists[urls[1]] + " via " + urls[1] +
			"; first MIB " + urls[0] + " lists " + lists[urls[0]] + "\n"
		if report != want {
			t.Errorf("report over %v:\n%s\nwant:\n%s", urls, report, want)
		}
	}
	for url, as := range map[string]string{r1: "701", r2: "702"} {
		if line := "read MIB " + url + ": AS " + as + ", 1 routes, 0 router alarm(s)\n"; !strings.Contains(logged.String(), line) {
			t.Errorf("log has no %q:\n%s", line, logged.String())
		}
	}
}

// speakerMIB returns the MIB a speaker serves for one explicit-list and
// one implicit-list route.
func speakerMIB(tb testing.TB) []byte {
	tb.Helper()
	s, err := speaker.New(speaker.Config{AS: 701, RouterID: 701})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	s.Originate(victim, core.NewList(701, 4))
	s.Originate(net10, core.List{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/mib", nil))
	return rec.Body.Bytes()
}

// FuzzMIBSource: any input either fails to decode, or gives a table the
// monitor observes whose every row round-trips: rendered back as a
// speaker renders a route and decoded again, it gives the same entry,
// and it carries the row's list unchanged.
func FuzzMIBSource(f *testing.F) {
	f.Add(speakerMIB(f))
	f.Add([]byte(`{"routes":[{"prefix":"10.0.0.0/8","asPath":"1 {2 3}","moasList":["2","70000"]}]}`))
	f.Add([]byte(`{"routes":[{"prefix":"10.0.0.0/8","asPath":"","moasList":[]}]}`))
	f.Add([]byte(`{"routes":[{"prefix":"10.0.0.0/8","asPath":" 1  2 ","moasList":["9"],"implicitList":true}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		mib, d, err := decodeMIB(bytes.NewReader(data))
		if err != nil {
			return
		}
		monitor.New().ObserveDump("fuzz", d)
		if len(d.Entries) != len(mib.Routes) {
			t.Fatalf("%d routes gave %d entries", len(mib.Routes), len(d.Entries))
		}
		for i, row := range mib.Routes {
			e := d.Entries[i]
			list, explicit := core.FromCommunities(e.Communities)
			if explicit == row.Implicit {
				t.Fatalf("row %+v: explicit list carried = %v", row, explicit)
			}
			if explicit {
				members := make([]astypes.ASN, len(row.MOASList))
				for j, s := range row.MOASList {
					members[j], _ = astypes.ParseASN(s)
				}
				if want := core.NewList(members...); list != want {
					t.Fatalf("row %+v: carries %s, want %s", row, list, want)
				}
			}
			rendered := speaker.PrefixEntry{Prefix: e.Prefix.String(), Path: e.Path.String(), Implicit: !explicit}
			for _, o := range list.Origins() {
				rendered.MOASList = append(rendered.MOASList, o.String())
			}
			body, err := json.Marshal(speaker.MIB{Routes: []speaker.PrefixEntry{rendered}})
			if err != nil {
				t.Fatal(err)
			}
			_, again, err := decodeMIB(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("row %+v rendered as %+v: %v", row, rendered, err)
			}
			if a := again.Entries[0]; a.Prefix != e.Prefix || a.Path.String() != e.Path.String() ||
				!slices.Equal(a.Communities, e.Communities) {
				t.Fatalf("row %+v: entry %+v decoded again as %+v", row, e, a)
			}
		}
	})
}
