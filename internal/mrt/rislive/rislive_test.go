package rislive

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

const sampleUpdate = `{"type":"ris_message","data":{"timestamp":1000000000.5,"peer":"192.0.2.9","peer_asn":"65001","id":"x","host":"rrc00","type":"UPDATE","path":[65001,[64900,64901],65002],"community":[[65001,100],[65001,200]],"origin":"igp","announcements":[{"next_hop":"192.0.2.1","prefixes":["10.0.0.0/8","2001:db8::/32","192.0.2.128/25"]}],"withdrawals":["198.51.100.0/24"]}}`

func TestDecodeUpdate(t *testing.T) {
	ev, err := Decode([]byte(sampleUpdate))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("event skipped")
	}
	if ev.Time != time.Unix(1000000000, 500000000).UTC() {
		t.Errorf("time %v", ev.Time)
	}
	if ev.Peer != "192.0.2.9" || ev.PeerASN != 65001 || ev.Host != "rrc00" {
		t.Errorf("peer %q asn %d host %q", ev.Peer, ev.PeerASN, ev.Host)
	}
	wantPath := astypes.ASPath{Segments: []astypes.Segment{
		{Type: astypes.SegSequence, ASNs: []astypes.ASN{65001}},
		{Type: astypes.SegSet, ASNs: []astypes.ASN{64900, 64901}},
		{Type: astypes.SegSequence, ASNs: []astypes.ASN{65002}},
	}}
	if !reflect.DeepEqual(ev.Update.Attrs.ASPath, wantPath) {
		t.Errorf("path %+v", ev.Update.Attrs.ASPath)
	}
	wantComms := []astypes.Community{
		astypes.Community(65001)<<16 | 100,
		astypes.Community(65001)<<16 | 200,
	}
	if !reflect.DeepEqual(ev.Update.Attrs.Communities, wantComms) {
		t.Errorf("communities %v", ev.Update.Attrs.Communities)
	}
	if !ev.Update.Attrs.HasOrigin || ev.Update.Attrs.Origin != wire.OriginIGP {
		t.Errorf("origin %+v", ev.Update.Attrs)
	}
	if !ev.Update.Attrs.HasNextHop || ev.Update.Attrs.NextHop != 0xC0000201 {
		t.Errorf("next hop %x", ev.Update.Attrs.NextHop)
	}
	wantNLRI := []astypes.Prefix{
		astypes.MustPrefix(0x0A000000, 8),
		astypes.MustPrefix(0xC0000280, 25),
	}
	if !reflect.DeepEqual(ev.Update.NLRI, wantNLRI) {
		t.Errorf("NLRI %v", ev.Update.NLRI)
	}
	if len(ev.Update.Withdrawn) != 1 || ev.Update.Withdrawn[0] != astypes.MustPrefix(0xC6336400, 24) {
		t.Errorf("withdrawn %v", ev.Update.Withdrawn)
	}
	if ev.SkippedPrefixes != 1 {
		t.Errorf("skipped %d prefixes, want 1 (the IPv6 one)", ev.SkippedPrefixes)
	}
}

func TestDecodeSkips(t *testing.T) {
	for name, line := range map[string]string{
		"keepalive":  `{"type":"ris_message","data":{"type":"KEEPALIVE"}}`,
		"state":      `{"type":"ris_rrc_info","data":{}}`,
		"open":       `{"type":"ris_message","data":{"type":"OPEN","peer_asn":"1"}}`,
		"pure-ipv6":  `{"type":"ris_message","data":{"type":"UPDATE","peer_asn":"1","origin":"igp","announcements":[{"next_hop":"2001:db8::1","prefixes":["2001:db8::/32"]}]}}`,
		"empty-body": `{"type":"ris_message","data":{"type":"UPDATE","peer_asn":"1"}}`,
	} {
		ev, err := Decode([]byte(line))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if ev != nil {
			t.Errorf("%s: decoded %+v, want skip", name, ev)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for name, line := range map[string]string{
		"bad-json":    `{"type":"ris_message","data"`,
		"bad-asn":     `{"type":"ris_message","data":{"type":"UPDATE","peer_asn":"banana"}}`,
		"bad-origin":  `{"type":"ris_message","data":{"type":"UPDATE","origin":"weird","withdrawals":["10.0.0.0/8"]}}`,
		"bad-prefix":  `{"type":"ris_message","data":{"type":"UPDATE","withdrawals":["10.0.0.0"]}}`,
		"bad-preflen": `{"type":"ris_message","data":{"type":"UPDATE","withdrawals":["10.0.0.0/64"]}}`,
		"bad-path":    `{"type":"ris_message","data":{"type":"UPDATE","path":["x"],"withdrawals":["10.0.0.0/8"]}}`,
		"signed-len":  `{"type":"ris_message","data":{"type":"UPDATE","withdrawals":["10.0.0.0/+8"]}}`,
		"padded-len":  `{"type":"ris_message","data":{"type":"UPDATE","withdrawals":["10.0.0.0/008"]}}`,
		"zero-len":    `{"type":"ris_message","data":{"type":"UPDATE","withdrawals":["10.0.0.0/08"]}}`,
		"padded-addr": `{"type":"ris_message","data":{"type":"UPDATE","withdrawals":["010.0.0.0/8"]}}`,
	} {
		if _, err := Decode([]byte(line)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecodeAS4Substitution(t *testing.T) {
	line := `{"type":"ris_message","data":{"type":"UPDATE","peer_asn":"196615","origin":"igp","path":[196615,65001],"announcements":[{"next_hop":"10.0.0.1","prefixes":["10.0.0.0/8"]}]}}`
	ev, err := Decode([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if ev.PeerASN != ASTrans {
		t.Errorf("peer ASN %d, want AS_TRANS", ev.PeerASN)
	}
	want := []astypes.ASN{ASTrans, 65001}
	if got := ev.Update.Attrs.ASPath.Segments[0].ASNs; !reflect.DeepEqual(got, want) {
		t.Errorf("path %v, want %v", got, want)
	}
	if ev.Substituted != 2 {
		t.Errorf("substituted %d, want 2 (peer + path)", ev.Substituted)
	}
}

func TestDecodeMissingOriginDefaults(t *testing.T) {
	line := `{"type":"ris_message","data":{"type":"UPDATE","peer_asn":"1","announcements":[{"next_hop":"10.0.0.1","prefixes":["10.0.0.0/8"]}]}}`
	ev, err := Decode([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Update.Attrs.HasOrigin || ev.Update.Attrs.Origin != wire.OriginIncomplete {
		t.Errorf("attrs %+v, want defaulted INCOMPLETE origin", ev.Update.Attrs)
	}
}

func TestParseIPv4(t *testing.T) {
	for s, want := range map[string]struct {
		addr uint32
		ok   bool
	}{
		"192.0.2.1":       {0xC0000201, true},
		"0.0.0.0":         {0, true},
		"255.255.255.255": {0xFFFFFFFF, true},
		"256.0.0.1":       {0, false},
		"1.2.3":           {0, false},
		"1.2.3.4.5":       {0, false},
		"1..2.3":          {0, false},
		"a.b.c.d":         {0, false},
		"":                {0, false},
		"1234.1.1.1":      {0, false},
		"010.0.0.0":       {0, false},
		"10.0.0.00":       {0, false},
	} {
		addr, ok := parseIPv4(s)
		if ok != want.ok || addr != want.addr {
			t.Errorf("parseIPv4(%q) = %x, %v; want %x, %v", s, addr, ok, want.addr, want.ok)
		}
	}
}

// FuzzRISLiveJSON: arbitrary bytes must never panic, and any event that
// comes back is internally consistent — it carries at least one
// prefix, and every prefix is a valid IPv4 prefix.
func FuzzRISLiveJSON(f *testing.F) {
	f.Add([]byte(sampleUpdate))
	f.Add([]byte(`{"type":"ris_message","data":{"type":"UPDATE","peer_asn":"196615","path":[1,[2,3]],"origin":"egp","withdrawals":["10.0.0.0/8"]}}`))
	f.Add([]byte(`{"type":"ris_message","data":{"type":"KEEPALIVE"}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := Decode(line)
		if err != nil {
			if ev != nil {
				t.Fatal("error with non-nil event")
			}
			return
		}
		if ev == nil {
			return
		}
		if len(ev.Update.NLRI) == 0 && len(ev.Update.Withdrawn) == 0 {
			t.Fatal("delivered event with no IPv4 content")
		}
		for _, p := range append(append([]astypes.Prefix(nil), ev.Update.NLRI...), ev.Update.Withdrawn...) {
			if _, err := astypes.NewPrefix(p.Addr, p.Len); err != nil {
				t.Fatalf("invalid prefix %v: %v", p, err)
			}
		}
		if len(ev.Update.NLRI) > 0 && !ev.Update.Attrs.HasOrigin {
			t.Fatal("announcement without origin")
		}
	})
}

// TestDecodeOwnsItsMemory: the event must not alias line, which the
// stage's reader overwrites with the next line.
func TestDecodeOwnsItsMemory(t *testing.T) {
	escaped := strings.NewReplacer(`"rrc00"`, `"rrc\u0030\u0030"`, `"192.0.2.9"`, `"192.0.2.\u0039"`).Replace(sampleUpdate)
	for _, s := range []string{sampleUpdate, escaped, benchLine} {
		line := []byte(s)
		ev, err := Decode(line)
		if err != nil || ev == nil {
			t.Fatalf("Decode(%s) = %v, %v", s, ev, err)
		}
		for i := range line {
			line[i] = 'x'
		}
		want, _ := Decode([]byte(s))
		if !reflect.DeepEqual(ev, want) {
			t.Errorf("event changed with its line:\n got %+v\nwant %+v", ev, want)
		}
	}
}

// TestDecodeDepthLimit: Decode and encoding/json agree on where the
// nesting limit falls. (Kept out of the fuzz seeds: the fuzzer stalls
// minimizing 20 KB inputs.)
func TestDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		// The envelope itself is one more level.
		line := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
		_, err := Decode(line)
		_, wantErr := decodeJSON(line)
		if (err == nil) != (wantErr == nil) || (err == nil) != (depth < maxDepth) {
			t.Errorf("depth %d+1: Decode error %v, encoding/json error %v", depth, err, wantErr)
		}
	}
}

// FuzzDecodeMatchesJSON holds Decode to the encoding/json decoder it
// replaced (decodeJSON): on every line both fail, or both return the
// same event, nil for a skipped line. Corner cases it has found live
// in testdata/fuzz/FuzzDecodeMatchesJSON.
func FuzzDecodeMatchesJSON(f *testing.F) {
	f.Add([]byte(sampleUpdate))
	f.Add([]byte(benchLine))
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := decodeJSON(line)
		got, err := Decode(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Decode error: %v\nencoding/json error: %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode = %+v\nencoding/json = %+v", got, want)
		}
	})
}

// benchLine has the shape of the lines the benchmark's feed_replay
// workload streams.
const benchLine = `{"type":"ris_message","data":{"timestamp":1700000000.00,"peer":"10.0.0.1","peer_asn":"64512","id":"bench-1700000000","host":"rrc00","type":"UPDATE","path":[64512,3356,1299,15169],"community":[[64512,100],[3356,2]],"origin":"igp","announcements":[{"next_hop":"10.0.0.1","prefixes":["203.0.113.0/24","198.51.100.0/24"]}],"withdrawals":["192.0.2.0/24"]}}`

// BenchmarkRISLiveDecode prices one feed line through Decode and, for
// comparison, through the encoding/json decoder it replaced.
func BenchmarkRISLiveDecode(b *testing.B) {
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*Event, error)
	}{{"scanner", Decode}, {"encoding_json", decodeJSON}} {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(benchLine)
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
