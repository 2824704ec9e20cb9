package e2etest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestMRTReplayForensics replays a synthetic MRT archive — a table dump
// carrying the legitimate origin plus a forged-origin update — through
// the off-line monitor and asserts the operator-visible outcome: exactly
// one alarm on /debug/alarms whose forensic bundle carries the span of
// the forged archive record, so an operator can seek straight to the
// offending record in the archive.
func TestMRTReplayForensics(t *testing.T) {
	const (
		legitOrigin  = astypes.ASN(65001)
		forgedOrigin = astypes.ASN(64999)
	)
	prefix := astypes.MustPrefix(0x83B30000, 16) // 131.179.0.0/16, the paper's example

	// Build the archive: PEER_INDEX_TABLE, one RIB record from the
	// legitimate origin, then the forged BGP4MP update.
	t0 := time.Unix(1000000000, 0).UTC()
	var archive bytes.Buffer
	w := mrt.NewWriter(&archive)
	peers := []mrt.Peer{{BGPID: 0x01010101, IP: 0xC0000201, AS: uint32(legitOrigin)}}
	if err := w.WritePeerIndex(t0, 0x0A000001, "replay", peers); err != nil {
		t.Fatal(err)
	}
	legit := mrt.RIBEntry{
		PeerAS:  legitOrigin,
		Origin:  wire.OriginIGP,
		Path:    astypes.NewSeqPath(legitOrigin),
		NextHop: 0xC0000201,
	}
	if err := w.WriteRIB(t0, 0, prefix, []mrt.RIBEntry{legit}); err != nil {
		t.Fatal(err)
	}
	forged := &wire.Update{NLRI: []astypes.Prefix{prefix}}
	forged.Attrs.HasOrigin = true
	forged.Attrs.HasNextHop = true
	forged.Attrs.NextHop = 0xC0000202
	forged.Attrs.ASPath = astypes.NewSeqPath(64998, forgedOrigin)
	if err := w.WriteUpdate(t0.Add(time.Second), 64998, 6447, 0xC0000202, 0xC0000201, forged); err != nil {
		t.Fatal(err)
	}
	// The forged update is archive record 3 (peer index, RIB, update).
	const forgedSpan = 3

	// Replay through a monitor wired the way moas-collector wires it:
	// flight recorder + telemetry + admin endpoint.
	reg := telemetry.NewRegistry("moas")
	rec := trace.NewRecorder(256)
	mon := monitor.New(monitor.WithTelemetry(reg), monitor.WithTrace(rec))
	res, err := mon.ReplayMRTFunc("mrt:test-archive", bytes.NewReader(archive.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 3 || res.Stats.RIBPrefixes != 1 || res.Stats.Updates != 1 || res.Malformed != 0 {
		t.Fatalf("replay stats %+v malformed %d", res.Stats, res.Malformed)
	}

	alarms := mon.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("monitor raised %d alarms, want exactly 1: %+v", len(alarms), alarms)
	}

	// Operator view: the forensic bundle over the admin endpoint.
	admin, err := obs.Serve("127.0.0.1:0", obs.SurfaceConfig{Registry: reg, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	resp, err := http.Get("http://" + admin.Addr() + "/debug/alarms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/alarms: %d: %s", resp.StatusCode, body)
	}
	var bundles []trace.AlarmBundle
	if err := json.Unmarshal(body, &bundles); err != nil {
		t.Fatalf("decode bundles: %v\n%s", err, body)
	}
	if len(bundles) != 1 {
		t.Fatalf("/debug/alarms has %d bundles, want exactly 1: %s", len(bundles), body)
	}
	b := bundles[0]
	if b.Span != forgedSpan {
		t.Errorf("bundle span %d, want %d (the forged record's archive ordinal)", b.Span, forgedSpan)
	}
	if b.Origin != uint32(forgedOrigin) {
		t.Errorf("bundle origin %d, want %d", b.Origin, forgedOrigin)
	}
	if b.Prefix != prefix.String() {
		t.Errorf("bundle prefix %q, want %q", b.Prefix, prefix)
	}
	if b.Note != "mrt:test-archive" {
		t.Errorf("bundle note %q, want the replay vantage", b.Note)
	}
	if len(b.Existing) != 1 || b.Existing[0] != uint32(legitOrigin) {
		t.Errorf("existing list %v, want [%d]", b.Existing, legitOrigin)
	}
	found := false
	for _, as := range b.Received {
		if as == uint32(forgedOrigin) {
			found = true
		}
	}
	if !found {
		t.Errorf("received list %v does not carry the forged origin %d", b.Received, forgedOrigin)
	}
}
