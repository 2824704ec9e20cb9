package trace

import (
	"encoding/json"
	"testing"

	"repro/internal/astypes"
)

func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 3, Nanos: 1700000000000000000, Span: 12, Kind: KindRecv, Node: 100, Peer: 65001, Origin: 65001, Prefix: testPrefix, Aux: 2},
		{Seq: 9, VNanos: 450000, Kind: KindValidate, Detail: DetailOriginNotListed, Node: 23, Peer: 7, Origin: 64999, Prefix: testPrefix},
		{Kind: KindRIB, Detail: DetailReplaced, Node: 1, Prefix: astypes.MustPrefix(0x0a000000, 8)},
		{Kind: KindExport, Detail: DetailWithdrawal, Node: 65535, Peer: 65535, Origin: 65535, Aux: 1<<32 - 1},
		{Kind: KindAlarm, Detail: DetailConflict, Node: 100, Peer: 64999, Origin: 64999, Prefix: testPrefix, Aux: 0},
	}
	for _, e := range events {
		buf := AppendEventJSON(nil, &e)
		got, err := DecodeEventJSON(buf)
		if err != nil {
			t.Fatalf("decode %s: %v", buf, err)
		}
		if got != e {
			t.Errorf("round trip: got %+v, want %+v\n  json: %s", got, e, buf)
		}
	}
}

func TestDecodeEventJSONErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"{",
		`{"kind":"nonsense"}`,
		`{"kind":"recv","detail":"nonsense"}`,
		`{"kind":"recv","prefix":"not-a-prefix"}`,
		`{"kind":"recv","node":"string"}`,
	} {
		if _, err := DecodeEventJSON([]byte(bad)); err == nil {
			t.Errorf("DecodeEventJSON(%q): want error, got nil", bad)
		}
	}
}

func TestEventMarshalViaEncodingJSON(t *testing.T) {
	e := Event{Seq: 5, VNanos: 99, Span: 2, Kind: KindRIB, Detail: DetailInstalled, Node: 42, Prefix: testPrefix}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(AppendEventJSON(nil, &e)); string(data) != want {
		t.Errorf("json.Marshal: got %s, want %s", data, want)
	}
	var back Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("unmarshal: got %+v, want %+v", back, e)
	}
}

func TestBundleJSONRoundTrip(t *testing.T) {
	b := AlarmBundle{
		ID: 2, VNanos: 1234, Span: 7, Node: 100, FromPeer: 64999, Origin: 64999,
		Prefix: "131.179.0.0/16", Verdict: "conflict", Note: "vantage-3",
		Existing: []uint32{65001}, Received: []uint32{64999}, Path: []uint32{64999},
		Origins: []uint32{64999, 65001},
		Timeline: []Event{
			{Span: 7, Kind: KindRecv, Node: 100, Peer: 64999, Origin: 64999, Prefix: testPrefix},
			{Span: 7, Kind: KindAlarm, Detail: DetailConflict, Node: 100, Peer: 64999, Origin: 64999, Prefix: testPrefix},
		},
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back AlarmBundle
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Prefix != b.Prefix || back.Verdict != b.Verdict || back.Note != b.Note {
		t.Errorf("bundle fields lost: %+v", back)
	}
	if len(back.Timeline) != 2 || back.Timeline[0] != b.Timeline[0] || back.Timeline[1] != b.Timeline[1] {
		t.Errorf("timeline lost: %+v", back.Timeline)
	}
}
