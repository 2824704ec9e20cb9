package trace

import (
	"testing"

	"repro/internal/astypes"
)

// FuzzTraceDecode drives the trace-event JSON decoder with arbitrary
// input and checks the encode/decode pair agrees on everything that
// decodes cleanly: decode(b) must re-encode and decode back to the
// identical event (the encoder is canonical, not the input bytes).
func FuzzTraceDecode(f *testing.F) {
	seed := []Event{
		{Kind: KindRecv, Node: 100, Peer: 65001, Origin: 65001,
			Prefix: astypes.MustPrefix(0x83b30000, 16), Aux: 1},
		{Seq: 42, Nanos: 1700000000000000000, Span: 9, Kind: KindAlarm,
			Detail: DetailConflict, Node: 100, Peer: 64999, Origin: 64999,
			Prefix: astypes.MustPrefix(0x83b30000, 16)},
		{VNanos: 450000, Kind: KindRIB, Detail: DetailWithdrawn, Node: 23,
			Prefix: astypes.MustPrefix(0x0a000000, 8)},
		{Kind: KindExport, Detail: DetailAdvertise, Node: 65535, Peer: 65535,
			Origin: 65535, Aux: 1<<32 - 1},
		{Kind: KindValidate, Detail: DetailOriginNotListed, Node: 7, Peer: 3, Origin: 64999},
	}
	for _, e := range seed {
		f.Add(AppendEventJSON(nil, &e))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"recv","prefix":""}`))
	f.Add([]byte(`{"kind":"recv","prefix":"999.0.0.1/8"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEventJSON(data)
		if err != nil {
			return // malformed input is expected; it must only not panic
		}
		re := AppendEventJSON(nil, &e)
		back, err := DecodeEventJSON(re)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v\n in: %q\nout: %q", err, data, re)
		}
		if back != e {
			t.Fatalf("decode/encode disagreement:\n in: %q\n e1: %+v\n e2: %+v", data, e, back)
		}
	})
}
